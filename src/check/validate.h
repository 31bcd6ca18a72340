// Shared configuration validation (the satellite of the ScanSession /
// service redesign that unified the three hand-rolled bounds checks).
//
// Every public config struct — PipelineConfig, ScanSession,
// StreamScanOptions, service::ServiceConfig — exposes a `validate()`
// built from the helpers below, so an invalid config fails identically
// everywhere: a ConfigError whose message is always
//
//   <ConfigName>.<field>: <constraint>
//
// regardless of which entry point (run_tga, ScanSession::sweep,
// StreamScanner, HitlistService) first sees the config. Contrast with
// contracts.h: a contract guards against *programmer* error inside the
// library and compiles out by default; validate() guards *caller* input
// at the API boundary and is always armed. The sanitizer builds add
// death tests on top (tests/check/validate_test.cc): validation invoked
// from a noexcept frame must terminate with the same uniform message.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace v6::check {

/// Thrown by every config validate() path. Derives from
/// std::invalid_argument so pre-existing catch sites keep working.
class ConfigError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Builds uniformly formatted ConfigErrors for one named config struct.
/// Usage:
///   v6::check::Validator v("PipelineConfig");
///   v.require(batch_size > 0, "batch_size", "must be > 0");
class Validator {
 public:
  explicit Validator(std::string_view config_name) : name_(config_name) {}

  /// Throws ConfigError("<name>.<field>: <constraint>") when !ok.
  void require(bool ok, std::string_view field,
               std::string_view constraint) const {
    if (ok) return;
    std::string message;
    message.reserve(name_.size() + field.size() + constraint.size() + 3);
    message.append(name_).append(".").append(field).append(": ").append(
        constraint);
    throw ConfigError(message);
  }

  // Common constraint spellings, so messages stay byte-identical across
  // the config structs that share a field shape.
  template <typename T>
  void positive(T value, std::string_view field) const {
    require(value > T{0}, field, "must be > 0");
  }
  template <typename T>
  void non_negative(T value, std::string_view field) const {
    require(value >= T{0}, field, "must be >= 0");
  }
  /// Probability-like field: must lie in [0, 1].
  void unit_interval(double value, std::string_view field) const {
    require(value >= 0.0 && value <= 1.0, field, "must be in [0, 1]");
  }
  template <typename T>
  void not_null(const T* pointer, std::string_view field) const {
    require(pointer != nullptr, field, "is required (must not be null)");
  }

 private:
  std::string name_;
};

}  // namespace v6::check
