// The two shipped EventSinks.
//
//   MemorySink    — append-only in-memory buffer. Tests assert on it, and
//                   ScanSession::sweep gives every parallel TGA run a
//                   private one so buffered events can be replayed into
//                   the real sink in slot order (deterministic traces
//                   under any jobs count).
//   JsonLinesSink — one JSON object per line, either to a borrowed
//                   ostream or to a file it owns. The format is described
//                   in docs/OBSERVABILITY.md.
//   TeeSink       — fans one event stream out to several sinks (e.g.
//                   --trace and --trace-chrome on the same run).
//
// The Chrome-trace exporter lives in obs/chrome_trace.h. All sinks
// serialize internally; emit() is thread-safe.
#pragma once

#include <fstream>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/event.h"

namespace v6::obs {

/// Appends `s` to `out` with JSON string escaping (RFC 8259): quotes and
/// backslashes escaped, \n/\t/\r shorthand, remaining control characters
/// as \u00XX, and everything >= 0x20 (including UTF-8 bytes) verbatim.
/// Shared by JsonLinesSink, ChromeTraceSink, and the bench JSON writers.
void append_json_escaped(std::string& out, std::string_view s);

class MemorySink final : public EventSink {
 public:
  void emit(const Event& event) override;

  /// Copy of the buffered events, in emission order.
  std::vector<Event> events() const;
  std::size_t size() const;
  void clear();

  /// Forwards every buffered event to `sink`, preserving order.
  void replay_to(EventSink& sink) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Event> events_;
};

class JsonLinesSink final : public EventSink {
 public:
  /// Writes to a borrowed stream (kept alive by the caller).
  explicit JsonLinesSink(std::ostream& out);
  /// Opens (truncates) `path`; ok() reports whether the open succeeded.
  explicit JsonLinesSink(const std::string& path);

  bool ok() const;
  void emit(const Event& event) override;
  void flush() override;

  /// Serialization of one event as a single JSON line (no trailing
  /// newline) — exposed so golden tests can pin the format.
  static std::string to_json(const Event& event);

 private:
  std::ofstream owned_;
  std::ostream* out_;
  std::mutex mutex_;
};

/// Forwards every event to each registered sink, in registration order.
/// Sinks are borrowed (caller keeps them alive); each one serializes
/// internally, so TeeSink itself needs no lock.
class TeeSink final : public EventSink {
 public:
  void add(EventSink* sink) {
    if (sink != nullptr) sinks_.push_back(sink);
  }

  void emit(const Event& event) override {
    for (EventSink* sink : sinks_) sink->emit(event);
  }
  void flush() override {
    for (EventSink* sink : sinks_) sink->flush();
  }

 private:
  std::vector<EventSink*> sinks_;
};

}  // namespace v6::obs
