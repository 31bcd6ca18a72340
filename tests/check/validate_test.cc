// Tests for the unified config validation layer (src/check/validate.h)
// and the validate() implementations it backs: PipelineConfig,
// ScanSession, ScanOptions (both scan engines), StreamScanOptions, and
// ServiceConfig all fail with the same ConfigError shape —
//
//   <ConfigName>.<field>: <constraint>
//
// — whichever entry point first sees the bad config. The throwing path
// is exercised in every build; the sanitizer presets (V6_CONTRACTS)
// additionally death-test validation reached from a noexcept frame,
// where the uniform message must survive into the terminate
// diagnostics.
#include "check/validate.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "experiment/pipeline.h"
#include "experiment/session.h"
#include "probe/stream_scanner.h"
#include "service/hitlist_service.h"
#include "testutil/fixtures.h"

namespace {

using v6::check::ConfigError;

/// Runs `fn` and returns the ConfigError message it throws; fails the
/// test if it doesn't throw.
template <typename Fn>
std::string error_message(Fn&& fn) {
  try {
    fn();
  } catch (const ConfigError& error) {
    return error.what();
  }
  ADD_FAILURE() << "expected a ConfigError";
  return {};
}

TEST(Validator, MessageIsNameFieldConstraint) {
  const v6::check::Validator v("Demo");
  EXPECT_EQ(error_message([&] { v.require(false, "field", "must hold"); }),
            "Demo.field: must hold");
  EXPECT_EQ(error_message([&] { v.positive(0, "count"); }),
            "Demo.count: must be > 0");
  EXPECT_EQ(error_message([&] { v.non_negative(-1.0, "delay"); }),
            "Demo.delay: must be >= 0");
  EXPECT_EQ(error_message([&] { v.unit_interval(1.5, "prob"); }),
            "Demo.prob: must be in [0, 1]");
  const int* null = nullptr;
  EXPECT_EQ(error_message([&] { v.not_null(null, "ptr"); }),
            "Demo.ptr: is required (must not be null)");
  // Passing checks are silent.
  v.require(true, "field", "must hold");
  v.positive(1, "count");
}

TEST(Validator, ConfigErrorIsAnInvalidArgument) {
  // Pre-existing catch sites for std::invalid_argument keep working.
  EXPECT_THROW(v6::check::Validator("X").positive(0, "n"),
               std::invalid_argument);
}

TEST(ConfigValidation, PipelineConfigRejectsBadFields) {
  EXPECT_EQ(error_message([] {
              v6::experiment::PipelineConfig{}.with_budget(0).validate();
            }),
            "PipelineConfig.budget: must be > 0");
  EXPECT_EQ(error_message([] {
              auto config = v6::experiment::PipelineConfig{};
              config.retry_jitter = 2.0;
              config.validate();
            }),
            "ScanOptions.retry_jitter: must be in [0, 1]");
  v6::experiment::PipelineConfig{}.validate();  // defaults are valid
}

TEST(ConfigValidation, ScanSessionSweepValidatesItsConfig) {
  const auto& universe = v6::testutil::small_universe();
  const v6::dealias::AliasList aliases;
  EXPECT_EQ(error_message([&] {
              v6::experiment::ScanSession(universe, aliases)
                  .with_config(v6::experiment::PipelineConfig{}.with_budget(0))
                  .sweep();
            }),
            "PipelineConfig.budget: must be > 0");
}

TEST(ConfigValidation, StreamScanOptionsRejectsBadFields) {
  EXPECT_EQ(error_message([] {
              v6::probe::StreamScanOptions{}.with_shards(0).validate();
            }),
            "StreamScanOptions.shards: must be > 0");
  // The wrapped scan knobs are ScanOptions::validate's, message and all.
  EXPECT_EQ(error_message([] {
              auto options = v6::probe::StreamScanOptions{};
              options.scan.max_retries = -1;
              options.validate();
            }),
            "ScanOptions.max_retries: must be >= 0");
  v6::probe::StreamScanOptions{}.validate();
}

TEST(ConfigValidation, ScannerRejectsBadOptions) {
  // Unchecked, each would reach the batch engine: -1 retries sends no
  // packet yet counts the target probed and timed out, a NaN rate is
  // clamped to 1 pps, and a jitter above 1 can make a backoff wait
  // negative and wind the fault plane's clock back.
  v6::probe::SimTransport transport(v6::testutil::small_universe(), 1);
  const auto build = [&](const v6::probe::ScanOptions& options) {
    return error_message([&] {
      const v6::probe::Scanner scanner(transport, nullptr, options);
    });
  };
  EXPECT_EQ(build(v6::probe::ScanOptions{}.with_retries(-1)),
            "ScanOptions.max_retries: must be >= 0");
  EXPECT_EQ(build(v6::probe::ScanOptions{}.with_max_pps(
                std::numeric_limits<double>::quiet_NaN())),
            "ScanOptions.max_pps: must be > 0");
  EXPECT_EQ(build(v6::probe::ScanOptions{}.with_retry_backoff(0.1, 1.5)),
            "ScanOptions.retry_jitter: must be in [0, 1]");
  const v6::probe::Scanner scanner(transport, nullptr, {});  // defaults
}

TEST(ConfigValidation, ServiceConfigRejectsBadFields) {
  EXPECT_EQ(error_message([] {
              v6::service::ServiceConfig{}.with_budget(0).validate();
            }),
            "ServiceConfig.budget_per_cycle: must be > 0");
  // 0.2 x 8 TGAs = 160% of the budget: floors alone overcommit.
  EXPECT_EQ(error_message([] {
              v6::service::ServiceConfig{}.with_explore_floor(0.2).validate();
            }),
            "ServiceConfig.explore_floor: must leave a non-negative shared "
            "remainder");
  v6::service::ServiceConfig{}.validate();
}

#if defined(V6_CONTRACTS)

using ValidateDeathTest = ::testing::Test;

// Validation reached from a noexcept frame cannot unwind; the process
// must terminate, and the uniform message must still be visible in the
// diagnostics so the failure is debuggable post-mortem.
TEST(ValidateDeathTest, NoexceptFrameTerminatesWithTheUniformMessage) {
  const auto doomed = []() noexcept {
    v6::experiment::PipelineConfig{}.with_budget(0).validate();
  };
  EXPECT_DEATH(doomed(), "PipelineConfig.budget: must be > 0");
}

#endif  // V6_CONTRACTS

}  // namespace
