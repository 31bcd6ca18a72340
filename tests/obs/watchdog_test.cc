// StallWatchdog tests (src/obs/watchdog.h): arm/disarm semantics, the
// once-per-stall handler contract, registry metrics, the monitor
// thread, and the acceptance-path end-to-end: a wedged stage trips the
// watchdog, the trip dumps the flight recorder, and the dump parses
// through the same load_trace/analyze_trace pipeline `sos report` uses.
//
// Deadlines here are tiny (tens of milliseconds) and every wait is a
// bounded retry loop against the watchdog's own state, so the suite is
// timing-tolerant on loaded CI machines.
#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/event.h"
#include "obs/flight_recorder.h"
#include "obs/registry.h"
#include "obs/trace_analysis.h"
#include "obs/trace_reader.h"
#include "obs/watchdog.h"

namespace v6::obs {
namespace {

using namespace std::chrono_literals;

StallWatchdog::Options fast(double deadline_seconds,
                            Registry* registry = nullptr) {
  StallWatchdog::Options opts;
  opts.deadline_seconds = deadline_seconds;
  opts.poll_seconds = 0.005;
  opts.registry = registry;
  return opts;
}

TEST(Heartbeat, CountsAndArmFlagAreIndependent) {
  Heartbeat hb;
  EXPECT_EQ(hb.count(), 0u);
  EXPECT_FALSE(hb.armed());
  hb.beat();
  hb.beat();
  EXPECT_EQ(hb.count(), 2u);
  hb.arm();
  EXPECT_TRUE(hb.armed());
  hb.disarm();
  EXPECT_FALSE(hb.armed());
  EXPECT_EQ(hb.count(), 2u);
}

TEST(ArmedStage, ArmsForItsScopeAndDisarmsOnEveryExit) {
  Heartbeat hb;
  {
    ArmedStage stage(&hb);
    EXPECT_TRUE(hb.armed());
    stage.beat();
  }
  EXPECT_FALSE(hb.armed());
  EXPECT_EQ(hb.count(), 1u);
  // A shard worker that throws must not leave its stage armed.
  EXPECT_THROW(
      {
        ArmedStage stage(&hb);
        EXPECT_TRUE(hb.armed());
        throw std::runtime_error("shard failed");
      },
      std::runtime_error);
  EXPECT_FALSE(hb.armed());
  ArmedStage detached(nullptr);  // no watchdog attached: no-ops
  detached.beat();
}

TEST(StallWatchdog, StageReturnsStableAddresses) {
  StallWatchdog watchdog(fast(10.0));
  Heartbeat& a = watchdog.stage("stream.prober.0");
  Heartbeat& b = watchdog.stage("stream.prober.1");
  EXPECT_NE(&a, &b);
  EXPECT_EQ(&watchdog.stage("stream.prober.0"), &a);
  EXPECT_EQ(&watchdog.stage("stream.prober.1"), &b);
}

TEST(StallWatchdog, DisarmedStagesNeverTrip) {
  StallWatchdog watchdog(fast(0.01));
  watchdog.stage("idle");  // registered but never armed
  std::this_thread::sleep_for(30ms);
  EXPECT_FALSE(watchdog.check_now());
  EXPECT_FALSE(watchdog.tripped());
}

TEST(StallWatchdog, ArmedSilentStageTripsOncePerStall) {
  Registry registry;
  StallWatchdog watchdog(fast(0.01, &registry));
  std::vector<std::string> stalled;
  watchdog.on_stall([&](const StallWatchdog::StallReport& report) {
    stalled.push_back(report.stage);
    EXPECT_GE(report.idle_seconds, report.deadline_seconds);
    EXPECT_FALSE(report.stages.empty());
    EXPECT_FALSE(report.to_text().empty());
  });

  Heartbeat& hb = watchdog.stage("stream.scan");
  hb.arm();
  std::this_thread::sleep_for(30ms);
  EXPECT_TRUE(watchdog.check_now());
  EXPECT_TRUE(watchdog.tripped());
  EXPECT_EQ(watchdog.trips(), 1u);
  ASSERT_EQ(stalled.size(), 1u);
  EXPECT_EQ(stalled[0], "stream.scan");

  // Still silent: the handler does not refire for the same stall.
  std::this_thread::sleep_for(30ms);
  EXPECT_FALSE(watchdog.check_now());
  EXPECT_EQ(watchdog.trips(), 1u);
  EXPECT_EQ(stalled.size(), 1u);

  // Progress clears the stall; a new silence is a new trip.
  hb.beat();
  EXPECT_FALSE(watchdog.check_now());
  std::this_thread::sleep_for(30ms);
  EXPECT_TRUE(watchdog.check_now());
  EXPECT_EQ(watchdog.trips(), 2u);

  EXPECT_EQ(registry.snapshot().counters.at("watchdog.trips.wall"), 2u);
}

TEST(StallWatchdog, BeatingStageStaysHealthy) {
  StallWatchdog watchdog(fast(0.25));
  Heartbeat& hb = watchdog.stage("busy");
  hb.arm();
  for (int i = 0; i < 10; ++i) {
    std::this_thread::sleep_for(5ms);
    hb.beat();
    EXPECT_FALSE(watchdog.check_now());
  }
  hb.disarm();
  EXPECT_FALSE(watchdog.tripped());
}

TEST(StallWatchdog, ArmTransitionResetsIdleClock) {
  StallWatchdog watchdog(fast(0.05));
  Heartbeat& hb = watchdog.stage("cyclic");
  // A long disarmed gap must not count against the next armed window.
  std::this_thread::sleep_for(80ms);
  hb.arm();
  EXPECT_FALSE(watchdog.check_now());
  hb.disarm();
}

TEST(StallWatchdog, MonitorThreadFiresHandler) {
  Registry registry;
  StallWatchdog watchdog(fast(0.01, &registry));
  watchdog.stage("wedged").arm();
  watchdog.on_stall([](const StallWatchdog::StallReport&) {});
  watchdog.start();
  // Bounded wait: the monitor polls every 5ms against a 10ms deadline.
  for (int i = 0; i < 400 && !watchdog.tripped(); ++i) {
    std::this_thread::sleep_for(5ms);
  }
  watchdog.stop();
  EXPECT_TRUE(watchdog.tripped());
  EXPECT_GE(registry.snapshot().gauges.at("watchdog.stalled.wall"), 1);
}

TEST(StallWatchdog, StatusReportsEveryStage) {
  StallWatchdog watchdog(fast(10.0));
  watchdog.stage("a").arm();
  watchdog.stage("b");
  watchdog.stage("a").beat();
  const std::vector<StallWatchdog::StageStatus> status = watchdog.status();
  ASSERT_EQ(status.size(), 2u);
  EXPECT_EQ(status[0].name, "a");
  EXPECT_EQ(status[0].beats, 1u);
  EXPECT_TRUE(status[0].armed);
  EXPECT_EQ(status[1].name, "b");
  EXPECT_FALSE(status[1].armed);
}

// The acceptance path (ISSUE: watchdog trip on a wedged stage produces
// a flight-recorder dump that `sos report` parses): a recorder full of
// events, a wedged stage, a trip handler that dumps — and the dump
// flows through load_trace and analyze_trace exactly like a trace file.
TEST(StallWatchdog, TripDumpsFlightRecorderParseableEndToEnd) {
  FlightRecorder recorder;
  // A realistic ring: spans, probes, counters — what a live scan leaves.
  for (int i = 0; i < 32; ++i) {
    Event span;
    span.kind = Event::Kind::kSpan;
    span.path = "tga:6Tree/pipeline.run/pipeline.scan";
    span.at = 0.1 * i;
    span.seconds = 0.05;
    recorder.emit(span);
    Event probe;
    probe.kind = Event::Kind::kProbe;
    probe.path = "2001:db8::" + std::to_string(i);
    probe.detail = "ICMP->echo-reply";
    probe.at = 0.1 * i;
    recorder.emit(probe);
  }

  Registry registry;
  StallWatchdog watchdog(fast(0.01, &registry));
  std::ostringstream dump;
  std::string report_text;
  watchdog.on_stall([&](const StallWatchdog::StallReport& report) {
    report_text = report.to_text();
    recorder.dump_jsonl(dump);
  });

  watchdog.stage("stream.prober.0").arm();
  std::this_thread::sleep_for(30ms);
  ASSERT_TRUE(watchdog.check_now());

  // The diagnostics name the wedged stage...
  EXPECT_NE(report_text.find("stream.prober.0"), std::string::npos);

  // ...and the dump is a well-formed trace the report pipeline accepts.
  std::istringstream in(dump.str());
  std::vector<Event> events;
  const TraceLoadStats stats = load_trace(in, &events);
  EXPECT_EQ(stats.bad_lines, 0u);
  EXPECT_EQ(stats.truncated, 0u);
  ASSERT_EQ(events.size(), 64u);
  const TraceSummary summary = analyze_trace(events, /*top=*/5);
  EXPECT_EQ(summary.events, 64u);
  EXPECT_EQ(summary.probes, 32u);
  EXPECT_FALSE(summary.slowest.empty());
}

}  // namespace
}  // namespace v6::obs
