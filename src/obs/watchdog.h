// StallWatchdog: per-stage progress heartbeats with a wall-clock
// deadline, the liveness half of the introspection plane.
//
// A pipeline stage (StreamScanner's `stream.scan` loop or its
// `stream.prober.<s>` shard workers, the HitlistService refresh cycle)
// registers a named Heartbeat and beats it every unit of progress — one
// relaxed atomic increment, cheap enough for per-batch call sites. A
// monitor thread (spawned through runtime::WorkerGroup; obs may depend
// on runtime, tools/lint/layers.txt) polls the beat counts: an *armed*
// stage whose count has not moved for `deadline_seconds` of
// steady_clock time is stalled. On the first
// expiry per stall the watchdog bumps `watchdog.trips.wall`, sets the
// `watchdog.stalled.wall` gauge, and fires the on_stall handler exactly
// once per stalled stage — the `sos serve` wiring uses that to dump the
// flight recorder and a final exposition document before the operator
// ever attaches a debugger.
//
// Everything here is wall-clock-side and read-only with respect to scan
// state: heartbeats observe progress, never steer it, so the virtual-
// time determinism contract is untouched (docs/OBSERVABILITY.md).
// Stages arm() themselves while running and disarm() when they finish;
// a disarmed stage is never considered stalled, so idle-but-healthy
// services don't trip between refresh cycles.
#pragma once

#include <atomic>
#include <cstdint>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/registry.h"
#include "runtime/worker_group.h"

namespace v6::obs {

/// One stage's progress pulse. Stable address for the life of its
/// watchdog (deque storage), so stages cache the pointer and beat
/// lock-free from any thread.
class Heartbeat {
 public:
  /// One unit of progress (a batch moved, a cycle finished). Relaxed:
  /// the monitor only ever compares successive snapshots.
  void beat() { beats_.fetch_add(1, std::memory_order_relaxed); }

  /// Arming marks the stage as expected-to-progress and timestamps the
  /// transition; the monitor measures idle from the arm instant (not
  /// from its first poll afterwards), so a stage is never blamed for
  /// time spent disarmed and never granted a free poll period either.
  void arm() {
    armed_at_nanos_.store(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count(),
        std::memory_order_relaxed);
    armed_.store(true, std::memory_order_release);
  }
  void disarm() { armed_.store(false, std::memory_order_release); }

  std::uint64_t count() const { return beats_.load(std::memory_order_relaxed); }
  bool armed() const { return armed_.load(std::memory_order_acquire); }

  /// steady_clock nanos of the most recent arm() (0 before the first).
  std::int64_t armed_at_nanos() const {
    return armed_at_nanos_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> beats_{0};
  std::atomic<std::int64_t> armed_at_nanos_{0};
  std::atomic<bool> armed_{false};
};

/// Arms a stage's heartbeat for one scope and disarms it on every exit
/// path, an exception included, so a stage that has stopped (or thrown)
/// is never left armed to trip the watchdog. A null heartbeat (no
/// watchdog attached) makes every call a no-op.
class ArmedStage {
 public:
  explicit ArmedStage(Heartbeat* heartbeat) : heartbeat_(heartbeat) {
    if (heartbeat_ != nullptr) heartbeat_->arm();
  }
  ~ArmedStage() {
    if (heartbeat_ != nullptr) heartbeat_->disarm();
  }
  ArmedStage(const ArmedStage&) = delete;
  ArmedStage& operator=(const ArmedStage&) = delete;

  void beat() {
    if (heartbeat_ != nullptr) heartbeat_->beat();
  }

 private:
  Heartbeat* heartbeat_;
};

class StallWatchdog {
 public:
  struct Options {
    /// An armed stage with no beat for this long (steady clock) is
    /// stalled.
    double deadline_seconds = 30.0;
    /// Monitor poll period. Detection latency is deadline + one poll.
    double poll_seconds = 0.25;
    /// Optional: trips and stalled-stage counts are published here as
    /// `watchdog.trips.wall` / `watchdog.stalled.wall`.
    Registry* registry = nullptr;
  };

  struct StageStatus {
    std::string name;
    std::uint64_t beats = 0;
    double idle_seconds = 0.0;
    bool armed = false;
    bool stalled = false;
  };

  struct StallReport {
    std::string stage;          // the stage that tripped
    double idle_seconds = 0.0;  // how long it has been silent
    double deadline_seconds = 0.0;
    std::vector<StageStatus> stages;  // every stage at trip time

    /// Human-readable multi-line rendering for logs and dump files.
    std::string to_text() const;
  };

  /// Fired on the monitor thread, once per stage per stall.
  using StallHandler = std::function<void(const StallReport&)>;

  StallWatchdog() : StallWatchdog(Options{}) {}
  explicit StallWatchdog(Options options);
  ~StallWatchdog();

  StallWatchdog(const StallWatchdog&) = delete;
  StallWatchdog& operator=(const StallWatchdog&) = delete;

  /// Returns the heartbeat registered under `name`, creating it
  /// disarmed on first use. Address stable for the watchdog's lifetime.
  Heartbeat& stage(std::string_view name);

  /// Installs the trip handler. Call before start().
  void on_stall(StallHandler handler);

  /// Spawns the monitor thread. No-op when already running.
  void start();
  /// Stops and joins the monitor thread. Idempotent; the destructor
  /// calls it.
  void stop();

  /// One synchronous monitor pass against the current clock — the same
  /// code path the thread runs, exposed for tests and for single-
  /// threaded embedders. Returns true when any stage newly tripped.
  bool check_now();

  bool tripped() const { return trips() > 0; }
  std::uint64_t trips() const {
    return trips_.load(std::memory_order_relaxed);
  }

  /// Snapshot of every stage (name-registration order).
  std::vector<StageStatus> status() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Stage {
    std::string name;
    Heartbeat heartbeat;
    std::uint64_t last_count = 0;
    Clock::time_point last_progress{};
    bool was_armed = false;
    bool reported = false;  // handler fired for the current stall
  };

  bool check_at(Clock::time_point now);

  Options options_;
  StallHandler handler_;
  mutable std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<Stage> stages_;
  bool running_ = false;
  bool stop_requested_ = false;
  std::atomic<std::uint64_t> trips_{0};
  runtime::WorkerGroup monitor_;
};

}  // namespace v6::obs
