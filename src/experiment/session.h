// ScanSession: the experiment API's object model.
//
// A session binds the immutable fixtures of a measurement — the
// simulated Universe, the published AliasList, and an optional parent
// Telemetry — at construction, by reference, so raw-pointer wiring with
// a runtime null check (`spec.universe = &u`) cannot be mis-assembled.
// Everything that varies per sweep (TGA kinds, seeds, pipeline config,
// jobs) chains fluently:
//
//   const auto runs = ScanSession(universe, alias_list)
//                         .with_seeds(seeds)
//                         .with_config(config)
//                         .with_jobs(4)
//                         .sweep();
//
// sweep() runs the selected TGAs on runtime::parallel_for, jobs() at a
// time, with results bit-identical to a sequential run
// (docs/ALGORITHMS.md, "Parallel experiment execution"): a run is a pure
// function of the const Universe, the sweep's seed index and its own
// freshly-seeded state, every output slot is pre-assigned, and per-run
// telemetry is merged in slot order. The runs borrow one tga::SeedIndex
// over the seeds, so the seeds are indexed, and each space tree built,
// once per sweep rather than once per run.
//
// The continuous service (src/service) does not scan through a session
// or a ScanRig: src/service may not include src/experiment
// (tools/lint/layers.txt), so HitlistService builds its own
// StreamScanner each refresh cycle from its ServiceConfig (shards,
// max_pps, watchdog, a per-cycle seed). ScanSession is the only sweep
// entry point; the v6lint `deprecated-api` rule keeps the retired
// positional spellings out.
#pragma once

#include <span>
#include <vector>

#include "dealias/alias_list.h"
#include "experiment/pipeline.h"
#include "metrics/scan_outcome.h"
#include "net/ipv6.h"
#include "obs/registry.h"
#include "obs/telemetry.h"
#include "simnet/universe.h"
#include "tga/registry.h"

namespace v6::experiment {

/// One TGA's result within a sweep.
struct TgaRun {
  v6::tga::TgaKind kind;
  v6::metrics::ScanOutcome outcome;
  /// Host wall-clock spent inside this run (not virtual wire time).
  double wall_seconds = 0.0;
  /// Snapshot of this run's private metric registry: transport packet /
  /// reply counters, scanner counters, and `pipeline.*` phase timers
  /// (the per-phase breakdown bench_common embeds in BENCH_*.json).
  /// Counters and timer counts are deterministic; timer seconds are
  /// wall-clock measurements.
  v6::obs::Report report;
};

class ScanSession {
 public:
  /// Binds the sweep's immutable fixtures. Both are borrowed and must
  /// outlive the session (the same lifetime rule run_tga always had).
  ScanSession(const v6::simnet::Universe& universe,
              const v6::dealias::AliasList& alias_list)
      : universe_(&universe), alias_list_(&alias_list) {}

  /// TGA selection: empty (the default) means the paper's eight.
  ScanSession& with_kinds(std::span<const v6::tga::TgaKind> k) {
    kinds_.assign(k.begin(), k.end());
    return *this;
  }
  ScanSession& with_kind(v6::tga::TgaKind k) {
    kinds_.assign(1, k);
    return *this;
  }
  /// Seed addresses, borrowed for the duration of sweep().
  ScanSession& with_seeds(std::span<const v6::net::Ipv6Addr> s) {
    seeds_ = s;
    return *this;
  }
  ScanSession& with_config(const PipelineConfig& c) {
    config_ = c;
    return *this;
  }
  /// Concurrent TGA runs: 0 means runtime::default_jobs(), 1 runs
  /// sequentially inline. Output order (and every ScanOutcome field) is
  /// identical for every jobs value, with or without telemetry.
  ScanSession& with_jobs(unsigned j) {
    jobs_ = j;
    return *this;
  }
  /// Optional parent instrumentation context: receives every run's
  /// merged counters/timers, and (when it has a sink) the runs' trace
  /// events in slot order.
  ScanSession& with_telemetry(v6::obs::Telemetry* t) {
    telemetry_ = t;
    return *this;
  }

  const v6::simnet::Universe& universe() const { return *universe_; }
  const v6::dealias::AliasList& alias_list() const { return *alias_list_; }
  const PipelineConfig& config() const { return config_; }
  std::span<const v6::net::Ipv6Addr> seeds() const { return seeds_; }
  unsigned jobs() const { return jobs_; }
  v6::obs::Telemetry* telemetry() const { return telemetry_; }

  /// Throws check::ConfigError on an invalid pipeline config (the
  /// shared check/validate.h path; sweep() calls this first).
  void validate() const;

  /// Runs the configured sweep, `jobs()` runs at a time.
  std::vector<TgaRun> sweep() const;

 private:
  const v6::simnet::Universe* universe_;
  const v6::dealias::AliasList* alias_list_;
  std::vector<v6::tga::TgaKind> kinds_;
  std::span<const v6::net::Ipv6Addr> seeds_;
  PipelineConfig config_;
  unsigned jobs_ = 1;
  v6::obs::Telemetry* telemetry_ = nullptr;
};

}  // namespace v6::experiment
