// The end-to-end TGA measurement pipeline (paper §4): seed a generator,
// generate in batches up to the budget, scan, feed online generators,
// dealias outputs with the joint (offline + online) method, filter the
// AS12322 analogue from ICMP results, and compute metrics. Scans go
// through a ScanRig (experiment/scan_rig.h) built from the config, at
// the paper's 10K pps (ScanOptions::max_pps).
#pragma once

#include <cstdint>
#include <span>

#include "dealias/alias_list.h"
#include "fault/fault_plan.h"
#include "probe/blocklist.h"
#include "probe/scanner.h"
#include "metrics/scan_outcome.h"
#include "net/ipv6.h"
#include "net/service.h"
#include "obs/telemetry.h"
#include "simnet/universe.h"
#include "tga/seed_index.h"
#include "tga/target_generator.h"

namespace v6::experiment {

/// Pipeline configuration. Defaults story: a default-constructed
/// PipelineConfig is the paper's standard ICMP experiment at the scaled
/// 400K budget — every bench starts from it and overrides only what the
/// experiment varies, via the fluent `with_*` chain:
///
///   PipelineConfig{}.with_budget(b).with_type(ProbeType::kTcp443)
///
/// (designated initializers work too; the setters exist so call sites
/// read as a single expression instead of ad-hoc field mutation).
struct PipelineConfig {
  /// Generation budget (the paper's 50M, scaled to the simulated
  /// universe so the budget:responsive-seed ratio matches the paper's
  /// ~4.5:1 regime).
  std::uint64_t budget = 400'000;
  /// Addresses per generate/scan/feedback round.
  std::uint64_t batch_size = 10'000;
  v6::net::ProbeType type = v6::net::ProbeType::kIcmp;
  /// Remove AS12322-analogue addresses from ICMP metrics (paper §4.1).
  bool filter_dense = true;
  std::uint64_t seed = 42;
  /// Scanner retransmissions after timeout.
  int scan_retries = 1;
  /// Scan engine (experiment/scan_rig.h): 0 (default) is the batch
  /// Scanner, the golden-locked legacy path; >= 1 is the streaming
  /// StreamScanner with that many shard workers. Streaming outcomes are
  /// shard-count-invariant but differ from the batch engine's for
  /// targets whose replies are stochastic (docs/SCANNER.md).
  int shards = 0;
  /// Optional do-not-scan list honored by the scanner (the paper had to
  /// retrofit blocklisting into 6Scan's scanner; here it is first-class).
  const v6::probe::Blocklist* blocklist = nullptr;
  /// Optional instrumentation context (borrowed): packet counters on the
  /// wire chain (experiment/scan_rig.h), `pipeline.*` phase spans per
  /// batch, and the scanner's counters. Results are byte-identical with
  /// or without it.
  v6::obs::Telemetry* telemetry = nullptr;
  /// Also emit one event per probe packet when `telemetry` has a sink;
  /// intended for `sos --trace` on small universes.
  bool trace_probes = false;
  /// Optional fault-injection plan (borrowed; see fault/fault_plan.h),
  /// applied on the wire chain. A disabled plan is byte-identical to
  /// nullptr (ctest-asserted).
  const v6::fault::FaultPlan* faults = nullptr;
  /// Robust-scanner knobs, forwarded verbatim to ScanOptions (see
  /// probe/scanner.h for semantics). All default off, so fault-free
  /// configs reproduce today's outcomes bit-for-bit.
  double probe_timeout_s = 0.0;
  double retry_backoff_s = 0.0;
  double retry_jitter = 0.0;
  int adaptive_threshold = 0;
  double adaptive_backoff_s = 0.0;

  PipelineConfig& with_budget(std::uint64_t v) { budget = v; return *this; }
  PipelineConfig& with_batch_size(std::uint64_t v) { batch_size = v; return *this; }
  PipelineConfig& with_type(v6::net::ProbeType v) { type = v; return *this; }
  PipelineConfig& with_seed(std::uint64_t v) { seed = v; return *this; }
  PipelineConfig& with_scan_retries(int v) { scan_retries = v; return *this; }
  PipelineConfig& with_shards(int v) { shards = v; return *this; }
  PipelineConfig& with_telemetry(v6::obs::Telemetry* v) { telemetry = v; return *this; }
  PipelineConfig& with_trace_probes(bool v) { trace_probes = v; return *this; }
  PipelineConfig& with_probe_timeout(double seconds) { probe_timeout_s = seconds; return *this; }
  PipelineConfig& with_retry_backoff(double base_s, double jitter = 0.0) {
    retry_backoff_s = base_s;
    retry_jitter = jitter;
    return *this;
  }
  PipelineConfig& with_adaptive_backoff(int threshold, double wait_s) {
    adaptive_threshold = threshold;
    adaptive_backoff_s = wait_s;
    return *this;
  }

  /// The options every scan of this config runs with (ScanRig's
  /// engines): `scan_retries` as max_retries, the seed, the telemetry
  /// and the robust-scanner knobs; max_pps is ScanOptions' 10K pps.
  v6::probe::ScanOptions scan_options() const;

  /// Bounds-checks every field through the shared check/validate.h
  /// path; throws check::ConfigError with a uniform
  /// "PipelineConfig.<field>: <constraint>" message, or, for the scan
  /// fields, scan_options().validate()'s "ScanOptions.<field>: …" one.
  /// Called by run_tga, run_combined and ScanSession::sweep, so an
  /// invalid config fails identically whichever entry point sees it
  /// first.
  void validate() const;
};

/// Runs one generator against one seed dataset on one probe type.
/// `offline_aliases` is the published alias list used for output
/// dealiasing (and for the joint mode's offline half).
v6::metrics::ScanOutcome run_tga(const v6::simnet::Universe& universe,
                                 v6::tga::TargetGenerator& generator,
                                 std::span<const v6::net::Ipv6Addr> seeds,
                                 const v6::dealias::AliasList& offline_aliases,
                                 const PipelineConfig& config);

/// The same run with the generator borrowing `seeds` (prepare_shared),
/// so runs on one index share its membership table and space trees. A
/// tree is built inside the `pipeline.prepare` span of the first run
/// that asks for it. Outcomes equal the span overload's.
v6::metrics::ScanOutcome run_tga(const v6::simnet::Universe& universe,
                                 v6::tga::TargetGenerator& generator,
                                 const v6::tga::SeedIndex& seeds,
                                 const v6::dealias::AliasList& offline_aliases,
                                 const PipelineConfig& config);

}  // namespace v6::experiment
