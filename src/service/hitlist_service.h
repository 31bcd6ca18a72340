// The continuous hitlist service (docs/SERVICE.md): a refresh loop on
// the virtual clock that keeps a versioned hitlist fresh against a
// churning universe, plus the query facade (`snapshot` / `lookup` /
// `stats`) that `sos serve` and bench_serve drive.
//
// One refresh cycle:
//
//   1. optionally age the universe (simnet churn model, seeded per
//      cycle) — the world the service is chasing;
//   2. rescan every tracked address whose interval is due, updating
//      per-address responsiveness history (RescanScheduler);
//   3. apportion the discovery budget across the TGAs by measured hit
//      ratio (BanditAllocator), run each generator's slice through the
//      streaming scan engine, and feed results back into the
//      generators, the scheduler, and the bandit;
//   4. evict addresses whose miss streak crossed the policy threshold;
//   5. publish the surviving responsive set as the next immutable
//      HitlistStore epoch.
//
// With a Telemetry attached, the steps run under the spans
// `service.refresh.{age,rescan,discover,evict,publish}`, ingest_seeds()
// under `service.ingest`, and the roster records one
// `service.retrain.<kind>` timer per arm and fan-out
// (docs/OBSERVABILITY.md).
//
// Everything is a pure function of (universe state, ServiceConfig):
// scan replies are stateless per (addr, attempt, seed), the scheduler
// iterates in sorted address order, the bandit is seeded, and the
// streaming engine is shard-count-invariant — so the epoch sequence is
// bit-identical across shard counts (ctest-asserted in
// tests/service/hitlist_service_test.cc).
//
// Threading contract: the constructor, refresh_once(), ingest_seeds()
// and stats() are writer-side and must be externally serialized (one
// refresh loop). Retraining fans the roster's generators out over
// runtime::default_jobs() threads (`V6_JOBS`); those threads write the
// per-arm counters that stats() reads, and have joined by the time the
// writer call returns. snapshot() and lookup() are safe from any thread
// concurrently with the writer — the store's epoch publication is the
// synchronization point.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/ipv6.h"
#include "net/service.h"
#include "obs/telemetry.h"
#include "service/hitlist_store.h"
#include "service/incremental_tga.h"
#include "service/rescan_scheduler.h"
#include "simnet/universe_builder.h"
#include "tga/registry.h"

namespace v6::obs {
class StallWatchdog;
}  // namespace v6::obs

namespace v6::service {

struct ServiceConfig {
  std::uint64_t seed = 42;
  /// Discovery probes per refresh cycle, split across the TGAs by the
  /// bandit (rescan probes are charged separately).
  std::uint64_t budget_per_cycle = 40'000;
  /// TGAs on the roster; empty means all eight.
  std::vector<v6::tga::TgaKind> kinds;
  v6::net::ProbeType type = v6::net::ProbeType::kIcmp;
  /// Streaming-engine shard count for the refresh scans (>= 1; the
  /// epoch sequence is invariant in this).
  int shards = 1;
  /// The refresh scans' rate; they retry a timeout once
  /// (ScanOptions::max_retries).
  double max_pps = 10'000.0;
  /// Per-TGA guaranteed share of the discovery budget, in
  /// [0, 1/num_tgas].
  double explore_floor = 0.10;
  RescanPolicy rescan;
  /// Age the universe one churn step before every cycle after the
  /// first (the service exists because hitlists decay; aging off gives
  /// a static world for equivalence tests).
  bool age_universe = false;
  v6::simnet::AgingConfig aging;
  /// Optional instrumentation (borrowed; may be null). `service.*`
  /// counters and gauges, never outcome-affecting.
  v6::obs::Telemetry* telemetry = nullptr;
  /// Optional liveness plane (borrowed; may be null): the refresh loop
  /// arms a `service.refresh` heartbeat beaten once per phase, and the
  /// watchdog is threaded into the cycle's streaming scanner so its
  /// `stream.scan` (one shard) or `stream.prober.<s>` (per shard)
  /// stages report too. Wall-side only — a watchdog never changes the
  /// epoch sequence (docs/OBSERVABILITY.md "Live introspection").
  v6::obs::StallWatchdog* watchdog = nullptr;

  ServiceConfig& with_seed(std::uint64_t v) { seed = v; return *this; }
  ServiceConfig& with_budget(std::uint64_t v) { budget_per_cycle = v; return *this; }
  ServiceConfig& with_kinds(std::span<const v6::tga::TgaKind> k) { kinds.assign(k.begin(), k.end()); return *this; }
  ServiceConfig& with_type(v6::net::ProbeType v) { type = v; return *this; }
  ServiceConfig& with_shards(int v) { shards = v; return *this; }
  ServiceConfig& with_max_pps(double v) { max_pps = v; return *this; }
  ServiceConfig& with_explore_floor(double v) { explore_floor = v; return *this; }
  ServiceConfig& with_rescan(const RescanPolicy& v) { rescan = v; return *this; }
  ServiceConfig& with_aging(const v6::simnet::AgingConfig& v) { age_universe = true; aging = v; return *this; }
  ServiceConfig& with_telemetry(v6::obs::Telemetry* v) { telemetry = v; return *this; }
  ServiceConfig& with_watchdog(v6::obs::StallWatchdog* v) { watchdog = v; return *this; }

  /// Shared check/validate.h path; throws check::ConfigError with a
  /// uniform "ServiceConfig.<field>: <constraint>" message.
  void validate() const;
};

/// Cumulative service counters, all derived from deterministic state.
struct ServiceStats {
  std::uint64_t cycles = 0;
  /// Probe targets submitted to the scan engine (rescans + discovery).
  std::uint64_t probes = 0;
  /// Responsive addresses first seen by a discovery scan.
  std::uint64_t discovered = 0;
  /// Rescan probes issued.
  std::uint64_t rescans = 0;
  /// Addresses evicted after max_miss_streak consecutive misses.
  std::uint64_t evicted = 0;
  /// Seed deltas folded incrementally vs full generator retrains,
  /// summed across the roster.
  std::uint64_t incremental_updates = 0;
  std::uint64_t full_rebuilds = 0;
  /// Virtual wire seconds consumed by refresh scans.
  double virtual_seconds = 0.0;
};

class HitlistService {
 public:
  /// Binds the service to `universe` (mutated only when aging is
  /// enabled) and trains every roster generator on `seeds`, in
  /// parallel across the roster. The seeds
  /// enter the rescan schedule immediately, so the first refresh
  /// classifies them.
  HitlistService(v6::simnet::Universe& universe,
                 std::span<const v6::net::Ipv6Addr> seeds,
                 ServiceConfig config);

  /// One refresh cycle (see file comment); returns the epoch it
  /// published. Writer-side: serialize externally.
  const HitlistEpoch& refresh_once();

  /// Applies a seed-update delta to every roster generator
  /// (incrementally where the model allows, in parallel across the
  /// roster) and schedules the added addresses for classification next
  /// cycle. Writer-side.
  void ingest_seeds(const SeedDelta& delta);

  /// Query facade — safe from any thread, concurrently with the
  /// refresh loop. lookup() is one acquire load plus one hash probe.
  const HitlistEpoch& snapshot() const { return store_.snapshot(); }
  bool lookup(const v6::net::Ipv6Addr& addr) const {
    return store_.lookup(addr);
  }
  /// Writer-side: reads counters the refresh loop and the retraining
  /// threads write, so call it between writer calls, not beside them.
  ServiceStats stats() const;

  const HitlistStore& store() const { return store_; }
  /// The roster in allocation order (bandit arm i == roster()[i]).
  std::span<const v6::tga::TgaKind> roster() const { return kinds_; }
  /// Last cycle's per-arm discovery shares (empty before the first
  /// refresh) — exposed for the determinism tests.
  std::span<const std::uint64_t> last_allocation() const {
    return last_allocation_;
  }

 private:
  v6::simnet::Universe* universe_;
  ServiceConfig config_;
  std::vector<v6::tga::TgaKind> kinds_;
  IncrementalRoster generators_;
  RescanScheduler scheduler_;
  BanditAllocator bandit_;
  HitlistStore store_;
  ServiceStats stats_;
  std::vector<std::uint64_t> last_allocation_;
};

}  // namespace v6::service
