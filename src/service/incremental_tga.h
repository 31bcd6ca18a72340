// Incremental retraining for the service's TGA roster (docs/SERVICE.md).
//
// The batch pipeline retrains a generator from scratch for every run:
// prepare(seeds) wipes the model, the emitted set, and the RNG. A
// continuous service cannot afford that — seed updates arrive as small
// deltas between refresh cycles, and a full retrain both wastes work
// and forgets which candidates were already emitted (so the service
// would re-probe them).
//
// IncrementalRoster owns every generator on the roster plus the one
// authoritative merged seed ledger they all train on — a tga::SeedIndex
// that every arm borrows, so the roster holds the seeds, their
// membership table and each space tree once — and routes each delta to
// the cheapest path each model supports:
//
//   - additions    → TargetGenerator::absorb_seeds() when the model can
//                    fold a delta in place (6Hit's tree recreation);
//                    otherwise a full prepare() from the ledger.
//   - removals     → always a full rebuild: no model here can unlearn
//                    an address, so every arm retrains from the
//                    filtered ledger.
//
// The generators share nothing but the ledger, so the per-arm
// prepare_shared()/absorb_seeds() calls fan out with
// runtime::parallel_for over runtime::default_jobs() threads
// (`V6_JOBS`). The ledger is updated on the calling thread between
// fan-outs, which drops its cached trees, and is read-only during one,
// apart from the trees it builds once on first request; each thread
// touches only its own arm. Every generator sees the same call sequence
// with the same RNG seed at any thread count, so the roster's output is
// independent of `V6_JOBS`.
//
// The fan-out claims the longest retrains first — 6Graph, then DET, then
// the rest in roster order — so the long pole starts at once instead of
// behind a queue of short arms. Claim order only decides which thread
// runs an arm when: arm i keeps kinds[i] and its RNG seed, and writes
// only its own slot, so no output depends on it.
//
// The ingest statistics (incremental vs full) are what the service
// reports, so the cost of a churn stream is observable. With a
// Telemetry attached, every fan-out also records one
// `service.retrain.<kind>` timer per arm (kind in lowercase): each
// thread times its own arm into the arm's slot, and the calling thread
// records the slots after the join, in roster order.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "net/ipv6.h"
#include "obs/telemetry.h"
#include "tga/registry.h"
#include "tga/seed_index.h"
#include "tga/target_generator.h"

namespace v6::service {

/// A seed-update delta between refresh cycles.
struct SeedDelta {
  std::vector<v6::net::Ipv6Addr> added;
  std::vector<v6::net::Ipv6Addr> removed;

  bool empty() const { return added.empty() && removed.empty(); }
};

class IncrementalRoster {
 public:
  /// One arm per entry of `kinds`, in order. Arm i forwards
  /// derive_seed(seed, 0x76A0 + i) to every prepare() call.
  /// `telemetry` (borrowed; may be null) receives the per-arm retrain
  /// timers.
  IncrementalRoster(std::span<const v6::tga::TgaKind> kinds,
                    std::uint64_t seed,
                    v6::obs::Telemetry* telemetry = nullptr);

  /// Full (re)train of every arm from `seeds`, replacing the ledger
  /// (first occurrence of each address kept). Resets the ingest
  /// statistics; counts as neither an incremental update nor a
  /// fallback rebuild.
  void prepare(std::span<const v6::net::Ipv6Addr> seeds);

  /// Applies one delta to the ledger, then to every arm. Additions
  /// already in the ledger (or listed earlier in the delta) and unknown
  /// removals are ignored; an effectively-empty delta touches nothing.
  void ingest(const SeedDelta& delta);

  v6::tga::TargetGenerator& generator(std::size_t arm) {
    return *arms_[arm].generator;
  }
  /// The merged seed ledger, in insertion order.
  std::span<const v6::net::Ipv6Addr> seeds() const { return ledger_.seeds(); }

  /// Arm-deltas the model folded in place via absorb_seeds(), summed
  /// over the roster.
  std::uint64_t incremental_updates() const;
  /// Arm-deltas that forced a full retrain (removals, or models without
  /// incremental support), summed over the roster.
  std::uint64_t full_rebuilds() const;

 private:
  struct Arm {
    std::unique_ptr<v6::tga::TargetGenerator> generator;
    std::uint64_t rng_seed = 0;
    std::uint64_t incremental_updates = 0;
    std::uint64_t full_rebuilds = 0;
    /// `service.retrain.<kind>`, and the last fan-out's time on this arm.
    std::string timer_name;
    double retrain_seconds = 0.0;
  };

  /// Runs `retrain(arm)` on every arm in parallel, longest first,
  /// then records the per-arm timers.
  template <typename Fn>
  void fan_out(Fn retrain);

  std::vector<Arm> arms_;
  /// Arm indices in fan-out claim order.
  std::vector<std::size_t> claim_order_;
  v6::obs::Telemetry* telemetry_ = nullptr;
  /// Authoritative merged seed ledger, insertion-ordered so rebuilds are
  /// reproducible and free of duplicates; every arm borrows it.
  v6::tga::SeedIndex ledger_;
};

}  // namespace v6::service
