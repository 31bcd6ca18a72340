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
// authoritative merged seed ledger they all train on, and routes each
// delta to the cheapest path each model supports:
//
//   - additions    → TargetGenerator::absorb_seeds() when the model can
//                    fold a delta in place (6Hit's tree recreation);
//                    otherwise a full prepare() from the ledger.
//   - removals     → always a full rebuild: no model here can unlearn
//                    an address, so every arm retrains from the
//                    filtered ledger.
//
// The generators share no state, so the per-arm prepare()/absorb_seeds()
// calls fan out across runtime::default_jobs() threads (`V6_JOBS`). The
// ledger is updated on the calling thread before the fan-out and is
// read-only during it; each pool thread touches only its own arm. Every
// generator sees the same call sequence with the same RNG seed at any
// thread count, so the roster's output is independent of `V6_JOBS`.
//
// The ingest statistics (incremental vs full) are what the service
// reports, so the cost of a churn stream is observable.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_set>
#include <vector>

#include "net/ipv6.h"
#include "tga/registry.h"
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
  IncrementalRoster(std::span<const v6::tga::TgaKind> kinds,
                    std::uint64_t seed);

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
  std::span<const v6::net::Ipv6Addr> seeds() const { return seeds_; }

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
  };

  std::vector<Arm> arms_;
  /// Authoritative merged seed list, insertion-ordered so rebuilds are
  /// reproducible; `seed_set_` guards against duplicates.
  std::vector<v6::net::Ipv6Addr> seeds_;
  std::unordered_set<v6::net::Ipv6Addr, v6::net::Ipv6AddrHash> seed_set_;
};

}  // namespace v6::service
