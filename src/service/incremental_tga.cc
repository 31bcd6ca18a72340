#include "service/incremental_tga.h"

#include <algorithm>

#include "net/rng.h"
#include "runtime/thread_pool.h"

namespace v6::service {

using v6::net::Ipv6Addr;

IncrementalRoster::IncrementalRoster(std::span<const v6::tga::TgaKind> kinds,
                                     std::uint64_t seed) {
  arms_.reserve(kinds.size());
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    arms_.push_back({.generator = v6::tga::make_generator(kinds[i]),
                     .rng_seed = v6::net::derive_seed(seed, 0x76A0 + i)});
  }
}

void IncrementalRoster::prepare(std::span<const Ipv6Addr> seeds) {
  seeds_.clear();
  seed_set_.clear();
  for (const Ipv6Addr& addr : seeds) {
    if (seed_set_.insert(addr).second) seeds_.push_back(addr);
  }
  v6::runtime::parallel_for(0, arms_.size(), [this](std::size_t i) {
    Arm& arm = arms_[i];
    arm.generator->prepare(seeds_, arm.rng_seed);
    arm.incremental_updates = 0;
    arm.full_rebuilds = 0;
  });
}

void IncrementalRoster::ingest(const SeedDelta& delta) {
  // Removals first: they force every arm to rebuild anyway, so fresh
  // additions in the same delta ride along in the retrain.
  bool removed_any = false;
  for (const Ipv6Addr& addr : delta.removed) {
    if (seed_set_.erase(addr) > 0) removed_any = true;
  }
  if (removed_any) {
    std::erase_if(seeds_, [this](const Ipv6Addr& addr) {
      return !seed_set_.contains(addr);
    });
  }

  std::vector<Ipv6Addr> fresh;
  fresh.reserve(delta.added.size());
  for (const Ipv6Addr& addr : delta.added) {
    if (!seed_set_.insert(addr).second) continue;
    fresh.push_back(addr);
    seeds_.push_back(addr);
  }
  if (!removed_any && fresh.empty()) return;  // delta was a no-op

  // The ledger and `fresh` are read-only from here until the join.
  // Addition-only deltas fold in place where the model can (absorb_seeds
  // never reads the ledger); models cannot unlearn, so a removal
  // retrains every arm from the filtered ledger.
  v6::runtime::parallel_for(0, arms_.size(), [&](std::size_t i) {
    Arm& arm = arms_[i];
    if (!removed_any && arm.generator->absorb_seeds(fresh)) {
      ++arm.incremental_updates;
      return;
    }
    arm.generator->prepare(seeds_, arm.rng_seed);
    ++arm.full_rebuilds;
  });
}

std::uint64_t IncrementalRoster::incremental_updates() const {
  std::uint64_t total = 0;
  for (const Arm& arm : arms_) total += arm.incremental_updates;
  return total;
}

std::uint64_t IncrementalRoster::full_rebuilds() const {
  std::uint64_t total = 0;
  for (const Arm& arm : arms_) total += arm.full_rebuilds;
  return total;
}

}  // namespace v6::service
