// Churn-aware rescan scheduling and probe-budget allocation for the
// continuous service (docs/SERVICE.md).
//
// RescanScheduler keeps a per-address responsiveness history — last
// probed cycle, consecutive-miss streak, current state — and decides,
// each refresh cycle, which known addresses are due a rescan and which
// have churned out (miss streak past the eviction threshold).
//
// Layout: one flat vector of {address, history} entries plus a
// net::AddrIndex from address to position, so track(), note_result() and
// contains() are one table probe each. The index stores 8 bytes per slot
// and reads an address back from its entry, so no address is kept
// twice. The vector's prefix is sorted by address; its tail holds the
// addresses tracked or discovered since the last eviction, in insertion
// order. due() and responsive() are one pass over the vector: the
// prefix's matches come out sorted, the tail's are sorted and merged
// in. evict_churned() sorts the tail, merges it into the prefix, drops
// the churned entries and rebuilds the index, so after it the whole
// vector is sorted again.
//
// Determinism: addresses are unique, so sorted address order is a total
// order that does not depend on when an address arrived. Every output is
// in that order and every decision is a pure function of (history,
// policy, cycle): bit-identical across runs, jobs counts, and shard
// counts, and equal to the ordered-map scheduler this layout replaced
// (tests/service/scheduler_test.cc keeps it as an oracle).
//
// BanditAllocator reapportions the discovery budget across the TGAs by
// measured hit ratio — a deterministic explore-floor bandit. Every arm
// keeps a smoothed hit ratio (hits+1)/(probes+2) (Laplace, so unprobed
// arms start at 0.5 rather than 0); each cycle every arm is guaranteed
// `explore_floor` of the budget and the remainder is split
// proportionally to the smoothed ratios with largest-remainder
// rounding. Ties break by arm index and the one seeded RNG draw per
// allocation only rotates which tied arm gets the last leftover probe —
// the allocation sequence is reproducible from the seed alone.
#pragma once

#include <cstdint>
#include <vector>

#include "net/addr_index.h"
#include "net/ipv6.h"
#include "net/rng.h"

namespace v6::service {

/// Rescan/eviction policy knobs.
struct RescanPolicy {
  /// Cycles between rescans of a responsive address (1 = every cycle).
  std::uint64_t rescan_interval = 1;
  /// Consecutive missed rescans after which an address is evicted from
  /// the tracked set (hitlist-decay: stop paying for dead hosts).
  int max_miss_streak = 3;
};

class RescanScheduler {
 public:
  explicit RescanScheduler(const RescanPolicy& policy) : policy_(policy) {}

  /// Registers `addr` with unknown responsiveness; it becomes due on
  /// the next cycle. Idempotent for already-tracked addresses.
  void track(const v6::net::Ipv6Addr& addr);

  /// Records one probe result for a tracked address at `cycle`.
  /// Untracked addresses are added first (discovery path).
  void note_result(const v6::net::Ipv6Addr& addr, bool responsive,
                   std::uint64_t cycle);

  /// Addresses whose rescan is due at `cycle`, in sorted address order:
  /// never-probed ones, and probed ones at least `rescan_interval`
  /// cycles past their last probe.
  std::vector<v6::net::Ipv6Addr> due(std::uint64_t cycle) const;

  /// Currently-responsive addresses in sorted order — the contents of
  /// the next hitlist epoch.
  std::vector<v6::net::Ipv6Addr> responsive() const;

  /// Drops every address whose miss streak reached the policy's
  /// threshold; returns how many were evicted.
  std::size_t evict_churned();

  std::size_t tracked() const { return entries_.size(); }

  /// Whether `addr` already has a history entry.
  bool contains(const v6::net::Ipv6Addr& addr) const;

 private:
  struct History {
    std::uint64_t last_probed = 0;
    int miss_streak = 0;
    bool responsive = false;
    bool probed_once = false;
  };
  struct Entry {
    v6::net::Ipv6Addr addr;
    History history;
  };

  /// The history of `addr`, appended to the unsorted tail if new.
  History& entry(const v6::net::Ipv6Addr& addr);

  /// index_'s key accessor: the address of entries_[pos].
  auto entry_key() const {
    return [this](std::uint32_t pos) -> const v6::net::Ipv6Addr& {
      return entries_[pos].addr;
    };
  }

  /// The addresses of the entries matching `pred`, in sorted order.
  template <typename Pred>
  std::vector<v6::net::Ipv6Addr> sorted_matches(Pred pred) const;

  RescanPolicy policy_;
  /// [0, sorted_) sorted by address; [sorted_, size) in insertion order.
  std::vector<Entry> entries_;
  std::size_t sorted_ = 0;
  /// addr -> its position in entries_; evict_churned() rebuilds it.
  v6::net::AddrIndex index_;
};

class BanditAllocator {
 public:
  /// `arms` TGAs; `seed` drives the (single) tie-break draw per
  /// allocation; `explore_floor` is each arm's guaranteed budget share
  /// in [0, 1/arms].
  BanditAllocator(std::size_t arms, std::uint64_t seed, double explore_floor);

  /// Splits `budget` probes across the arms: floor shares first, the
  /// remainder proportional to smoothed hit ratios, largest-remainder
  /// rounding. The returned shares always sum to exactly `budget`.
  std::vector<std::uint64_t> allocate(std::uint64_t budget);

  /// Feeds one cycle's outcome for `arm` back into its ratio.
  void reward(std::size_t arm, std::uint64_t probes, std::uint64_t hits);

  /// The smoothed hit ratio (hits+1)/(probes+2) steering `arm`.
  double score(std::size_t arm) const;

  std::size_t arms() const { return stats_.size(); }

 private:
  struct ArmStats {
    std::uint64_t probes = 0;
    std::uint64_t hits = 0;
  };

  std::vector<ArmStats> stats_;
  double explore_floor_;
  v6::net::Rng rng_;
};

}  // namespace v6::service
