// Versioned, immutable hitlist storage for the continuous scanning
// service (docs/SERVICE.md).
//
// The store is a sequence of epochs. Each HitlistEpoch is an immutable
// snapshot — a sorted, deduplicated run of addresses, a hash index over
// it and a fingerprint over its contents — and publication is
// copy-on-write: a refresh builds the next epoch off to the side
// (EpochBuilder), then swings one atomic head pointer. Readers never
// lock, never block, and never see a half-built epoch:
//
//   reader:  snapshot() = head_.load(acquire)  → an epoch frozen forever
//   writer:  begin_epoch() … publish_epoch()   → store + release the new head
//
// Published epochs are retained for the store's lifetime (append-only),
// so a snapshot reference stays valid however many refreshes land after
// it — that retention is what makes the reader path truly lock-free: no
// reference counting, no hazard pointers, no reclamation races. At
// `sos serve --cycles 6 --budget 40000 --feed 1` an epoch holds
// 58,067–92,959 addresses: 0.9–1.4 MiB of addresses plus a 0.5–1 MiB
// index. A service that refreshed every virtual hour for a year would
// retain ~8,760 epochs, 12–21 GiB at that size — the price of wait-free
// readers without reclamation.
//
// The only mutation spellings are begin_epoch()/publish_epoch(), and
// the v6lint `hitlist-mutation` rule confines them to src/service/
// (docs/STATIC_ANALYSIS.md): library code everywhere else can read
// snapshots but cannot grow the store.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "net/ipv6.h"
#include "net/rng.h"

namespace v6::service {

/// One immutable hitlist version. Never modified after publication;
/// only HitlistStore creates one.
class HitlistEpoch {
 public:
  /// Monotonic version, starting at 0 for the store's empty root epoch.
  std::uint64_t version = 0;
  /// Sorted ascending, deduplicated.
  std::vector<v6::net::Ipv6Addr> addrs;
  /// splitmix64 chain over (version, addrs), computed at publication.
  /// Readers (and the TSan snapshot-isolation test) can recompute it to
  /// prove the epoch they hold was never torn or mutated.
  std::uint64_t fingerprint = 0;

  /// Membership by one hash probe into the epoch's index — O(1)
  /// expected, no allocation. Answers as a binary search of `addrs`.
  bool contains(const v6::net::Ipv6Addr& addr) const;

  std::size_t size() const { return addrs.size(); }

 private:
  friend class HitlistStore;
  HitlistEpoch() = default;

  /// Membership index over `addrs`, built before publication: a
  /// power-of-two table at most 70% full, probed linearly from
  /// net::Ipv6AddrHash. A slot holds a position in `addrs` plus one, or
  /// 0 when empty, so each key is read from `addrs`, not stored twice.
  std::vector<std::uint32_t> slots_;
};

/// Recomputes the fingerprint chain for `version` + `addrs` (the same
/// function publish_epoch uses to stamp new epochs).
std::uint64_t epoch_fingerprint(std::uint64_t version,
                                std::span<const v6::net::Ipv6Addr> addrs);

class HitlistStore {
 public:
  /// Accumulates the next epoch's contents. Duplicates and ordering are
  /// irrelevant at add() time; publish_epoch sorts and dedups once.
  class EpochBuilder {
   public:
    void add(const v6::net::Ipv6Addr& addr) { addrs_.push_back(addr); }
    void add_all(std::span<const v6::net::Ipv6Addr> addrs) {
      addrs_.insert(addrs_.end(), addrs.begin(), addrs.end());
    }
    std::size_t pending() const { return addrs_.size(); }

   private:
    friend class HitlistStore;
    std::vector<v6::net::Ipv6Addr> addrs_;
  };

  /// Starts at version 0 with an empty published epoch, so snapshot()
  /// is valid from the first instant.
  HitlistStore();

  HitlistStore(const HitlistStore&) = delete;
  HitlistStore& operator=(const HitlistStore&) = delete;

  /// The current epoch. Wait-free (one acquire load); the returned
  /// reference is valid for the store's lifetime, across any number of
  /// later publications.
  const HitlistEpoch& snapshot() const {
    return *head_.load(std::memory_order_acquire);
  }

  /// Membership in the current epoch. Equivalent to
  /// snapshot().contains(addr) — one acquire load plus one hash probe.
  bool lookup(const v6::net::Ipv6Addr& addr) const {
    return snapshot().contains(addr);
  }

  /// Version of the current epoch.
  std::uint64_t version() const { return snapshot().version; }

  /// Number of epochs retained (== current version + 1).
  std::size_t epoch_count() const;

  /// Writer side: a fresh builder for the next epoch.
  EpochBuilder begin_epoch() const { return EpochBuilder{}; }

  /// Writer side: sorts, dedups, indexes, fingerprints, and publishes
  /// `builder`'s contents as the next epoch, returning it. Single
  /// release store makes the whole epoch visible to readers at once.
  /// Serializes concurrent writers behind a mutex the readers never
  /// touch.
  const HitlistEpoch& publish_epoch(EpochBuilder&& builder);

 private:
  std::atomic<const HitlistEpoch*> head_;
  /// Writer-only state: publication order and the append-only retention
  /// of every epoch ever published (see file comment for why).
  mutable std::mutex writer_mutex_;
  std::vector<std::unique_ptr<HitlistEpoch>> epochs_;
};

}  // namespace v6::service
