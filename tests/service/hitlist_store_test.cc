// Tests for the versioned hitlist store (src/service/hitlist_store.h):
// epoch lifecycle (sort/dedup/version/fingerprint at publication),
// the epoch's hash index against a binary search of its addresses,
// snapshot stability across later publications, and — the reason the
// suite carries the `concurrency` label — snapshot isolation under a
// live writer. The isolation test is the one to run under the tsan
// preset: readers continuously re-verify epoch fingerprints and query
// the index while the writer publishes, so any torn read or
// unsynchronized publication shows up as a data race or a mismatch.
#include "service/hitlist_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "net/ipv6.h"
#include "net/rng.h"
#include "runtime/worker_group.h"

namespace {

using v6::net::Ipv6Addr;
using v6::service::epoch_fingerprint;
using v6::service::HitlistEpoch;
using v6::service::HitlistStore;

Ipv6Addr addr(std::uint64_t lo) { return Ipv6Addr(0x2001'0db8ULL << 32, lo); }

TEST(HitlistStore, StartsWithValidEmptyRootEpoch) {
  HitlistStore store;
  const HitlistEpoch& root = store.snapshot();
  EXPECT_EQ(root.version, 0u);
  EXPECT_EQ(root.size(), 0u);
  EXPECT_EQ(root.fingerprint, epoch_fingerprint(0, root.addrs));
  EXPECT_EQ(store.version(), 0u);
  EXPECT_EQ(store.epoch_count(), 1u);
  EXPECT_FALSE(store.lookup(addr(1)));
}

TEST(HitlistStore, PublishSortsDedupsAndStampsTheEpoch) {
  HitlistStore store;
  HitlistStore::EpochBuilder builder = store.begin_epoch();
  builder.add(addr(30));
  builder.add(addr(10));
  builder.add(addr(20));
  builder.add(addr(10));  // duplicate
  EXPECT_EQ(builder.pending(), 4u);

  const HitlistEpoch& epoch = store.publish_epoch(std::move(builder));
  EXPECT_EQ(epoch.version, 1u);
  ASSERT_EQ(epoch.size(), 3u);
  EXPECT_EQ(epoch.addrs[0], addr(10));
  EXPECT_EQ(epoch.addrs[1], addr(20));
  EXPECT_EQ(epoch.addrs[2], addr(30));
  EXPECT_EQ(epoch.fingerprint, epoch_fingerprint(1, epoch.addrs));

  EXPECT_TRUE(epoch.contains(addr(20)));
  EXPECT_FALSE(epoch.contains(addr(25)));
  EXPECT_TRUE(store.lookup(addr(20)));
  EXPECT_EQ(store.epoch_count(), 2u);
}

/// `n` distinct addresses in two /64s, dense enough that lo ± 1 of a
/// member is often a member too.
std::vector<Ipv6Addr> random_epoch(std::size_t n, v6::net::Rng& rng) {
  std::set<Ipv6Addr> addrs;
  while (addrs.size() < n) {
    addrs.emplace((0x2001'0db8ULL << 32) | (rng() % 2), rng() % (8 * n));
  }
  return {addrs.begin(), addrs.end()};
}

// contains() answers as std::binary_search over the epoch's addresses.
// The sizes cover the smallest tables, both sides of the 16 → 32-slot
// step (11 and 12) and of the 2^17 → 2^18 step (91,750 and 91,751) at
// the 70% load limit, and a 100,000-address epoch. Absent probes sit
// next to members (lo ± 1, a scrambled interface identifier); against
// the 11-address epoch, random probes mostly start their run at a
// member's home slot.
TEST(HitlistStore, IndexedLookupMatchesBinarySearch) {
  v6::net::Rng rng = v6::net::make_rng(23, /*tag=*/0x1DE7);
  HitlistStore store;
  const HitlistEpoch& root = store.snapshot();
  for (const std::size_t n : {0u, 1u, 2u, 11u, 12u, 15u, 16u, 17u, 91'750u,
                              91'751u, 100'000u}) {
    HitlistStore::EpochBuilder builder = store.begin_epoch();
    builder.add_all(random_epoch(n, rng));
    const HitlistEpoch& epoch = store.publish_epoch(std::move(builder));
    ASSERT_EQ(epoch.size(), n);

    // The index answers as the binary search; the root answers false.
    const auto agrees = [&](const Ipv6Addr& probe) {
      return epoch.contains(probe) == std::binary_search(epoch.addrs.begin(),
                                                         epoch.addrs.end(),
                                                         probe) &&
             !root.contains(probe);
    };
    const auto at = [n](const Ipv6Addr& member) {
      return "n=" + std::to_string(n) + " " + member.to_string();
    };
    for (const Ipv6Addr& member : epoch.addrs) {
      ASSERT_TRUE(epoch.contains(member)) << at(member);
      ASSERT_FALSE(root.contains(member)) << at(member);
      ASSERT_TRUE(agrees(Ipv6Addr(member.hi(), member.lo() + 1)))
          << at(member);
      ASSERT_TRUE(agrees(Ipv6Addr(member.hi(), member.lo() - 1)))
          << at(member);
      ASSERT_TRUE(agrees(
          Ipv6Addr(member.hi(), member.lo() ^ (rng() | (1ULL << 63)))))
          << at(member);
    }
    if (n == 11) {
      for (int i = 0; i < 10'000; ++i) {
        ASSERT_TRUE(agrees(Ipv6Addr(rng(), rng())));
      }
    }
  }
}

TEST(HitlistStore, SnapshotReferencesSurviveLaterPublications) {
  HitlistStore store;
  HitlistStore::EpochBuilder first = store.begin_epoch();
  first.add(addr(1));
  const HitlistEpoch& v1 = store.publish_epoch(std::move(first));

  for (std::uint64_t lo = 2; lo <= 50; ++lo) {
    HitlistStore::EpochBuilder next = store.begin_epoch();
    next.add(addr(lo));
    store.publish_epoch(std::move(next));
  }

  // The old reference is still intact and verifiable.
  EXPECT_EQ(v1.version, 1u);
  ASSERT_EQ(v1.size(), 1u);
  EXPECT_EQ(v1.addrs[0], addr(1));
  EXPECT_EQ(v1.fingerprint, epoch_fingerprint(1, v1.addrs));

  EXPECT_EQ(store.version(), 50u);
  EXPECT_EQ(store.epoch_count(), 51u);
}

TEST(HitlistStore, FingerprintDependsOnVersionAndContents) {
  const std::vector<Ipv6Addr> addrs{addr(1), addr(2)};
  const std::vector<Ipv6Addr> other{addr(1), addr(3)};
  EXPECT_EQ(epoch_fingerprint(1, addrs), epoch_fingerprint(1, addrs));
  EXPECT_NE(epoch_fingerprint(1, addrs), epoch_fingerprint(2, addrs));
  EXPECT_NE(epoch_fingerprint(1, addrs), epoch_fingerprint(1, other));
}

// Snapshot isolation under a live writer (tsan target). Readers hold a
// snapshot, re-verify its fingerprint, and check version monotonicity
// while the writer publishes kEpochs new epochs of varying sizes. With
// the single release-store publication this is race-free; any weaker
// ordering or epoch mutation after publish is a torn fingerprint or a
// TSan report.
TEST(HitlistStore, SnapshotsAreIsolatedFromAConcurrentWriter) {
  constexpr std::uint64_t kEpochs = 200;
  constexpr int kReaders = 3;

  HitlistStore store;
  std::atomic<bool> done{false};
  v6::runtime::WorkerGroup workers;

  for (int r = 0; r < kReaders; ++r) {
    workers.spawn([&store, &done] {
      std::uint64_t last_version = 0;
      std::uint64_t observed = 0;
      while (!done.load(std::memory_order_acquire) || observed < 1) {
        const HitlistEpoch& snap = store.snapshot();
        ASSERT_EQ(snap.fingerprint,
                  epoch_fingerprint(snap.version, snap.addrs))
            << "torn epoch at version " << snap.version;
        ASSERT_GE(snap.version, last_version);
        // The epoch's contents must match what the writer publishes for
        // that version: lo values [0, version).
        ASSERT_EQ(snap.size(), snap.version);
        if (snap.version > 0) {
          ASSERT_TRUE(snap.contains(addr(snap.version - 1)));
        }
        ASSERT_FALSE(snap.contains(addr(snap.version)));
        last_version = snap.version;
        ++observed;
      }
    });
  }

  for (std::uint64_t v = 1; v <= kEpochs; ++v) {
    HitlistStore::EpochBuilder builder = store.begin_epoch();
    for (std::uint64_t lo = 0; lo < v; ++lo) builder.add(addr(lo));
    const HitlistEpoch& published = store.publish_epoch(std::move(builder));
    ASSERT_EQ(published.version, v);
  }
  done.store(true, std::memory_order_release);
  workers.join();

  EXPECT_EQ(store.version(), kEpochs);
  EXPECT_EQ(store.epoch_count(), kEpochs + 1);
}

}  // namespace
