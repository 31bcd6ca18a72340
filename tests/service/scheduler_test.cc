// Tests for the churn-aware scheduling layer
// (src/service/rescan_scheduler.h): rescan due-ness and eviction
// semantics of RescanScheduler, its equivalence with an ordered-map
// oracle over random call sequences, and the determinism contract of
// BanditAllocator — the allocation sequence is a pure function of
// (seed, reward history), shares always sum to the budget, and the
// explore floor is honored for every arm.
#include "service/rescan_scheduler.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "net/ipv6.h"
#include "net/rng.h"

namespace {

using v6::net::Ipv6Addr;
using v6::service::BanditAllocator;
using v6::service::RescanPolicy;
using v6::service::RescanScheduler;

Ipv6Addr addr(std::uint64_t lo) { return Ipv6Addr(0x2001'0db8ULL << 32, lo); }

TEST(RescanScheduler, TrackedAddressesAreDueImmediately) {
  RescanScheduler scheduler(RescanPolicy{});
  scheduler.track(addr(2));
  scheduler.track(addr(1));
  scheduler.track(addr(2));  // idempotent
  EXPECT_EQ(scheduler.tracked(), 2u);

  const std::vector<Ipv6Addr> due = scheduler.due(/*cycle=*/1);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(due[0], addr(1));  // sorted address order
  EXPECT_EQ(due[1], addr(2));
}

TEST(RescanScheduler, RescanIntervalGatesDueness) {
  RescanPolicy policy;
  policy.rescan_interval = 3;
  RescanScheduler scheduler(policy);
  scheduler.track(addr(1));

  scheduler.note_result(addr(1), /*responsive=*/true, /*cycle=*/1);
  EXPECT_TRUE(scheduler.due(2).empty());
  EXPECT_TRUE(scheduler.due(3).empty());
  EXPECT_EQ(scheduler.due(4).size(), 1u);  // 1 + interval
}

// `sos serve --interval -1` parses to UINT64_MAX: a probed address must
// then never come due again, rather than every cycle because
// last_probed + interval wrapped around.
TEST(RescanScheduler, HugeIntervalNeverWraps) {
  RescanPolicy policy;
  policy.rescan_interval = std::numeric_limits<std::uint64_t>::max();
  RescanScheduler scheduler(policy);
  scheduler.track(addr(1));
  scheduler.note_result(addr(1), /*responsive=*/true, /*cycle=*/1);
  scheduler.note_result(addr(2), /*responsive=*/false, /*cycle=*/5);
  for (const std::uint64_t cycle : {2ull, 3ull, 6ull, 1ull << 40}) {
    EXPECT_TRUE(scheduler.due(cycle).empty()) << "cycle " << cycle;
  }
  // Exactly a full interval after its probe, an address is due again.
  scheduler.note_result(addr(3), /*responsive=*/true, /*cycle=*/0);
  EXPECT_TRUE(scheduler.due(2).empty());
  EXPECT_EQ(scheduler.due(std::numeric_limits<std::uint64_t>::max()),
            std::vector<Ipv6Addr>{addr(3)});
}

TEST(RescanScheduler, ResponsiveSetTracksLatestResults) {
  RescanScheduler scheduler(RescanPolicy{});
  scheduler.note_result(addr(5), true, 1);  // discovery path auto-tracks
  scheduler.note_result(addr(6), true, 1);
  ASSERT_EQ(scheduler.responsive().size(), 2u);

  scheduler.note_result(addr(5), false, 2);
  const std::vector<Ipv6Addr> responsive = scheduler.responsive();
  ASSERT_EQ(responsive.size(), 1u);
  EXPECT_EQ(responsive[0], addr(6));
}

TEST(RescanScheduler, EvictsAfterMaxMissStreak) {
  RescanPolicy policy;
  policy.max_miss_streak = 2;
  RescanScheduler scheduler(policy);
  scheduler.track(addr(1));   // never probed: must NOT be evicted
  scheduler.note_result(addr(2), true, 1);

  scheduler.note_result(addr(2), false, 2);
  EXPECT_EQ(scheduler.evict_churned(), 0u);  // streak 1 < 2

  scheduler.note_result(addr(2), false, 3);
  EXPECT_EQ(scheduler.evict_churned(), 1u);
  EXPECT_FALSE(scheduler.contains(addr(2)));
  EXPECT_TRUE(scheduler.contains(addr(1)));

  // A hit resets the streak: no eviction after recovering.
  scheduler.note_result(addr(3), false, 4);
  scheduler.note_result(addr(3), true, 5);
  scheduler.note_result(addr(3), false, 6);
  EXPECT_EQ(scheduler.evict_churned(), 0u);
}

// ---- Oracle: the scheduler as one ordered map ---------------------------

// The std::map scheduler the flat layout replaced, kept as a test-only
// oracle (with the same wrap-free interval test): every traversal of
// the map is sorted address order, so its outputs are the reference.
class MapRescanScheduler {
 public:
  explicit MapRescanScheduler(const RescanPolicy& policy) : policy_(policy) {}

  void track(const Ipv6Addr& a) { history_.try_emplace(a); }

  void note_result(const Ipv6Addr& a, bool responsive, std::uint64_t cycle) {
    History& h = history_[a];
    h.last_probed = cycle;
    h.probed_once = true;
    if (responsive) {
      h.miss_streak = 0;
      h.responsive = true;
    } else {
      ++h.miss_streak;
      h.responsive = false;
    }
  }

  std::vector<Ipv6Addr> due(std::uint64_t cycle) const {
    std::vector<Ipv6Addr> out;
    for (const auto& [a, h] : history_) {
      const bool waited = cycle >= h.last_probed &&
                          cycle - h.last_probed >= policy_.rescan_interval;
      if (!h.probed_once || waited) out.push_back(a);
    }
    return out;
  }

  std::vector<Ipv6Addr> responsive() const {
    std::vector<Ipv6Addr> out;
    for (const auto& [a, h] : history_) {
      if (h.responsive) out.push_back(a);
    }
    return out;
  }

  std::size_t evict_churned() {
    return std::erase_if(history_, [this](const auto& item) {
      const History& h = item.second;
      return h.probed_once && !h.responsive &&
             h.miss_streak >= policy_.max_miss_streak;
    });
  }

  std::size_t tracked() const { return history_.size(); }
  bool contains(const Ipv6Addr& a) const { return history_.contains(a); }

 private:
  struct History {
    std::uint64_t last_probed = 0;
    int miss_streak = 0;
    bool responsive = false;
    bool probed_once = false;
  };

  RescanPolicy policy_;
  std::map<Ipv6Addr, History> history_;
};

// Seeded random call sequences against both schedulers, compared after
// every call. The address space is small (40 addresses over three /64s)
// so addresses repeat, come back after eviction, and pile up in the
// flat scheduler's unsorted tail between evictions.
TEST(RescanScheduler, MatchesMapOracleOnRandomSequences) {
  constexpr std::uint64_t kSpace = 40;
  std::vector<Ipv6Addr> space;
  for (std::uint64_t k = 0; k < kSpace; ++k) {
    // Interleave the /64s so insertion order and address order differ.
    space.emplace_back((0x2001'0db8ULL << 32) | (k * 7 % 3), k * 11 % kSpace);
  }
  for (const std::uint64_t interval : {1ull, 2ull, 3ull}) {
    for (const int streak : {1, 2, 3}) {
      for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
        SCOPED_TRACE("interval " + std::to_string(interval) + " streak " +
                     std::to_string(streak) + " seed " +
                     std::to_string(seed));
        const RescanPolicy policy{.rescan_interval = interval,
                                  .max_miss_streak = streak};
        RescanScheduler flat(policy);
        MapRescanScheduler oracle(policy);
        v6::net::Rng rng = v6::net::make_rng(seed, /*tag=*/0x5C4ED);
        std::uint64_t cycle = 1;
        for (int step = 0; step < 3000; ++step) {
          const Ipv6Addr& a = space[rng() % kSpace];
          switch (rng() % 10) {
            case 0:
            case 1:
              flat.track(a);
              oracle.track(a);
              break;
            case 2:
            case 3:
            case 4:
            case 5: {
              const bool hit = v6::net::chance(rng, 0.4);
              flat.note_result(a, hit, cycle);
              oracle.note_result(a, hit, cycle);
              break;
            }
            case 6:
              ASSERT_EQ(flat.evict_churned(), oracle.evict_churned());
              break;
            case 7:
              // A cycle before some addresses' last probe.
              ASSERT_EQ(flat.due(cycle - 1), oracle.due(cycle - 1));
              break;
            default:
              ++cycle;
              break;
          }
          ASSERT_EQ(flat.tracked(), oracle.tracked()) << "step " << step;
          ASSERT_EQ(flat.contains(a), oracle.contains(a)) << "step " << step;
          ASSERT_EQ(flat.due(cycle), oracle.due(cycle)) << "step " << step;
          ASSERT_EQ(flat.responsive(), oracle.responsive())
              << "step " << step;
        }
      }
    }
  }
}

TEST(BanditAllocator, SharesAlwaysSumToTheBudget) {
  BanditAllocator bandit(/*arms=*/8, /*seed=*/42, /*explore_floor=*/0.1);
  for (const std::uint64_t budget : {1ull, 7ull, 100ull, 40'000ull}) {
    const std::vector<std::uint64_t> shares = bandit.allocate(budget);
    ASSERT_EQ(shares.size(), 8u);
    EXPECT_EQ(std::accumulate(shares.begin(), shares.end(), 0ull), budget);
  }
}

TEST(BanditAllocator, ExploreFloorGuaranteesEveryArmItsShare) {
  BanditAllocator bandit(/*arms=*/4, /*seed=*/42, /*explore_floor=*/0.2);
  // Make arm 0 look hopeless; the floor must still feed it.
  bandit.reward(0, /*probes=*/10'000, /*hits=*/0);
  bandit.reward(1, /*probes=*/10'000, /*hits=*/9'000);
  const std::vector<std::uint64_t> shares = bandit.allocate(1'000);
  for (const std::uint64_t share : shares) EXPECT_GE(share, 200u);
}

TEST(BanditAllocator, RewardsSteerTheRemainderTowardBetterArms) {
  BanditAllocator bandit(/*arms=*/2, /*seed=*/42, /*explore_floor=*/0.1);
  bandit.reward(0, 1'000, 900);
  bandit.reward(1, 1'000, 10);
  EXPECT_GT(bandit.score(0), bandit.score(1));
  const std::vector<std::uint64_t> shares = bandit.allocate(10'000);
  EXPECT_GT(shares[0], shares[1]);
}

// The determinism contract the service's bit-identity rests on: two
// allocators with the same seed, fed the same reward history, emit the
// same budget sequence — allocation after allocation.
TEST(BanditAllocator, BudgetSequenceIsDeterministicPerSeed) {
  BanditAllocator a(/*arms=*/8, /*seed=*/42, /*explore_floor=*/0.05);
  BanditAllocator b(/*arms=*/8, /*seed=*/42, /*explore_floor=*/0.05);

  std::uint64_t reward_state = 1;
  for (int cycle = 0; cycle < 50; ++cycle) {
    const std::vector<std::uint64_t> sa = a.allocate(40'000);
    const std::vector<std::uint64_t> sb = b.allocate(40'000);
    ASSERT_EQ(sa, sb) << "allocation diverged at cycle " << cycle;
    for (std::size_t arm = 0; arm < sa.size(); ++arm) {
      // A deterministic, arm-dependent pseudo-history.
      reward_state = reward_state * 6364136223846793005ull + 1442695040888963407ull;
      const std::uint64_t hits = reward_state % (sa[arm] + 1);
      a.reward(arm, sa[arm], hits);
      b.reward(arm, sb[arm], hits);
    }
  }
}

}  // namespace
