// Property tests for the sharded cyclic walk (probe/shard_walk.h):
// every shard split of every seeded plan visits each target index
// exactly once, cycle positions are shard-count-invariant, and sorting
// a shard merge by position reproduces the single-shard order.
#include "probe/shard_walk.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "net/rng.h"

namespace {

using v6::probe::ShardItem;
using v6::probe::ShardPlan;
using v6::probe::ShardWalk;

/// Collects one shard's full emission in order.
std::vector<ShardItem> collect(const ShardPlan& plan, std::uint64_t shard,
                               std::uint64_t num_shards) {
  std::vector<ShardItem> items;
  ShardWalk walk(plan, shard, num_shards);
  ShardItem item;
  while (walk.next(&item)) items.push_back(item);
  return items;
}

/// Merges every shard's emission and sorts by cycle position.
std::vector<ShardItem> merged_by_pos(const ShardPlan& plan,
                                     std::uint64_t num_shards) {
  std::vector<ShardItem> all;
  for (std::uint64_t s = 0; s < num_shards; ++s) {
    const std::vector<ShardItem> items = collect(plan, s, num_shards);
    all.insert(all.end(), items.begin(), items.end());
  }
  std::sort(all.begin(), all.end(),
            [](const ShardItem& a, const ShardItem& b) { return a.pos < b.pos; });
  return all;
}

TEST(ShardWalkTest, SingleShardIsAPermutation) {
  for (const std::uint64_t n : {1ull, 2ull, 3ull, 4ull, 5ull, 7ull, 8ull,
                                9ull, 100ull, 1000ull, 1023ull, 1025ull}) {
    const ShardPlan plan(n, /*seed=*/42);
    const std::vector<ShardItem> items = collect(plan, 0, 1);
    ASSERT_EQ(items.size(), n) << "n=" << n;
    std::vector<bool> seen(n, false);
    std::uint64_t last_pos = 0;
    bool first = true;
    for (const ShardItem& item : items) {
      ASSERT_LT(item.index, n);
      EXPECT_FALSE(seen[item.index]) << "index visited twice, n=" << n;
      seen[item.index] = true;
      if (!first) {
        EXPECT_GT(item.pos, last_pos) << "positions not increasing";
      }
      last_pos = item.pos;
      first = false;
    }
  }
}

TEST(ShardWalkTest, PropertyShardsPartitionEveryTargetExactlyOnce) {
  v6::net::Rng rng = v6::net::make_rng(/*seed=*/2024, /*tag=*/0x3A1D);
  for (int trial = 0; trial < 60; ++trial) {
    const std::uint64_t n =
        v6::net::uniform_int<std::uint64_t>(rng, 1, 3000);
    const std::uint64_t shards = v6::net::uniform_int<std::uint64_t>(rng, 1, 9);
    const std::uint64_t seed = rng();
    const ShardPlan plan(n, seed);
    std::vector<int> visits(n, 0);
    for (std::uint64_t s = 0; s < shards; ++s) {
      for (const ShardItem& item : collect(plan, s, shards)) {
        ASSERT_LT(item.index, n);
        ++visits[item.index];
      }
    }
    for (std::uint64_t i = 0; i < n; ++i) {
      ASSERT_EQ(visits[i], 1) << "n=" << n << " shards=" << shards
                              << " seed=" << seed << " index=" << i;
    }
  }
}

TEST(ShardWalkTest, PropertyPositionsAreShardCountInvariant) {
  v6::net::Rng rng = v6::net::make_rng(/*seed=*/2024, /*tag=*/0x3A1E);
  for (int trial = 0; trial < 25; ++trial) {
    const std::uint64_t n =
        v6::net::uniform_int<std::uint64_t>(rng, 1, 2000);
    const std::uint64_t seed = rng();
    const ShardPlan plan(n, seed);
    const std::vector<ShardItem> reference = collect(plan, 0, 1);
    for (const std::uint64_t shards : {2ull, 3ull, 5ull, 8ull}) {
      const std::vector<ShardItem> merged = merged_by_pos(plan, shards);
      ASSERT_EQ(merged.size(), reference.size())
          << "n=" << n << " shards=" << shards << " seed=" << seed;
      for (std::size_t i = 0; i < merged.size(); ++i) {
        ASSERT_EQ(merged[i].index, reference[i].index)
            << "n=" << n << " shards=" << shards << " seed=" << seed;
        ASSERT_EQ(merged[i].pos, reference[i].pos)
            << "n=" << n << " shards=" << shards << " seed=" << seed;
      }
    }
  }
}

TEST(ShardWalkTest, ShardsVisitDistinctCyclePositionsModuloStride) {
  const ShardPlan plan(/*n=*/500, /*seed=*/7);
  for (const std::uint64_t shards : {2ull, 4ull, 7ull}) {
    for (std::uint64_t s = 0; s < shards; ++s) {
      for (const ShardItem& item : collect(plan, s, shards)) {
        EXPECT_EQ(item.pos % shards, s);
      }
    }
  }
}

TEST(ShardWalkTest, PlanIsAPureFunctionOfSizeAndSeed) {
  const ShardPlan a(1000, 99);
  const ShardPlan b(1000, 99);
  EXPECT_EQ(a.multiplier(), b.multiplier());
  EXPECT_EQ(a.increment(), b.increment());
  EXPECT_EQ(a.start(), b.start());
  // Hull–Dobell for m = 2^k: c odd, a ≡ 1 (mod 4).
  EXPECT_EQ(a.increment() % 2, 1u);
  EXPECT_EQ(a.multiplier() % 4, 1u);
  const ShardPlan other_seed(1000, 100);
  EXPECT_FALSE(a.multiplier() == other_seed.multiplier() &&
               a.increment() == other_seed.increment() &&
               a.start() == other_seed.start());
}

TEST(ShardWalkTest, SeedChangesTheOrderButNotTheSet) {
  const std::uint64_t n = 257;
  const std::vector<ShardItem> walk_a = collect(ShardPlan(n, 1), 0, 1);
  const std::vector<ShardItem> walk_b = collect(ShardPlan(n, 2), 0, 1);
  ASSERT_EQ(walk_a.size(), n);
  ASSERT_EQ(walk_b.size(), n);
  bool any_difference = false;
  for (std::size_t i = 0; i < n; ++i) {
    if (walk_a[i].index != walk_b[i].index) {
      any_difference = true;
      break;
    }
  }
  EXPECT_TRUE(any_difference) << "different seeds produced identical orders";
}

}  // namespace
