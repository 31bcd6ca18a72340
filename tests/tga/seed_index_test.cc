// Tests for tga::SeedIndex (src/tga/seed_index.h): every tree it caches
// equals a direct SpaceTree build over the same seeds, equal options
// share one tree, threads that ask for trees at once build each tree
// once, and membership and trees follow the owner's changes. Runs under
// the tsan preset (label `concurrency`).
#include "tga/seed_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <latch>
#include <string>
#include <vector>

#include "runtime/worker_group.h"
#include "testutil/fixtures.h"

namespace v6::tga {
namespace {

using v6::net::Ipv6Addr;

constexpr SpaceTree::Options kLeftmost{.policy = SplitPolicy::kLeftmost};
constexpr SpaceTree::Options kMinEntropy{.policy = SplitPolicy::kMinEntropy};

/// Hosts [skip, skip + n) of the shared small universe.
std::vector<Ipv6Addr> universe_seeds(std::size_t skip, std::size_t n) {
  const auto hosts = v6::testutil::small_universe().hosts();
  std::vector<Ipv6Addr> seeds;
  for (std::size_t i = skip; i < hosts.size() && seeds.size() < n; ++i) {
    seeds.push_back(hosts[i].addr);
  }
  return seeds;
}

void expect_same_regions(const SpaceTree& got, const SpaceTree& want) {
  ASSERT_EQ(got.regions().size(), want.regions().size());
  for (std::size_t i = 0; i < want.regions().size(); ++i) {
    const TreeRegion& g = got.regions()[i];
    const TreeRegion& w = want.regions()[i];
    EXPECT_EQ(g.base, w.base) << "region " << i;
    EXPECT_EQ(g.free, w.free) << "region " << i;
    EXPECT_EQ(g.seed_count, w.seed_count) << "region " << i;
    EXPECT_EQ(g.density, w.density) << "region " << i;
  }
}

std::vector<Ipv6Addr> copy_of(std::span<const Ipv6Addr> seeds) {
  return {seeds.begin(), seeds.end()};
}

TEST(SeedIndex, TreesEqualDirectBuildsForBothPolicies) {
  const std::vector<Ipv6Addr> sample = universe_seeds(0, 3000);
  // Every third seed again, interleaved: duplicates count toward leaves.
  std::vector<Ipv6Addr> duplicated;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    duplicated.push_back(sample[i]);
    if (i % 3 == 0) duplicated.push_back(sample[i / 2]);
  }
  const std::vector<Ipv6Addr> identical(40, sample[7]);
  const std::vector<std::vector<Ipv6Addr>> sets = {
      sample, duplicated, identical, {sample[1]}, {}};
  const SpaceTree::Options small_leaves{
      .policy = SplitPolicy::kMinEntropy, .max_leaf_seeds = 2, .max_free = 1};
  for (std::size_t s = 0; s < sets.size(); ++s) {
    SCOPED_TRACE("seed set " + std::to_string(s));
    const std::vector<Ipv6Addr>& seeds = sets[s];
    const SeedIndex borrowed(seeds);
    const SeedIndex owned(copy_of(seeds));
    for (const SpaceTree::Options& options :
         {kLeftmost, kMinEntropy, small_leaves}) {
      const SpaceTree direct(seeds, options);
      expect_same_regions(borrowed.tree(options), direct);
      expect_same_regions(owned.tree(options), direct);
    }
    for (const Ipv6Addr& seed : seeds) {
      EXPECT_TRUE(borrowed.contains(seed));
      EXPECT_TRUE(owned.contains(seed));
    }
  }
}

TEST(SeedIndex, BorrowsTheSpanWithoutCopying) {
  const std::vector<Ipv6Addr> seeds = universe_seeds(0, 500);
  const SeedIndex index(seeds);
  EXPECT_EQ(index.seeds().data(), seeds.data());
  EXPECT_EQ(index.seeds().size(), seeds.size());
  EXPECT_FALSE(index.contains(universe_seeds(500, 1).front()));
}

TEST(SeedIndex, EqualOptionsReturnOneTree) {
  const std::vector<Ipv6Addr> seeds = universe_seeds(0, 2000);
  const SeedIndex index(seeds);
  const SpaceTree& leftmost = index.tree(kLeftmost);
  EXPECT_EQ(&index.tree({.policy = SplitPolicy::kLeftmost,
                         .max_leaf_seeds = 16,
                         .max_free = 6}),
            &leftmost);
  EXPECT_EQ(index.builds(), 1u);
  EXPECT_NE(&index.tree(kMinEntropy), &leftmost);
  EXPECT_NE(&index.tree({.policy = SplitPolicy::kLeftmost, .max_free = 5}),
            &leftmost);
  EXPECT_EQ(&index.tree(kLeftmost), &leftmost);
  EXPECT_EQ(index.builds(), 3u);
}

TEST(SeedIndex, ConcurrentRequestsBuildEachTreeOnce) {
  const std::vector<Ipv6Addr> seeds = universe_seeds(0, 6000);
  const SeedIndex index(seeds);
  constexpr std::size_t kThreads = 4;
  std::array<const SpaceTree*, kThreads> leftmost{};
  std::array<const SpaceTree*, kThreads> min_entropy{};
  std::latch start(kThreads);
  v6::runtime::parallel_for(kThreads, kThreads, [&](std::size_t t) {
    start.arrive_and_wait();
    // Half the threads ask for the leftmost tree first, half last.
    if (t % 2 == 0) {
      leftmost[t] = &index.tree(kLeftmost);
      min_entropy[t] = &index.tree(kMinEntropy);
    } else {
      min_entropy[t] = &index.tree(kMinEntropy);
      leftmost[t] = &index.tree(kLeftmost);
    }
  });
  EXPECT_EQ(index.builds(), 2u);
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(leftmost[t], leftmost[0]);
    EXPECT_EQ(min_entropy[t], min_entropy[0]);
  }
  expect_same_regions(*leftmost[0], SpaceTree(seeds, kLeftmost));
  expect_same_regions(*min_entropy[0], SpaceTree(seeds, kMinEntropy));
}

TEST(SeedIndex, MembershipAndTreesFollowTheOwner) {
  const std::vector<Ipv6Addr> base = universe_seeds(0, 2000);
  const std::vector<Ipv6Addr> more = universe_seeds(2000, 300);
  SeedIndex index(base);
  index.tree(kLeftmost);

  // Known seeds change nothing, and the trees stay.
  EXPECT_EQ(index.add({base.begin(), base.begin() + 10}), 0u);
  EXPECT_EQ(index.builds(), 1u);
  EXPECT_EQ(index.seeds().data(), base.data());

  // New seeds are appended once each, in order, after a copy of the
  // borrowed span; the borrowed vector itself is untouched.
  std::vector<Ipv6Addr> added = {more[0], base[5], more[1], more[0]};
  added.insert(added.end(), more.begin() + 2, more.end());
  EXPECT_EQ(index.add(added), more.size());
  EXPECT_EQ(base.size(), 2000u);
  std::vector<Ipv6Addr> want = base;
  want.insert(want.end(), more.begin(), more.end());
  EXPECT_EQ(copy_of(index.seeds()), want);
  EXPECT_EQ(index.builds(), 0u);
  for (const Ipv6Addr& seed : more) EXPECT_TRUE(index.contains(seed));
  expect_same_regions(index.tree(kMinEntropy), SpaceTree(want, kMinEntropy));
  expect_same_regions(index.tree(kLeftmost), SpaceTree(want, kLeftmost));

  // Unknown removals change nothing; known ones leave the rest in order.
  EXPECT_FALSE(index.remove(universe_seeds(2300, 5)));
  EXPECT_EQ(index.builds(), 2u);
  const std::vector<Ipv6Addr> removed = {base[0], more[7], base[0], base[99]};
  EXPECT_TRUE(index.remove(removed));
  std::erase_if(want, [&removed](const Ipv6Addr& a) {
    return std::find(removed.begin(), removed.end(), a) != removed.end();
  });
  EXPECT_EQ(copy_of(index.seeds()), want);
  EXPECT_EQ(index.builds(), 0u);
  for (const Ipv6Addr& gone : removed) EXPECT_FALSE(index.contains(gone));
  for (const Ipv6Addr& kept : want) EXPECT_TRUE(index.contains(kept));
  expect_same_regions(index.tree(kLeftmost), SpaceTree(want, kLeftmost));

  // A removed seed can come back, at the end.
  EXPECT_EQ(index.add(std::vector<Ipv6Addr>{base[0]}), 1u);
  want.push_back(base[0]);
  EXPECT_EQ(copy_of(index.seeds()), want);
  expect_same_regions(index.tree(kLeftmost), SpaceTree(want, kLeftmost));

  index.clear();
  EXPECT_TRUE(index.seeds().empty());
  EXPECT_FALSE(index.contains(base[1]));
  EXPECT_TRUE(index.tree(kLeftmost).regions().empty());
}

}  // namespace
}  // namespace v6::tga
