// Exactness oracle for SpaceTree's build. The tree partitions one index
// buffer in place and takes split statistics from varying-nybble masks;
// this file keeps a test-only copy of the recursive build it replaced —
// sixteen index vectors per node, and split rules over full NybbleStats
// histograms (pinned by the NybbleStats tests) — and asserts that both
// produce the same regions (base, free positions, seed count, bit-equal
// density) in the same order, and the same node count.
//
// The inputs exercise what the build must preserve: the stride sample on
// nodes over 4,096 seeds (its split decisions, and the exact varying set
// of a sampled node that becomes a leaf), the ascending seed order inside
// every node (a leaf's base is its lowest-index seed, which shows when
// max_free drops varying positions), and duplicate seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "net/rng.h"
#include "tga/nybble_stats.h"
#include "tga/space_tree.h"
#include "testutil/fixtures.h"

namespace v6::tga {
namespace {

using v6::net::Ipv6Addr;

// ---- Oracle: the recursive vector-per-bucket build ----------------------

/// Positions with more than one observed value, left to right.
std::vector<int> varying_positions(const NybbleStats& stats) {
  std::vector<int> out;
  for (int i = 0; i < Ipv6Addr::kNybbles; ++i) {
    if (stats.at(i).distinct() > 1) out.push_back(i);
  }
  return out;
}

/// 6Tree's split rule: the leftmost varying position, or -1.
int leftmost_varying_position(const NybbleStats& stats) {
  const std::vector<int> varying = varying_positions(stats);
  return varying.empty() ? -1 : varying.front();
}

/// DET's split rule: the varying position of minimum entropy (leftmost
/// on ties), or -1.
int min_entropy_position(const NybbleStats& stats) {
  int best = -1;
  for (const int i : varying_positions(stats)) {
    if (best < 0 || stats.at(i).entropy() < stats.at(best).entropy()) {
      best = i;
    }
  }
  return best;
}

class OracleTree {
 public:
  OracleTree(std::span<const Ipv6Addr> seeds, SpaceTree::Options options)
      : options_(options) {
    if (seeds.empty()) return;
    std::vector<std::uint32_t> all(seeds.size());
    for (std::uint32_t i = 0; i < seeds.size(); ++i) all[i] = i;
    build(seeds, std::move(all), 0);
    std::sort(regions_.begin(), regions_.end(),
              [](const TreeRegion& a, const TreeRegion& b) {
                if (a.density != b.density) return a.density > b.density;
                return a.base < b.base;
              });
  }

  const std::vector<TreeRegion>& regions() const { return regions_; }
  std::size_t node_count() const { return node_count_; }

 private:
  void build(std::span<const Ipv6Addr> seeds,
             std::vector<std::uint32_t> indices, int depth) {
    ++node_count_;
    constexpr std::size_t kSampleCap = 4096;
    const bool sampled = indices.size() > kSampleCap;
    NybbleStats stats;
    if (sampled) {
      const std::size_t stride = indices.size() / kSampleCap;
      for (std::size_t i = 0; i < indices.size(); i += stride) {
        stats.add(seeds[indices[i]]);
      }
    } else {
      for (const std::uint32_t i : indices) stats.add(seeds[i]);
    }
    const int split = options_.policy == SplitPolicy::kLeftmost
                          ? leftmost_varying_position(stats)
                          : min_entropy_position(stats);
    const bool make_leaf = split < 0 ||
                           indices.size() <= options_.max_leaf_seeds ||
                           depth >= Ipv6Addr::kNybbles;
    if (make_leaf) {
      if (sampled) {
        stats = NybbleStats();
        for (const std::uint32_t i : indices) stats.add(seeds[i]);
      }
      TreeRegion region;
      std::vector<int> varying = varying_positions(stats);
      if (static_cast<int>(varying.size()) > options_.max_free) {
        varying.erase(varying.begin(), varying.end() - options_.max_free);
      }
      if (varying.empty()) varying.push_back(Ipv6Addr::kNybbles - 1);
      region.base = seeds[indices.front()];
      for (const int pos : varying) {
        region.base = region.base.with_nybble(pos, 0);
      }
      region.free = std::move(varying);
      region.seed_count = static_cast<std::uint32_t>(indices.size());
      region.density =
          (static_cast<double>(indices.size()) - 0.5) /
          std::pow(16.0, static_cast<double>(region.free.size()));
      regions_.push_back(std::move(region));
      return;
    }
    std::array<std::vector<std::uint32_t>, 16> buckets;
    for (const std::uint32_t i : indices) {
      buckets[seeds[i].nybble(split)].push_back(i);
    }
    indices.clear();
    indices.shrink_to_fit();
    for (auto& bucket : buckets) {
      if (!bucket.empty()) build(seeds, std::move(bucket), depth + 1);
    }
  }

  SpaceTree::Options options_;
  std::vector<TreeRegion> regions_;
  std::size_t node_count_ = 0;
};

TEST(NybbleStats, VaryingPositionsDetected) {
  std::vector<Ipv6Addr> addrs;
  for (std::uint64_t i = 0; i < 16; ++i) {
    addrs.push_back(Ipv6Addr(0x2001000000000000ULL, i));
  }
  const NybbleStats stats(addrs);
  EXPECT_EQ(varying_positions(stats), std::vector<int>{31});
  EXPECT_EQ(leftmost_varying_position(stats), 31);
}

TEST(NybbleStats, MinEntropyPositionPrefersSkewedNybble) {
  std::vector<Ipv6Addr> addrs;
  // Nybble 31 uniform over 16 values; nybble 30 takes only two values.
  for (std::uint64_t i = 0; i < 64; ++i) {
    const std::uint64_t low = ((i % 2) << 4) | (i % 16);
    addrs.push_back(Ipv6Addr(0x2001000000000000ULL, low));
  }
  const NybbleStats stats(addrs);
  EXPECT_EQ(min_entropy_position(stats), 30);
  EXPECT_EQ(leftmost_varying_position(stats), 30);
}

TEST(NybbleStats, ConstantSetHasNoSplit) {
  const std::vector<Ipv6Addr> addrs(10,
                                    Ipv6Addr::must_parse("2001:db8::1"));
  const NybbleStats stats(addrs);
  EXPECT_TRUE(varying_positions(stats).empty());
  EXPECT_EQ(leftmost_varying_position(stats), -1);
  EXPECT_EQ(min_entropy_position(stats), -1);
}

// ---- Harness ------------------------------------------------------------

std::string describe(const SpaceTree::Options& o) {
  return std::string(o.policy == SplitPolicy::kLeftmost ? "leftmost"
                                                        : "min-entropy") +
         " max_leaf_seeds=" + std::to_string(o.max_leaf_seeds) +
         " max_free=" + std::to_string(o.max_free);
}

/// Builds both trees and asserts they are region-for-region identical.
/// Returns whether they are, so callers can stop at the first mismatch.
bool expect_same_tree(std::span<const Ipv6Addr> seeds,
                     const SpaceTree::Options& options,
                     const std::string& what) {
  const SpaceTree tree(seeds, options);
  const OracleTree oracle(seeds, options);
  const std::string where = what + " [" + describe(options) + "]";
  EXPECT_EQ(tree.node_count(), oracle.node_count()) << where;
  EXPECT_EQ(tree.regions().size(), oracle.regions().size()) << where;
  if (tree.node_count() != oracle.node_count() ||
      tree.regions().size() != oracle.regions().size()) {
    return false;
  }
  for (std::size_t i = 0; i < oracle.regions().size(); ++i) {
    const TreeRegion& got = tree.regions()[i];
    const TreeRegion& want = oracle.regions()[i];
    const bool same =
        got.base == want.base && got.free == want.free &&
        got.seed_count == want.seed_count &&
        std::bit_cast<std::uint64_t>(got.density) ==
            std::bit_cast<std::uint64_t>(want.density);
    EXPECT_TRUE(same) << where << " region " << i << ": base "
                      << got.base.to_string() << " vs "
                      << want.base.to_string() << ", free "
                      << got.free.size() << " vs " << want.free.size()
                      << ", seeds " << got.seed_count << " vs "
                      << want.seed_count;
    if (!same) return false;
  }
  return true;
}

/// Every option combination the equivalence is asserted over: both
/// policies; max_leaf_seeds 1 (split to singletons), 16 and 64 (the
/// generators' values) and 5000 (a node over 4,096 seeds is leaf-sized);
/// max_free 1 and 6 (varying positions dropped) and 32 (none dropped).
std::vector<SpaceTree::Options> all_options() {
  std::vector<SpaceTree::Options> out;
  for (const SplitPolicy policy :
       {SplitPolicy::kLeftmost, SplitPolicy::kMinEntropy}) {
    for (const std::uint32_t max_leaf : {1u, 16u, 64u, 5000u}) {
      for (const int max_free : {1, 6, 32}) {
        out.push_back({.policy = policy,
                       .max_leaf_seeds = max_leaf,
                       .max_free = max_free});
      }
    }
  }
  return out;
}

void expect_same_under_all_options(std::span<const Ipv6Addr> seeds,
                                   const std::string& what) {
  for (const SpaceTree::Options& options : all_options()) {
    if (!expect_same_tree(seeds, options, what)) return;
  }
}

std::vector<Ipv6Addr> universe_hosts() {
  std::vector<Ipv6Addr> out;
  for (const auto& host : v6::testutil::small_universe().hosts()) {
    out.push_back(host.addr);
  }
  return out;
}

// ---- Tests --------------------------------------------------------------

TEST(SpaceTreeEquivalence, UniverseHostsSampledAtTheRoot) {
  const std::vector<Ipv6Addr> seeds = universe_hosts();
  // Over 2 x 4,096 seeds, so the root's sample takes every second index
  // or sparser and its split comes from a strict subset of the node.
  ASSERT_GE(seeds.size(), 2 * 4096u);
  expect_same_under_all_options(seeds, "small_universe hosts");
}

TEST(SpaceTreeEquivalence, UniverseHostsInShuffledOrder) {
  // Seed order decides the stride sample and each leaf's base; a shuffle
  // gives both a different, unsorted input.
  std::vector<Ipv6Addr> seeds = universe_hosts();
  v6::net::Rng rng(21);
  for (std::size_t i = seeds.size(); i > 1; --i) {
    std::swap(seeds[i - 1], seeds[rng() % i]);
  }
  expect_same_under_all_options(seeds, "shuffled hosts");
}

TEST(SpaceTreeEquivalence, OneSlash32SectionsAs6SenseBuildsThem) {
  // 6Sense builds one tree per /32, over that section's seeds in seed
  // order.
  std::map<std::uint64_t, std::vector<Ipv6Addr>> sections;
  for (const Ipv6Addr& seed : universe_hosts()) {
    sections[seed.hi() & ~0xFFFFFFFFULL].push_back(seed);
  }
  ASSERT_GT(sections.size(), 10u);
  for (const auto& [prefix, members] : sections) {
    const std::string what = "section " + Ipv6Addr(prefix, 0).to_string();
    for (const SpaceTree::Options& options : all_options()) {
      if (!expect_same_tree(members, options, what)) return;
    }
  }
}

TEST(SpaceTreeEquivalence, DuplicateAndIdenticalSeeds) {
  const Ipv6Addr one = Ipv6Addr::must_parse("2001:db8::1");
  const std::vector<Ipv6Addr> identical(40, one);
  expect_same_under_all_options(identical, "40 identical seeds");
  const std::vector<Ipv6Addr> single{one};
  expect_same_under_all_options(single, "single seed");

  // 9,000 copies of one address: a sampled root that does not vary.
  const std::vector<Ipv6Addr> many(9000, one);
  expect_same_under_all_options(many, "9000 identical seeds");

  // 300 hosts over seven /64s, the whole list three times: every seed
  // has two duplicates, far apart in seed order.
  std::vector<Ipv6Addr> dup;
  for (int round = 0; round < 3; ++round) {
    for (std::uint64_t host = 0; host < 300; ++host) {
      dup.push_back(Ipv6Addr(0x20010db800000000ULL | (host % 7), host));
    }
  }
  expect_same_under_all_options(dup, "triplicated hosts");
}

TEST(SpaceTreeEquivalence, SampledNodeThatBecomesALeafUsesAllItsSeeds) {
  // 10,000 seeds, all equal except index 1, which differs at nybble 20.
  // The root samples every second index, so its sample never varies and
  // the root is a leaf — whose free position must be 20, from all seeds.
  const Ipv6Addr one = Ipv6Addr::must_parse("2001:db8:1:2::1");
  std::vector<Ipv6Addr> seeds(10'000, one);
  seeds[1] = one.with_nybble(20, 0xa);
  expect_same_under_all_options(seeds, "off-sample variation");
  const SpaceTree tree(seeds, {.max_leaf_seeds = 16});
  ASSERT_EQ(tree.regions().size(), 1u);
  EXPECT_EQ(tree.regions()[0].free, (std::vector<int>{20}));
  EXPECT_EQ(tree.node_count(), 1u);

  // The same off-sample variation one level down, under a varying root.
  std::vector<Ipv6Addr> nested = seeds;
  for (std::uint64_t i = 0; i < 9000; ++i) {
    nested.push_back(Ipv6Addr(0x20010db8ffff0000ULL | (i >> 4), i & 0xF));
  }
  expect_same_under_all_options(nested, "nested off-sample variation");
}

TEST(SpaceTreeEquivalence, MaxFreeDropsVaryingPositions) {
  // Random low 64 bits in a few /64s: every leaf varies in more than six
  // positions, so max_free keeps only the rightmost ones and the leaf's
  // base keeps its lowest-index seed's values at the dropped positions.
  v6::net::Rng rng(5);
  std::vector<Ipv6Addr> seeds;
  for (int i = 0; i < 6000; ++i) {
    seeds.push_back(Ipv6Addr(0x20010db800000000ULL | (rng() % 5), rng()));
  }
  expect_same_under_all_options(seeds, "random low 64");
  const SpaceTree tree(seeds, {.max_leaf_seeds = 5000, .max_free = 6});
  for (const TreeRegion& r : tree.regions()) EXPECT_EQ(r.free.size(), 6u);
}

TEST(SpaceTreeEquivalence, RandomAndStructuredSets) {
  v6::net::Rng rng(99);
  for (int trial = 0; trial < 24; ++trial) {
    const std::size_t n = 1 + rng() % 12'000;
    std::vector<Ipv6Addr> seeds;
    seeds.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      switch (trial % 3) {
        case 0:  // counter hosts in a handful of subnets
          seeds.push_back(Ipv6Addr(0x20010db800000000ULL | (rng() % 9),
                                   rng() % 600));
          break;
        case 1:  // sparse nybbles over a few /48s
          seeds.push_back(Ipv6Addr(
              0x2a00000000000000ULL | ((rng() % 4) << 16) | (rng() % 3),
              (rng() % 16) << (4 * (rng() % 16))));
          break;
        default:  // fully random, with an occasional repeat
          seeds.push_back(i > 0 && rng() % 8 == 0
                              ? seeds[rng() % i]
                              : Ipv6Addr(rng(), rng()));
          break;
      }
    }
    expect_same_under_all_options(seeds, "trial " + std::to_string(trial));
  }
}

}  // namespace
}  // namespace v6::tga
