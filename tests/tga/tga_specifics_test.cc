// Generator-specific behaviour tests: the mechanisms that differentiate
// the TGAs from one another.
#include <gtest/gtest.h>

#include <unordered_set>

#include "tga/det.h"
#include "tga/entropy_ip.h"
#include "tga/six_forest.h"
#include "tga/six_gen.h"
#include "tga/six_sense.h"
#include "tga/six_tree.h"

namespace v6::tga {
namespace {

using v6::net::Ipv6Addr;

Ipv6Addr subnet_host(std::uint64_t subnet, std::uint64_t host) {
  return Ipv6Addr(0x2001000000000000ULL | (subnet << 16), host);
}

/// Seeds with a strong low-64 word pattern spread over many subnets.
std::vector<Ipv6Addr> word_pattern_seeds() {
  std::vector<Ipv6Addr> seeds;
  for (std::uint64_t subnet = 0; subnet < 60; ++subnet) {
    seeds.push_back(subnet_host(subnet, 0x53));
    seeds.push_back(subnet_host(subnet, 0x80));
  }
  // A few subnets where only one of the two words was observed.
  for (std::uint64_t subnet = 60; subnet < 80; ++subnet) {
    seeds.push_back(subnet_host(subnet, 0x53));
  }
  return seeds;
}

TEST(SixSenseSpecific, PatternPoolTransfersAcrossSubnets) {
  // 6Sense's shared lower-64 model must propose ::80 in the subnets that
  // only showed ::53 — cross-subnet pattern transfer.
  SixSense generator;
  generator.prepare(word_pattern_seeds(), 42);
  std::unordered_set<Ipv6Addr> produced;
  for (int round = 0; round < 20; ++round) {
    for (const Ipv6Addr& a : generator.next_batch(512)) produced.insert(a);
  }
  int transferred = 0;
  for (std::uint64_t subnet = 60; subnet < 80; ++subnet) {
    if (produced.contains(subnet_host(subnet, 0x80))) ++transferred;
  }
  EXPECT_GT(transferred, 10);
}

TEST(SixSenseSpecific, FeedbackRoutesPastSixtyFiveThousandRegions) {
  // One /32 holds 65,537 seeds in distinct /64s, each a singleton leaf
  // (density 0.5/16), and a two-seed leaf that differs in six low
  // nybbles: density sorts it last, at region 65,537, but its score of
  // 2/16 beats the singletons' 1/16, so it is drawn first. A second /32
  // holds one small subnet. Hits on the two-seed leaf must be credited to
  // its own /32, which then wins the next exploit slice; a region id
  // packed into 16 bits spills into the section id instead.
  constexpr std::uint64_t kFirst = 0x20010db800000000ULL;
  constexpr std::uint64_t kSecond = 0x20010db900000000ULL;
  constexpr std::uint64_t kPairNet = kFirst | 0xFFFFFFFFULL;
  std::vector<Ipv6Addr> seeds;
  // Every low 64 bits differ, so the shared-pattern pool stays empty.
  for (std::uint64_t i = 0; i < 65'537; ++i) {
    seeds.push_back(Ipv6Addr(kFirst | i, 0x1000 + i));
  }
  seeds.push_back(Ipv6Addr(kPairNet, 0x111111));
  seeds.push_back(Ipv6Addr(kPairNet, 0x222222));
  for (std::uint64_t host = 1; host <= 20; ++host) {
    seeds.push_back(Ipv6Addr(kSecond, host));
  }

  SixSense generator(SixSense::Options{.max_leaf_seeds = 2});
  generator.prepare(seeds, 42);
  std::size_t pair_hits = 0;
  for (const Ipv6Addr& addr : generator.next_batch(64)) {
    const bool active = addr.hi() == kPairNet;
    pair_hits += active ? 1 : 0;
    generator.observe(addr, active);
  }
  ASSERT_GT(pair_hits, 8u);  // the pair leaf was drawn past coverage

  std::size_t first = 0;
  std::size_t second = 0;
  for (const Ipv6Addr& addr : generator.next_batch(512)) {
    ++((addr.hi() & ~0xFFFFFFFFULL) == kFirst ? first : second);
  }
  EXPECT_GT(first, 10 * second) << first << " vs " << second;
}

TEST(SixTreeSpecific, DenseSubnetExpandedEarlyAndCompletely) {
  // One dense counter subnet and many far-away singleton subnets: the
  // dense subnet's gaps (hosts 49..255) must be proposed early, and the
  // very first batch must already touch it.
  std::vector<Ipv6Addr> seeds;
  for (std::uint64_t host = 1; host <= 48; ++host) {
    seeds.push_back(subnet_host(1, host));
  }
  for (std::uint64_t subnet = 100; subnet < 140; ++subnet) {
    seeds.push_back(subnet_host(subnet, 0xabcdef0123456789ULL + subnet));
  }
  SixTree generator;
  generator.prepare(seeds, 42);
  std::unordered_set<Ipv6Addr> produced;
  const auto first = generator.next_batch(64);
  std::size_t first_in_dense = 0;
  for (const Ipv6Addr& a : first) {
    produced.insert(a);
    if (a.hi() == subnet_host(1, 0).hi()) ++first_in_dense;
  }
  EXPECT_GT(first_in_dense, 0u);
  for (int round = 0; round < 16; ++round) {
    for (const Ipv6Addr& a : generator.next_batch(256)) produced.insert(a);
  }
  // The whole low byte of the dense subnet has been proposed.
  for (std::uint64_t host = 49; host <= 0xFF; ++host) {
    EXPECT_TRUE(produced.contains(subnet_host(1, host))) << host;
  }
}

TEST(SixGenSpecific, RangeHoleFilledFirst) {
  // A tight 3x3 range with one hole (0x33) plus a much sparser cluster:
  // 6Gen's density-ordered range enumeration must propose the hole
  // before anything from the sparse cluster.
  std::vector<Ipv6Addr> seeds;
  for (const std::uint64_t low :
       {0x11ULL, 0x12ULL, 0x13ULL, 0x21ULL, 0x22ULL, 0x23ULL, 0x31ULL,
        0x32ULL}) {
    seeds.push_back(subnet_host(2, low));
  }
  seeds.push_back(subnet_host(3, 0x1));
  seeds.push_back(subnet_host(3, 0xf00000));
  SixGen generator;
  generator.prepare(seeds, 42);
  const auto batch = generator.next_batch(1);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0], subnet_host(2, 0x33));
}

TEST(DetSpecific, ObservationsShiftBudget) {
  // Two identical-looking regions; only one produces hits. After
  // feedback, generation must concentrate there.
  std::vector<Ipv6Addr> seeds;
  for (std::uint64_t host = 1; host <= 16; ++host) {
    seeds.push_back(subnet_host(4, host));
    seeds.push_back(subnet_host(5, host));
  }
  Det generator;
  generator.prepare(seeds, 42);
  const std::uint64_t live = subnet_host(4, 0).hi();
  std::size_t live_late = 0;
  std::size_t dead_late = 0;
  for (int round = 0; round < 12; ++round) {
    const auto batch = generator.next_batch(128);
    for (const Ipv6Addr& a : batch) {
      generator.observe(a, a.hi() == live);
      if (round >= 6) {
        if (a.hi() == live) ++live_late;
        if (a.hi() == subnet_host(5, 0).hi()) ++dead_late;
      }
    }
  }
  EXPECT_GT(live_late, dead_late * 2);
}

TEST(EntropyIpSpecific, SegmentsFollowEntropyBoundaries) {
  // Constant prefix + uniformly random final nybble: EIP generates
  // addresses whose constant part is preserved.
  std::vector<Ipv6Addr> seeds;
  v6::net::Rng rng(3);
  for (int i = 0; i < 400; ++i) {
    seeds.push_back(subnet_host(7, rng() & 0xFF));
  }
  EntropyIp generator;
  generator.prepare(seeds, 42);
  const auto batch = generator.next_batch(100);
  ASSERT_FALSE(batch.empty());
  for (const Ipv6Addr& a : batch) {
    EXPECT_EQ(a.hi(), subnet_host(7, 0).hi()) << a.to_string();
    EXPECT_LE(a.lo(), 0xFFu) << a.to_string();
  }
}

TEST(SixForestSpecific, OutlierLeavesReceiveNoEarlyBudget) {
  // A dense counter subnet plus one extreme outlier seed: the outlier's
  // neighborhood must not appear in the first batches.
  std::vector<Ipv6Addr> seeds;
  for (std::uint64_t host = 1; host <= 64; ++host) {
    seeds.push_back(subnet_host(8, host));
  }
  const Ipv6Addr outlier(0x20FF000000000000ULL, 0xdeadbeefcafef00dULL);
  seeds.push_back(outlier);
  SixForest generator;
  generator.prepare(seeds, 42);
  const auto batch = generator.next_batch(256);
  for (const Ipv6Addr& a : batch) {
    EXPECT_NE(a.hi(), outlier.hi()) << a.to_string();
  }
}

TEST(SixForestSpecific, EnsembleCoversMoreThanSinglePartition) {
  // The forest's union of regions must include patterns from every
  // bootstrap partition (no partition is silently dropped).
  std::vector<Ipv6Addr> seeds;
  for (std::uint64_t subnet = 0; subnet < 16; ++subnet) {
    for (std::uint64_t host = 1; host <= 16; ++host) {
      seeds.push_back(subnet_host(subnet, host));
    }
  }
  SixForest generator;
  generator.prepare(seeds, 42);
  std::unordered_set<std::uint64_t> subnets_touched;
  for (int round = 0; round < 8; ++round) {
    for (const Ipv6Addr& a : generator.next_batch(512)) {
      subnets_touched.insert(a.hi());
    }
  }
  EXPECT_GE(subnets_touched.size(), 16u);
}

}  // namespace
}  // namespace v6::tga
