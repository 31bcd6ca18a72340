#include "net/rng.h"

#include <gtest/gtest.h>

#include <random>
#include <vector>

namespace v6::net {
namespace {

TEST(Rng, SplitMixIsDeterministic) {
  EXPECT_EQ(splitmix64(42), splitmix64(42));
  EXPECT_NE(splitmix64(42), splitmix64(43));
}

TEST(Rng, DerivedSeedsAreIndependentPerTag) {
  EXPECT_NE(derive_seed(1, 1), derive_seed(1, 2));
  EXPECT_NE(derive_seed(1, 1), derive_seed(2, 1));
  EXPECT_EQ(derive_seed(1, 1), derive_seed(1, 1));
}

TEST(Rng, MakeRngReproducible) {
  Rng a = make_rng(99, 5);
  Rng b = make_rng(99, 5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, UniformIntRespectsBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const int v = uniform_int(rng, 3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, Uniform01InRange) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    const double u = uniform01(rng);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(chance(rng, 0.0));
    EXPECT_TRUE(chance(rng, 1.0));
  }
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng rng(4);
  int heads = 0;
  constexpr int kTrials = 20'000;
  for (int i = 0; i < kTrials; ++i) {
    if (chance(rng, 0.3)) ++heads;
  }
  const double rate = static_cast<double>(heads) / kTrials;
  EXPECT_NEAR(rate, 0.3, 0.02);
}

class RandomInPrefixLengths : public ::testing::TestWithParam<int> {};

TEST_P(RandomInPrefixLengths, SampleStaysInPrefixAndVariesHostBits) {
  const int len = GetParam();
  Rng rng(50 + static_cast<std::uint64_t>(len));
  const Prefix p(Ipv6Addr(0x20010db800000000ULL, 0xabcdef0123456789ULL), len);
  Ipv6Addr first;
  bool varied = false;
  for (int i = 0; i < 64; ++i) {
    const Ipv6Addr sample = random_in_prefix(rng, p);
    EXPECT_TRUE(p.contains(sample));
    if (i == 0) {
      first = sample;
    } else if (sample != first) {
      varied = true;
    }
  }
  if (len < 120) {
    EXPECT_TRUE(varied) << "len=" << len;
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, RandomInPrefixLengths,
                         ::testing::Values(0, 1, 16, 32, 48, 63, 64, 65, 80,
                                           96, 112, 127, 128));

// LazyMt64 must be std::mt19937_64 draw for draw, across its handover
// from the lazily seeded first 156 draws to a real engine at draw 157.
std::vector<std::uint64_t> lazy_test_seeds() {
  std::vector<std::uint64_t> seeds = {0, 1, ~std::uint64_t{0}, 5489};
  for (std::uint64_t k = 0; k < 64; ++k) {
    seeds.push_back(derive_seed(42, k));
    seeds.push_back(derive_seed(k, 0x7124CE ^ splitmix64(k)));
  }
  return seeds;
}

TEST(LazyMt64, RawDrawsMatchTheStandardEngine) {
  // A digest of std::mt19937_64's own draws over the same seeds, so the
  // reference stream is pinned too.
  constexpr std::uint64_t kPinnedStreamDigest = 0x068b500d71c0429dULL;
  std::uint64_t digest = 0;
  for (const std::uint64_t seed : lazy_test_seeds()) {
    std::mt19937_64 reference(seed);
    LazyMt64 lazy(seed);
    for (int draw = 0; draw < 2000; ++draw) {
      const std::uint64_t want = reference();
      ASSERT_EQ(lazy(), want) << "seed " << seed << " draw " << draw;
      digest = splitmix64(digest ^ want);
    }
  }
  EXPECT_EQ(digest, kPinnedStreamDigest) << std::hex << digest;
}

TEST(LazyMt64, EveryDrawCountAroundTheHandover) {
  // Fresh engines stopped after n draws, for every n up to 160, then
  // one more draw: the draw after a stop must not depend on where the
  // engine stopped.
  for (const std::uint64_t seed : {std::uint64_t{0}, ~std::uint64_t{0},
                                   derive_seed(7, 3)}) {
    for (int n = 0; n <= 160; ++n) {
      std::mt19937_64 reference(seed);
      LazyMt64 lazy(seed);
      reference.discard(static_cast<unsigned long long>(n));
      for (int i = 0; i < n; ++i) lazy();
      ASSERT_EQ(lazy(), reference()) << "seed " << seed << " after " << n;
    }
  }
}

TEST(LazyMt64, DistributionsMatchTheStandardEngine) {
  for (const std::uint64_t seed : lazy_test_seeds()) {
    std::mt19937_64 reference(seed);
    LazyMt64 lazy(seed);
    for (int draw = 0; draw < 600; ++draw) {
      switch (draw % 4) {
        case 0:
          ASSERT_EQ(uniform_int(lazy, 1, 3), uniform_int(reference, 1, 3));
          break;
        case 1: {
          // A range just past 2^63 rejects about half the raw draws.
          const std::uint64_t hi = (1ULL << 63) + 5;
          ASSERT_EQ(uniform_int<std::uint64_t>(lazy, 0, hi),
                    uniform_int<std::uint64_t>(reference, 0, hi));
          break;
        }
        case 2:
          ASSERT_EQ(uniform01(lazy), uniform01(reference));
          break;
        default:
          ASSERT_EQ(chance(lazy, 0.85), chance(reference, 0.85));
      }
    }
  }
}

TEST(LazyMt64, TenThousandthDrawOfTheDefaultSeed) {
  // [rand.predef]: the 10000th draw of a default-constructed
  // mt19937_64 (seed 5489) is 9981545732273789042.
  LazyMt64 lazy(std::mt19937_64::default_seed);
  for (int i = 1; i < 10000; ++i) lazy();
  EXPECT_EQ(lazy(), 9981545732273789042ULL);
}

}  // namespace
}  // namespace v6::net
