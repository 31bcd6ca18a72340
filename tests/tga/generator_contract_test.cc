// Contract tests every TGA must satisfy, parameterized over all eight
// generators (TEST_P): freshness (no repeats, no seeds), determinism,
// budget behaviour, and online feedback safety.
#include <gtest/gtest.h>

#include <unordered_set>

#include "net/rng.h"
#include "tga/registry.h"
#include "testutil/fixtures.h"

namespace v6::tga {
namespace {

using v6::net::Ipv6Addr;

std::vector<Ipv6Addr> sample_seeds(std::size_t n) {
  const auto hosts = v6::testutil::small_universe().hosts();
  std::vector<Ipv6Addr> seeds;
  const std::size_t stride = std::max<std::size_t>(1, hosts.size() / n);
  for (std::size_t i = 0; i < hosts.size() && seeds.size() < n; i += stride) {
    seeds.push_back(hosts[i].addr);
  }
  return seeds;
}

class GeneratorContract : public ::testing::TestWithParam<TgaKind> {
 protected:
  std::unique_ptr<TargetGenerator> make() {
    return make_generator(GetParam());
  }
};

TEST_P(GeneratorContract, NameMatchesRegistry) {
  EXPECT_EQ(make()->name(), to_string(GetParam()));
}

TEST_P(GeneratorContract, MakeByNameWorks) {
  const auto by_name = make_generator(to_string(GetParam()));
  ASSERT_NE(by_name, nullptr);
  EXPECT_EQ(by_name->name(), to_string(GetParam()));
}

TEST_P(GeneratorContract, GeneratesRequestedCount) {
  auto generator = make();
  generator->prepare(sample_seeds(2000), 42);
  const auto batch = generator->next_batch(500);
  EXPECT_EQ(batch.size(), 500u) << generator->name();
}

TEST_P(GeneratorContract, NeverRepeatsAcrossBatches) {
  auto generator = make();
  generator->prepare(sample_seeds(2000), 42);
  std::unordered_set<Ipv6Addr> seen;
  for (int round = 0; round < 10; ++round) {
    for (const Ipv6Addr& a : generator->next_batch(300)) {
      EXPECT_TRUE(seen.insert(a).second)
          << generator->name() << " repeated " << a.to_string();
    }
  }
}

TEST_P(GeneratorContract, NeverEmitsSeeds) {
  const auto seeds = sample_seeds(2000);
  const std::unordered_set<Ipv6Addr> seed_set(seeds.begin(), seeds.end());
  auto generator = make();
  generator->prepare(seeds, 42);
  for (int round = 0; round < 5; ++round) {
    for (const Ipv6Addr& a : generator->next_batch(400)) {
      EXPECT_FALSE(seed_set.contains(a))
          << generator->name() << " emitted seed " << a.to_string();
    }
  }
}

TEST_P(GeneratorContract, DeterministicForSameSeed) {
  const auto seeds = sample_seeds(1500);
  auto a = make();
  auto b = make();
  a->prepare(seeds, 7);
  b->prepare(seeds, 7);
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(a->next_batch(256), b->next_batch(256)) << a->name();
  }
}

TEST_P(GeneratorContract, PrepareResetsState) {
  const auto seeds = sample_seeds(1500);
  auto generator = make();
  generator->prepare(seeds, 7);
  const auto first = generator->next_batch(256);
  generator->next_batch(256);
  generator->prepare(seeds, 7);
  EXPECT_EQ(generator->next_batch(256), first) << generator->name();
}

TEST_P(GeneratorContract, EmptySeedsYieldNoTargets) {
  auto generator = make();
  generator->prepare({}, 42);
  EXPECT_TRUE(generator->next_batch(100).empty()) << generator->name();
}

TEST_P(GeneratorContract, SingleSeedStillGenerates) {
  auto generator = make();
  const std::vector<Ipv6Addr> one = {
      Ipv6Addr::must_parse("2001:db8:1:2::1")};
  generator->prepare(one, 42);
  const auto batch = generator->next_batch(10);
  EXPECT_FALSE(batch.empty()) << generator->name();
}

TEST_P(GeneratorContract, ObserveUnknownAddressIsSafe) {
  auto generator = make();
  generator->prepare(sample_seeds(500), 42);
  generator->observe(Ipv6Addr::must_parse("2001:db8::1"), true);
  generator->observe(Ipv6Addr::must_parse("2001:db8::2"), false);
  EXPECT_FALSE(generator->next_batch(64).empty());
}

TEST_P(GeneratorContract, ObserveFeedbackLoopRuns) {
  auto generator = make();
  generator->prepare(sample_seeds(2000), 42);
  const auto& universe = v6::testutil::small_universe();
  v6::net::Rng rng(5);
  std::size_t produced = 0;
  for (int round = 0; round < 8; ++round) {
    const auto batch = generator->next_batch(512);
    produced += batch.size();
    for (const Ipv6Addr& a : batch) {
      const bool active =
          universe.probe(a, v6::net::ProbeType::kIcmp, rng) ==
          v6::net::ProbeReply::kEchoReply;
      generator->observe(a, active);
    }
  }
  EXPECT_GT(produced, 3000u) << generator->name();
}

TEST_P(GeneratorContract, OnlineFlagConsistent) {
  // Table 1 of the paper: DET, 6Scan, 6Hit, and 6Sense adapt online;
  // the offline models (and the 6Forest extension) do not.
  const bool online = make()->is_online();
  switch (GetParam()) {
    case TgaKind::kDet:
    case TgaKind::kSixScan:
    case TgaKind::kSixHit:
    case TgaKind::kSixSense:
      EXPECT_TRUE(online);
      break;
    default:
      EXPECT_FALSE(online);
  }
}

std::vector<TgaKind> core_and_extension_tgas() {
  std::vector<TgaKind> kinds;
  kinds.reserve(kAllTgas.size() + kExtensionTgas.size());
  for (const TgaKind kind : kAllTgas) kinds.push_back(kind);
  for (const TgaKind kind : kExtensionTgas) kinds.push_back(kind);
  return kinds;
}

INSTANTIATE_TEST_SUITE_P(
    AllTgas, GeneratorContract,
    ::testing::ValuesIn(core_and_extension_tgas()),
    [](const auto& info) {
      std::string name{to_string(info.param)};
      std::erase_if(name, [](char c) { return !std::isalnum(c); });
      return name;
    });

TEST(Registry, UnknownNameReturnsNull) {
  EXPECT_EQ(make_generator("6Bogus"), nullptr);
}

TEST(Registry, AllKindsConstruct) {
  for (const TgaKind kind : kAllTgas) {
    EXPECT_NE(make_generator(kind), nullptr);
  }
}

}  // namespace
}  // namespace v6::tga
