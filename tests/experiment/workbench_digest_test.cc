// Pins the golden sweep's small Workbench (seed 404, 150 ASes, scale
// 0.12, dense /52; tests/golden/golden_sweep_test.cc) as three
// splitmix64 digests, one per layer of the fixture:
//   - the seed dataset: every address in seeds() order with its source
//     mask;
//   - the activity table: each seed's activity() mask, in the same order;
//   - all_active(): the joint-dealiased, responsive seeds in order.
// The seed collection runs its sources on two lanes and merges them into
// flat tables; none of that may move a byte of the fixture. The golden
// sweep only sees all_active() through three TGAs, so this is what holds
// the order, the provenance bits and the per-type activity still.
//
// A digest moves only on an intentional behavior change; the failure
// message prints the new value to paste into the table.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>

#include "experiment/workbench.h"
#include "net/rng.h"

namespace v6::experiment {
namespace {

using v6::net::Ipv6Addr;
using v6::net::splitmix64;

constexpr std::size_t kPinnedSeeds = 125'647;
constexpr std::size_t kPinnedActive = 9'355;
constexpr std::uint64_t kPinnedSeedDigest = 0xc8866902cb1d7e47ULL;
constexpr std::uint64_t kPinnedActivityDigest = 0x6a438c423526e1c5ULL;
constexpr std::uint64_t kPinnedAllActiveDigest = 0x2ad2f9b575f67348ULL;

std::uint64_t fold(std::uint64_t digest, const Ipv6Addr& addr) {
  return splitmix64(splitmix64(digest ^ addr.hi()) ^ addr.lo());
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64 "ULL", v);
  return buf;
}

TEST(WorkbenchDigest, GoldenSweepFixtureIsPinned) {
  WorkbenchConfig config;
  config.seed = 404;
  config.universe.seed = 404;
  config.universe.num_ases = 150;
  config.universe.host_scale = 0.12;
  config.universe.dense_region_prefix_len = 52;
  Workbench bench(config);

  const v6::seeds::SeedDataset& seeds = bench.seeds();
  std::uint64_t seed_digest = splitmix64(seeds.size());
  std::uint64_t activity_digest = splitmix64(seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const Ipv6Addr& addr = seeds.addrs()[i];
    seed_digest = splitmix64(fold(seed_digest, addr) ^ seeds.sources_of(i));
    activity_digest = splitmix64(activity_digest ^ bench.activity().of(addr));
  }
  const auto& active = bench.all_active();
  std::uint64_t active_digest = splitmix64(active.size());
  for (const Ipv6Addr& addr : active) {
    active_digest = fold(active_digest, addr);
  }

  EXPECT_EQ(seeds.size(), kPinnedSeeds);
  EXPECT_EQ(active.size(), kPinnedActive);
  EXPECT_EQ(seed_digest, kPinnedSeedDigest)
      << "seeds() order or masks moved; new digest " << hex(seed_digest);
  EXPECT_EQ(activity_digest, kPinnedActivityDigest)
      << "activity() masks moved; new digest " << hex(activity_digest);
  EXPECT_EQ(active_digest, kPinnedAllActiveDigest)
      << "all_active() moved; new digest " << hex(active_digest);
}

}  // namespace
}  // namespace v6::experiment
