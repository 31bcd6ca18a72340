#include "topo/traceroute.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>
#include <unordered_set>

#include "net/rng.h"
#include "testutil/fixtures.h"

namespace v6::topo {
namespace {

using v6::net::Ipv6Addr;
using v6::net::splitmix64;
using v6::testutil::small_universe;

std::uint64_t fold(std::uint64_t digest, const Ipv6Addr& addr) {
  return splitmix64(splitmix64(digest ^ addr.hi()) ^ addr.lo());
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64 "ULL", v);
  return buf;
}

Ipv6Addr some_host_target() {
  return small_universe().hosts()[100].addr;
}

TEST(TracerouteEngine, TraceReachesDestinationAs) {
  TracerouteEngine engine(small_universe(), 42);
  const Ipv6Addr target = some_host_target();
  const auto dest_asn = small_universe().asn_of(target);
  ASSERT_TRUE(dest_asn.has_value());
  const auto path = engine.trace(target, {});
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.back().asn, *dest_asn);
  // TTLs strictly increase.
  for (std::size_t i = 1; i < path.size(); ++i) {
    EXPECT_GT(path[i].ttl, path[i - 1].ttl);
  }
}

TEST(TracerouteEngine, HopsAreRouterInterfaces) {
  TracerouteEngine engine(small_universe(), 42);
  const auto path = engine.trace(some_host_target(), {});
  for (const TraceHop& hop : path) {
    const auto* host = small_universe().host(hop.addr);
    ASSERT_NE(host, nullptr);
    EXPECT_EQ(host->kind, v6::simnet::HostKind::kRouter);
    EXPECT_EQ(host->asn, hop.asn);
  }
}

TEST(TracerouteEngine, UnroutedTargetYieldsNoPath) {
  TracerouteEngine engine(small_universe(), 42);
  EXPECT_TRUE(engine.trace(Ipv6Addr::must_parse("3001::1"), {}).empty());
}

TEST(TracerouteEngine, DeterministicPerTarget) {
  TracerouteEngine a(small_universe(), 42);
  TracerouteEngine b(small_universe(), 42);
  const Ipv6Addr target = some_host_target();
  const auto pa = a.trace(target, {});
  const auto pb = b.trace(target, {});
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].addr, pb[i].addr);
    EXPECT_EQ(pa[i].responded, pb[i].responded);
  }
}

TEST(TracerouteEngine, UpstreamsAreStableAndNotSelf) {
  TracerouteEngine engine(small_universe(), 42);
  for (const auto& info : small_universe().asdb().all()) {
    const auto& ups = engine.upstreams(info.asn);
    for (const std::uint32_t provider : ups) {
      EXPECT_NE(provider, info.asn);
    }
  }
}

TEST(TracerouteEngine, CampaignCoversManyAses) {
  TracerouteEngine engine(small_universe(), 42);
  const auto interfaces = engine.campaign(8000, {}, 1);
  EXPECT_GT(interfaces.size(), 100u);
  std::unordered_set<std::uint32_t> ases;
  std::unordered_set<Ipv6Addr> unique(interfaces.begin(), interfaces.end());
  EXPECT_EQ(unique.size(), interfaces.size()) << "campaign must dedupe";
  for (const Ipv6Addr& addr : interfaces) {
    const auto asn = small_universe().asn_of(addr);
    ASSERT_TRUE(asn.has_value());
    ases.insert(*asn);
  }
  // Traceroute campaigns should reach the majority of ASes.
  EXPECT_GT(ases.size(), small_universe().asdb().size() / 2);
}

TEST(TracerouteEngine, VantageBandsSeeDifferentInterfaces) {
  TracerouteEngine engine(small_universe(), 42);
  VantageProfile low{.band_lo = 0.0, .band_hi = 0.5};
  VantageProfile high{.band_lo = 0.5, .band_hi = 1.0};
  const auto a = engine.campaign(4000, low, 2);
  const auto b = engine.campaign(4000, high, 3);
  ASSERT_FALSE(a.empty());
  ASSERT_FALSE(b.empty());
  const std::unordered_set<Ipv6Addr> sa(a.begin(), a.end());
  std::size_t overlap = 0;
  for (const Ipv6Addr& addr : b) {
    if (sa.contains(addr)) ++overlap;
  }
  EXPECT_EQ(overlap, 0u) << "disjoint bands must see disjoint interfaces";
}

TEST(TracerouteEngine, HopResponseProbabilityFiltersHops) {
  TracerouteEngine engine(small_universe(), 42);
  VantageProfile silent{.hop_response_prob = 0.0};
  const auto interfaces = engine.campaign(500, silent, 4);
  EXPECT_TRUE(interfaces.empty());
}

// Pins the engine at seed 42 on small_universe(): every AS's upstreams
// (asdb order), the hop-by-hop trace toward the first 2,000 hosts, and
// the Scamper and RIPE Atlas campaigns as SeedCollector runs them
// (their vantage bands, campaign sizes and source tags).
TEST(TracerouteEngine, CampaignsArePinned) {
  constexpr std::uint64_t kPinnedUpstreams = 0x78c30c4fa5fef39fULL;
  constexpr std::uint64_t kPinnedTraces = 0xfb1480684d9cd905ULL;
  constexpr std::uint64_t kPinnedScamper = 0xb466369b3df4b718ULL;
  constexpr std::uint64_t kPinnedRipeAtlas = 0xd6566a87a44ebe6cULL;
  const TracerouteEngine engine(small_universe(), 42);

  std::uint64_t upstreams = splitmix64(small_universe().asdb().size());
  for (const auto& info : small_universe().asdb().all()) {
    const auto& ups = engine.upstreams(info.asn);
    upstreams = splitmix64(upstreams ^ info.asn ^ (ups.size() << 32));
    for (const std::uint32_t provider : ups) {
      upstreams = splitmix64(upstreams ^ provider);
    }
  }

  std::uint64_t traces = 0;
  const auto hosts = small_universe().hosts();
  for (std::size_t i = 0; i < 2000 && i < hosts.size(); ++i) {
    const auto path = engine.trace(hosts[i].addr, {});
    traces = splitmix64(traces ^ path.size());
    for (const TraceHop& hop : path) {
      traces = fold(traces, hop.addr);
      traces = splitmix64(traces ^ hop.asn ^
                          (static_cast<std::uint64_t>(hop.ttl) << 32) ^
                          (hop.responded ? 1ULL << 40 : 0));
    }
  }

  const auto campaign_digest = [&](std::size_t targets,
                                   const VantageProfile& vantage,
                                   std::uint64_t tag) {
    const auto interfaces = engine.campaign(targets, vantage, tag);
    std::uint64_t digest = splitmix64(interfaces.size());
    for (const Ipv6Addr& addr : interfaces) digest = fold(digest, addr);
    return digest;
  };
  const std::uint64_t scamper =
      campaign_digest(40'000, {.band_lo = 0.0, .band_hi = 0.58}, 8);
  const std::uint64_t atlas =
      campaign_digest(30'000, {.band_lo = 0.47, .band_hi = 1.0}, 9);

  EXPECT_EQ(upstreams, kPinnedUpstreams) << "new digest " << hex(upstreams);
  EXPECT_EQ(traces, kPinnedTraces) << "new digest " << hex(traces);
  EXPECT_EQ(scamper, kPinnedScamper) << "new digest " << hex(scamper);
  EXPECT_EQ(atlas, kPinnedRipeAtlas) << "new digest " << hex(atlas);
}

}  // namespace
}  // namespace v6::topo
