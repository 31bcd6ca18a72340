#include <gtest/gtest.h>

#include <array>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <string_view>
#include <unordered_set>

#include "dns/domain_lists.h"
#include "dns/resolver.h"
#include "dns/zone_db.h"
#include "net/rng.h"
#include "simnet/universe_builder.h"
#include "testutil/fixtures.h"

namespace v6::dns {
namespace {

using v6::net::Ipv6Addr;
using v6::net::splitmix64;
using v6::testutil::small_universe;

std::uint64_t fold(std::uint64_t digest, const Ipv6Addr& addr) {
  return splitmix64(splitmix64(digest ^ addr.hi()) ^ addr.lo());
}

std::uint64_t fold(std::uint64_t digest, std::string_view bytes) {
  digest = splitmix64(digest ^ bytes.size());
  for (const char c : bytes) {
    digest = splitmix64(digest ^ static_cast<unsigned char>(c));
  }
  return digest;
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64 "ULL", v);
  return buf;
}

const ZoneDb& test_zone() {
  static const ZoneDb zone = ZoneDb::build(small_universe(), {.seed = 42});
  return zone;
}

TEST(ZoneDb, BuildsRecordsForNamedHosts) {
  const ZoneDb& zone = test_zone();
  EXPECT_GT(zone.size(), 1000u);
  for (const DomainRecord& record : zone.records()) {
    EXPECT_FALSE(record.name.empty());
    EXPECT_FALSE(record.aaaa.empty()) << record.name;
  }
}

TEST(ZoneDb, Deterministic) {
  const ZoneDb a = ZoneDb::build(small_universe(), {.seed = 7});
  const ZoneDb b = ZoneDb::build(small_universe(), {.seed = 7});
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.records()[i].name, b.records()[i].name);
    EXPECT_EQ(a.records()[i].aaaa, b.records()[i].aaaa);
  }
}

TEST(ZoneDb, FindByName) {
  const ZoneDb& zone = test_zone();
  const DomainRecord& first = zone.records()[0];
  const DomainRecord* found = zone.find(first.name);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->aaaa, first.aaaa);
  EXPECT_EQ(zone.find("definitely-not-a-name.example"), nullptr);
}

TEST(ZoneDb, RanksAreUniqueAndContiguous) {
  const ZoneDb& zone = test_zone();
  std::unordered_set<std::uint32_t> ranks;
  for (const std::uint32_t id : zone.ranked()) {
    const std::uint32_t rank = zone.records()[id].rank;
    EXPECT_GT(rank, 0u);
    EXPECT_TRUE(ranks.insert(rank).second);
  }
  EXPECT_FALSE(zone.ranked().empty());
}

TEST(ZoneDb, MostRecordsPointAtRealHosts) {
  const ZoneDb& zone = test_zone();
  std::size_t resolved_to_host = 0;
  std::size_t total = 0;
  for (const DomainRecord& record : zone.records()) {
    for (const Ipv6Addr& a : record.aaaa) {
      ++total;
      if (small_universe().host(a) != nullptr ||
          small_universe().is_aliased(a)) {
        ++resolved_to_host;
      }
    }
  }
  EXPECT_GT(static_cast<double>(resolved_to_host) /
                static_cast<double>(total),
            0.85);
}

TEST(Resolver, ResolvesZoneNames) {
  Resolver resolver(test_zone(), {.seed = 1, .timeout_prob = 0.0,
                                  .servfail_prob = 0.0, .no_aaaa_prob = 0.0});
  const DomainRecord& record = test_zone().records()[0];
  const Resolution r = resolver.resolve(record.name);
  EXPECT_EQ(r.rcode, RCode::kNoError);
  EXPECT_EQ(r.aaaa, record.aaaa);
}

TEST(Resolver, NxDomainForUnknownNames) {
  Resolver resolver(test_zone(), {.seed = 1, .timeout_prob = 0.0,
                                  .servfail_prob = 0.0});
  EXPECT_EQ(resolver.resolve("nope.example").rcode, RCode::kNxDomain);
  EXPECT_TRUE(resolver.resolve("nope.example").aaaa.empty());
}

TEST(Resolver, CachesByName) {
  Resolver resolver(test_zone(), {.seed = 1, .timeout_prob = 0.0,
                                  .servfail_prob = 0.0, .no_aaaa_prob = 0.0});
  const DomainRecord& record = test_zone().records()[0];
  resolver.resolve(record.name);
  const std::uint64_t packets = resolver.stats().packets;
  resolver.resolve(record.name);
  EXPECT_EQ(resolver.stats().packets, packets);
  EXPECT_EQ(resolver.stats().cache_hits, 1u);
}

TEST(Resolver, TransientFailuresNotCached) {
  Resolver resolver(test_zone(),
                    {.seed = 1, .timeout_prob = 1.0, .retries = 1});
  const DomainRecord& record = test_zone().records()[0];
  EXPECT_EQ(resolver.resolve(record.name).rcode, RCode::kTimeout);
  EXPECT_EQ(resolver.stats().cache_hits, 0u);
  resolver.resolve(record.name);
  EXPECT_EQ(resolver.stats().cache_hits, 0u);  // retried, not served cached
}

TEST(Resolver, BatchResolveFlattens) {
  Resolver resolver(test_zone(), {.seed = 1, .timeout_prob = 0.0,
                                  .servfail_prob = 0.0, .no_aaaa_prob = 0.0});
  std::vector<std::string> names = {test_zone().records()[0].name,
                                    "missing.example",
                                    test_zone().records()[1].name};
  const auto addrs = resolver.resolve_all(names);
  EXPECT_GE(addrs.size(), 2u);
  EXPECT_EQ(resolver.stats().queries, 3u);
  EXPECT_EQ(resolver.stats().nxdomain, 1u);
}

// A zone's digest: every record in id order (name, AAAA set, rank,
// ASN, dns_host), then ranked(). The ids are the order names pass the
// collision check, so an index that admits or drops one name moves it.
std::uint64_t zone_digest(const ZoneDb& zone) {
  std::uint64_t digest = splitmix64(zone.size());
  for (const DomainRecord& record : zone.records()) {
    digest = fold(digest, record.name);
    digest = splitmix64(digest ^ record.aaaa.size());
    for (const Ipv6Addr& addr : record.aaaa) digest = fold(digest, addr);
    digest = splitmix64(digest ^ (std::uint64_t{record.rank} << 33) ^
                        (std::uint64_t{record.asn} << 1) ^
                        (record.dns_host ? 1 : 0));
  }
  digest = splitmix64(digest ^ zone.ranked().size());
  for (const std::uint32_t id : zone.ranked()) {
    digest = splitmix64(digest ^ id);
  }
  return digest;
}

TEST(ZoneDb, BuildIsPinned) {
  constexpr std::size_t kPinnedRecords = 33'789;
  constexpr std::uint64_t kPinnedDigest = 0x30a9e3f1c7078519ULL;
  const ZoneDb& zone = test_zone();
  const std::uint64_t digest = zone_digest(zone);
  EXPECT_EQ(zone.size(), kPinnedRecords);
  EXPECT_EQ(digest, kPinnedDigest) << "zone moved; new digest " << hex(digest);
}

// small_universe() has fewer than 100,000 hosts, so make_name (host
// index mod 100,000) never repeats a name there. The Workbench-sized
// universe (2,000 ASes at scale 0.12, 401,386 hosts) does, so this pin
// holds the collision check itself.
TEST(ZoneDb, BuildWithNameCollisionsIsPinned) {
  constexpr std::size_t kPinnedRecords = 219'633;
  constexpr std::uint64_t kPinnedDigest = 0xd66b0d709403f5b9ULL;
  v6::simnet::UniverseConfig config;
  config.seed = 42;
  config.num_ases = 2000;
  config.host_scale = 0.12;
  config.dense_region_prefix_len = 48;
  const ZoneDb zone = ZoneDb::build(
      v6::simnet::UniverseBuilder::build(config), {.seed = 42});
  const std::uint64_t digest = zone_digest(zone);
  EXPECT_EQ(zone.size(), kPinnedRecords);
  EXPECT_EQ(digest, kPinnedDigest) << "zone moved; new digest " << hex(digest);
}

// Pins each domain feed's resolution: make_domain_list at seed 42, then
// resolve_all twice on one resolver (the second pass answers from the
// cache, except for names that timed out), digesting both address lists
// and the ResolveStats after each pass.
TEST(Resolver, DomainFeedResolutionIsPinned) {
  constexpr std::array<DomainListKind, 8> kKinds = {
      DomainListKind::kCensysCt, DomainListKind::kRapid7Fdns,
      DomainListKind::kUmbrella, DomainListKind::kMajestic,
      DomainListKind::kTranco,   DomainListKind::kSecrank,
      DomainListKind::kRadar,    DomainListKind::kCaidaDns};
  constexpr std::array<std::uint64_t, 8> kPinned = {
      0x60888908fb3455a3ULL, 0x7f2a290c4eb5628fULL, 0x1199b3c721bc0104ULL,
      0x290d423b53e54077ULL, 0xe16462749acc3ca1ULL, 0x9f2bdb7222fbf6ecULL,
      0xc42165e9d9ab9b78ULL, 0x82ab246b750a75cfULL};
  for (std::size_t k = 0; k < kKinds.size(); ++k) {
    const auto names =
        make_domain_list(test_zone(), small_universe(), kKinds[k], 42);
    Resolver resolver(test_zone(), {.seed = v6::net::derive_seed(42, k)});
    std::uint64_t digest = splitmix64(names.size());
    for (int pass = 0; pass < 2; ++pass) {
      const auto addrs = resolver.resolve_all(names);
      digest = splitmix64(digest ^ addrs.size());
      for (const Ipv6Addr& addr : addrs) digest = fold(digest, addr);
      const ResolveStats& s = resolver.stats();
      for (const std::uint64_t v :
           {s.queries, s.packets, s.cache_hits, s.noerror, s.nxdomain,
            s.no_aaaa, s.failed, s.addresses}) {
        digest = splitmix64(digest ^ v);
      }
    }
    EXPECT_EQ(digest, kPinned[k])
        << "feed " << k << " moved; new digest " << hex(digest);
  }
}

class DomainListPerKind : public ::testing::TestWithParam<DomainListKind> {};

TEST_P(DomainListPerKind, ProducesDeterministicNonEmptyList) {
  const auto a =
      make_domain_list(test_zone(), small_universe(), GetParam(), 42);
  const auto b =
      make_domain_list(test_zone(), small_universe(), GetParam(), 42);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, DomainListPerKind,
    ::testing::Values(DomainListKind::kCensysCt, DomainListKind::kRapid7Fdns,
                      DomainListKind::kUmbrella, DomainListKind::kMajestic,
                      DomainListKind::kTranco, DomainListKind::kSecrank,
                      DomainListKind::kRadar, DomainListKind::kCaidaDns));

TEST(DomainList, ToplistRespectsTopN) {
  const auto list = make_domain_list(test_zone(), small_universe(),
                                     DomainListKind::kMajestic, 42);
  const auto profile = default_domain_profile(DomainListKind::kMajestic);
  // top_n plus the dead-name tail.
  EXPECT_LE(list.size(),
            static_cast<std::size_t>(
                static_cast<double>(profile.top_n) *
                (1.0 + profile.dead_name_fraction) + 2));
}

TEST(DomainList, BreadthFeedIsLargerThanToplists) {
  const auto censys = make_domain_list(test_zone(), small_universe(),
                                       DomainListKind::kCensysCt, 42);
  const auto majestic = make_domain_list(test_zone(), small_universe(),
                                         DomainListKind::kMajestic, 42);
  EXPECT_GT(censys.size(), majestic.size() * 3);
}

TEST(DomainList, DeadNamesResolveNxDomain) {
  const auto list = make_domain_list(test_zone(), small_universe(),
                                     DomainListKind::kRapid7Fdns, 42);
  Resolver resolver(test_zone(), {.seed = 2, .timeout_prob = 0.0,
                                  .servfail_prob = 0.0});
  resolver.resolve_all(list);
  EXPECT_GT(resolver.stats().nxdomain, list.size() / 10)
      << "the archival feed should contain many dead names";
}

}  // namespace
}  // namespace v6::dns
