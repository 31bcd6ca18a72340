#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/rng.h"
#include "probe/scanner.h"
#include "probe/transport.h"
#include "seeds/collector.h"
#include "seeds/overlap.h"
#include "seeds/preprocess.h"
#include "seeds/seed_dataset.h"
#include "testutil/fixtures.h"

namespace v6::seeds {
namespace {

using v6::net::Ipv6Addr;
using v6::net::ProbeType;
using v6::testutil::small_universe;

Ipv6Addr addr_n(std::uint64_t n) {
  return Ipv6Addr(0x20010db800000000ULL, n);
}

TEST(SeedDataset, AddTracksProvenance) {
  SeedDataset dataset;
  dataset.add(addr_n(1), SeedSource::kCensys);
  dataset.add(addr_n(1), SeedSource::kRapid7);
  dataset.add(addr_n(2), SeedSource::kScamper);

  EXPECT_EQ(dataset.size(), 2u);
  EXPECT_EQ(dataset.sources_of(addr_n(1)),
            source_bit(SeedSource::kCensys) | source_bit(SeedSource::kRapid7));
  EXPECT_EQ(dataset.sources_of(addr_n(2)), source_bit(SeedSource::kScamper));
  EXPECT_EQ(dataset.sources_of(addr_n(3)), 0u);
  EXPECT_TRUE(dataset.contains(addr_n(1)));
  EXPECT_FALSE(dataset.contains(addr_n(3)));
}

TEST(SeedDataset, AddIsIdempotentPerSource) {
  SeedDataset dataset;
  dataset.add(addr_n(1), SeedSource::kCensys);
  dataset.add(addr_n(1), SeedSource::kCensys);
  EXPECT_EQ(dataset.size(), 1u);
  EXPECT_EQ(dataset.count(SeedSource::kCensys), 1u);
}

TEST(SeedDataset, FromSourceSelectsByBit) {
  SeedDataset dataset;
  dataset.add(addr_n(1), SeedSource::kCensys);
  dataset.add(addr_n(2), SeedSource::kScamper);
  dataset.add(addr_n(3), SeedSource::kCensys);
  const auto censys = dataset.from_source(SeedSource::kCensys);
  EXPECT_EQ(censys.size(), 2u);
  EXPECT_EQ(dataset.count(SeedSource::kScamper), 1u);
}

/// A key from a 16k-address space spread over both halves of the
/// address, so 20k draws repeat often and grow the tables through
/// several rehashes.
Ipv6Addr random_key(v6::net::Rng& rng) {
  const std::uint64_t k = rng() % 16'384;
  return Ipv6Addr(0x20010db800000000ULL | (k % 61), k / 61);
}

TEST(SeedDataset, MatchesUnorderedMapReferenceAcrossGrowth) {
  SeedDataset dataset;
  std::unordered_map<Ipv6Addr, std::uint16_t, v6::net::Ipv6AddrHash> reference;
  std::vector<Ipv6Addr> first_seen;
  v6::net::Rng rng(17);
  for (int i = 0; i < 20'000; ++i) {
    if (i == 10'000) dataset.reserve(30'000);  // a rehash mid-stream
    const Ipv6Addr addr = random_key(rng);
    const SeedSource source = kAllSeedSources[rng() % kNumSeedSources];
    dataset.add(addr, source);
    const auto [it, inserted] = reference.emplace(addr, 0);
    if (inserted) first_seen.push_back(addr);
    it->second |= source_bit(source);

    const Ipv6Addr probe = random_key(rng);  // absent about half the time
    const auto ref = reference.find(probe);
    ASSERT_EQ(dataset.contains(probe), ref != reference.end());
    ASSERT_EQ(dataset.sources_of(probe),
              ref == reference.end() ? 0 : ref->second);
  }
  ASSERT_EQ(dataset.size(), first_seen.size());
  for (std::size_t i = 0; i < first_seen.size(); ++i) {
    ASSERT_EQ(dataset.addrs()[i], first_seen[i]) << "index " << i;
    ASSERT_EQ(dataset.sources_of(i), reference.at(first_seen[i]));
  }
  for (const SeedSource source : kAllSeedSources) {
    const std::size_t expected = static_cast<std::size_t>(
        std::count_if(first_seen.begin(), first_seen.end(), [&](const auto& a) {
          return (reference.at(a) & source_bit(source)) != 0;
        }));
    EXPECT_EQ(dataset.count(source), expected) << to_string(source);
  }
}

TEST(SourceMeta, CategoriesMatchPaperTable3) {
  EXPECT_EQ(category(SeedSource::kCensys), SourceCategory::kDomain);
  EXPECT_EQ(category(SeedSource::kScamper), SourceCategory::kRouter);
  EXPECT_EQ(category(SeedSource::kRipeAtlas), SourceCategory::kRouter);
  EXPECT_EQ(category(SeedSource::kHitlist), SourceCategory::kBoth);
  EXPECT_EQ(category(SeedSource::kAddrMiner), SourceCategory::kBoth);
}

TEST(SeedCollector, Deterministic) {
  const SeedCollector collector(small_universe(), 42);
  const auto a = collector.collect(SeedSource::kCensys);
  const auto b = collector.collect(SeedSource::kCensys);
  EXPECT_EQ(a, b);
}

TEST(SeedCollector, DifferentSeedsDiffer) {
  const SeedCollector a(small_universe(), 1);
  const SeedCollector b(small_universe(), 2);
  EXPECT_NE(a.collect(SeedSource::kCensys), b.collect(SeedSource::kCensys));
}

class CollectorPerSource : public ::testing::TestWithParam<SeedSource> {};

TEST_P(CollectorPerSource, ProducesAddresses) {
  const SeedCollector collector(small_universe(), 42);
  const auto addrs = collector.collect(GetParam());
  EXPECT_FALSE(addrs.empty()) << to_string(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllSources, CollectorPerSource,
    ::testing::ValuesIn(kAllSeedSources.begin(), kAllSeedSources.end()),
    [](const auto& info) {
      std::string name{to_string(info.param)};
      std::erase_if(name, [](char c) { return !std::isalnum(c); });
      return name;
    });

TEST(SeedCollector, TracerouteSourcesSkewToRouters) {
  const auto& universe = small_universe();
  const SeedCollector collector(universe, 42);
  auto router_fraction = [&](SeedSource source) {
    const auto addrs = collector.collect(source);
    std::size_t routers = 0;
    std::size_t known = 0;
    for (const Ipv6Addr& a : addrs) {
      const auto* host = universe.host(a);
      if (host == nullptr) continue;
      ++known;
      if (host->kind == v6::simnet::HostKind::kRouter) ++routers;
    }
    return known == 0 ? 0.0
                      : static_cast<double>(routers) /
                            static_cast<double>(known);
  };
  EXPECT_GT(router_fraction(SeedSource::kScamper), 0.8);
  EXPECT_LT(router_fraction(SeedSource::kCensys), 0.1);
}

TEST(SeedCollector, AddrMinerIsAliasHeavy) {
  const auto& universe = small_universe();
  const SeedCollector collector(universe, 42);
  const auto addrs = collector.collect(SeedSource::kAddrMiner);
  std::size_t aliased = 0;
  for (const Ipv6Addr& a : addrs) {
    if (universe.is_aliased(a)) ++aliased;
  }
  EXPECT_GT(static_cast<double>(aliased) / static_cast<double>(addrs.size()),
            0.3);
}

TEST(SeedCollector, SecrankRestrictedToChinaRegionAses) {
  const auto& universe = small_universe();
  const SeedCollector collector(universe, 42);
  for (const Ipv6Addr& a : collector.collect(SeedSource::kSecrank)) {
    const auto asn = universe.asn_of(a);
    if (!asn) continue;
    const auto* info = universe.asdb().find(*asn);
    ASSERT_NE(info, nullptr);
    EXPECT_EQ(info->region, v6::asdb::Region::kChina) << a.to_string();
  }
}

TEST(ActivityMap, SetAndQuery) {
  SeedDataset dataset;
  dataset.add(addr_n(1), SeedSource::kCensys);
  dataset.add(addr_n(2), SeedSource::kCensys);
  ActivityMap activity(dataset);
  EXPECT_EQ(activity.size(), 2u);
  activity.merge_bit(addr_n(1), ProbeType::kIcmp);
  activity.merge_bit(addr_n(1), ProbeType::kTcp80);
  EXPECT_TRUE(activity.active_on(addr_n(1), ProbeType::kIcmp));
  EXPECT_TRUE(activity.active_on(addr_n(1), ProbeType::kTcp80));
  EXPECT_FALSE(activity.active_on(addr_n(1), ProbeType::kUdp53));
  EXPECT_TRUE(activity.active_any(addr_n(1)));
  EXPECT_FALSE(activity.active_any(addr_n(2)));  // covered, never marked
  EXPECT_FALSE(activity.active_any(addr_n(3)));  // not covered
  EXPECT_EQ(ActivityMap().of(addr_n(1)), 0u);
}

TEST(ActivityMap, MatchesUnorderedMapReferenceAcrossGrowth) {
  // The map covers a dataset of random keys. The set of addresses with a
  // marked bit grows from none to most of it, and every query, of a
  // covered key or of one the dataset lacks, must match the reference.
  v6::net::Rng rng(23);
  SeedDataset dataset;
  for (int i = 0; i < 8'192; ++i) {
    dataset.add(random_key(rng), SeedSource::kCensys);
  }
  ActivityMap activity(dataset);
  std::unordered_map<Ipv6Addr, v6::net::ServiceMask, v6::net::Ipv6AddrHash>
      reference;
  for (int i = 0; i < 20'000; ++i) {
    const Ipv6Addr addr = dataset.addrs()[rng() % dataset.size()];
    const ProbeType type =
        v6::net::kAllProbeTypes[rng() % v6::net::kNumProbeTypes];
    activity.merge_bit(addr, type);
    reference[addr] |= v6::net::service_bit(type);

    const Ipv6Addr probe = random_key(rng);  // often not in the dataset
    const auto ref = reference.find(probe);
    const v6::net::ServiceMask expected =
        ref == reference.end() ? 0 : ref->second;
    ASSERT_EQ(activity.of(probe), expected);
    ASSERT_EQ(activity.active_any(probe), expected != 0);
    for (const ProbeType type : v6::net::kAllProbeTypes) {
      ASSERT_EQ(activity.active_on(probe, type),
                v6::net::has_service(expected, type));
    }
  }
  EXPECT_EQ(activity.size(), dataset.size());
  for (const Ipv6Addr& addr : dataset.addrs()) {
    const auto ref = reference.find(addr);
    ASSERT_EQ(activity.of(addr), ref == reference.end() ? 0 : ref->second)
        << addr.to_string();
  }
}

TEST(Preprocess, ScanActivityMatchesGroundTruth) {
  const auto& universe = small_universe();
  SeedDataset seeds;
  for (const auto& host : universe.hosts()) {
    if (universe.is_aliased(host.addr)) continue;
    seeds.add(host.addr, SeedSource::kCensys);
    if (seeds.size() >= 3000) break;
  }
  v6::probe::SimTransport transport(universe, 9);
  v6::probe::Scanner scanner(transport, nullptr, {.max_retries = 1, .seed = 9});
  const ActivityMap activity = scan_activity(
      seeds, std::bind_front(&v6::probe::Scanner::scan, &scanner));
  for (const Ipv6Addr& a : seeds.addrs()) {
    const auto* host = universe.host(a);
    ASSERT_NE(host, nullptr);
    EXPECT_EQ(activity.of(a), host->services) << a.to_string();
  }
}

TEST(Preprocess, FilterActiveSubsets) {
  SeedDataset dataset;
  for (std::uint64_t i : {1, 2, 3}) dataset.add(addr_n(i), SeedSource::kCensys);
  ActivityMap activity(dataset);
  activity.merge_bit(addr_n(1), ProbeType::kIcmp);
  activity.merge_bit(addr_n(2), ProbeType::kTcp80);
  const std::vector<Ipv6Addr> addrs = {addr_n(1), addr_n(2), addr_n(3)};

  EXPECT_EQ(filter_active_any(addrs, activity).size(), 2u);
  const auto icmp = filter_active_on(addrs, activity, ProbeType::kIcmp);
  ASSERT_EQ(icmp.size(), 1u);
  EXPECT_EQ(icmp[0], addr_n(1));
}

TEST(Overlap, IpOverlapOnSyntheticDataset) {
  SeedDataset dataset;
  // Censys: {1,2,3}; Rapid7: {2,3,4}; Scamper: {5}.
  for (std::uint64_t i : {1, 2, 3}) dataset.add(addr_n(i), SeedSource::kCensys);
  for (std::uint64_t i : {2, 3, 4}) dataset.add(addr_n(i), SeedSource::kRapid7);
  dataset.add(addr_n(5), SeedSource::kScamper);

  const OverlapMatrix m = ip_overlap(dataset);
  const auto c = static_cast<std::size_t>(SeedSource::kCensys);
  const auto r = static_cast<std::size_t>(SeedSource::kRapid7);
  const auto s = static_cast<std::size_t>(SeedSource::kScamper);
  EXPECT_EQ(m.total[c], 3u);
  EXPECT_DOUBLE_EQ(m.cell[c][r], 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(m.cell[r][c], 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(m.cell[c][c], 1.0);
  EXPECT_DOUBLE_EQ(m.any_other[c], 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(m.any_other[s], 0.0);
}

TEST(Overlap, FilterRestrictsPopulation) {
  SeedDataset dataset;
  for (std::uint64_t i : {1, 2, 3}) dataset.add(addr_n(i), SeedSource::kCensys);
  const OverlapMatrix m = ip_overlap(
      dataset, [](const Ipv6Addr& a) { return a.lo() != 2; });
  EXPECT_EQ(m.total[static_cast<std::size_t>(SeedSource::kCensys)], 2u);
}

TEST(Overlap, AsOverlapGroupsByAsn) {
  SeedDataset dataset;
  dataset.add(addr_n(1), SeedSource::kCensys);
  dataset.add(addr_n(2), SeedSource::kRapid7);
  dataset.add(Ipv6Addr(0x2002ULL << 48, 1), SeedSource::kRapid7);
  const auto asn_of = [](const Ipv6Addr& a) -> std::optional<std::uint32_t> {
    return a.hi() >> 48 == 0x2002 ? 200u : 100u;
  };
  const OverlapMatrix m = as_overlap(dataset, asn_of);
  const auto c = static_cast<std::size_t>(SeedSource::kCensys);
  const auto r = static_cast<std::size_t>(SeedSource::kRapid7);
  EXPECT_EQ(m.total[c], 1u);  // AS 100 only
  EXPECT_EQ(m.total[r], 2u);  // AS 100 and 200
  EXPECT_DOUBLE_EQ(m.cell[c][r], 1.0);
  EXPECT_DOUBLE_EQ(m.cell[r][c], 0.5);
}

}  // namespace
}  // namespace v6::seeds
