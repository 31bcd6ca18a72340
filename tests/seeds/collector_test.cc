// SeedCollector::collect_all() runs its sources on two lanes; it must
// give exactly the serial fold of collect() over kAllSeedSources. This
// suite is labelled `concurrency`, so the tsan preset checks that the
// lanes share nothing but the const universe, the traceroute engine and
// the once-built DNS zone.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "obs/telemetry.h"
#include "seeds/collector.h"
#include "seeds/seed_dataset.h"
#include "testutil/fixtures.h"
#include "testutil/scoped_env.h"

namespace v6::seeds {
namespace {

using v6::testutil::ScopedEnv;
using v6::testutil::small_universe;

TEST(SeedCollector, CollectAllMatchesSerialMerge) {
  SeedDataset serial;
  {
    const SeedCollector collector(small_universe(), 42);
    for (const SeedSource source : kAllSeedSources) {
      for (const auto& addr : collector.collect(source)) {
        serial.add(addr, source);
      }
    }
  }
  ASSERT_FALSE(serial.empty());

  // V6_JOBS picks the lanes: "2" runs the worker lane beside the
  // calling thread on any host, "1" runs both inline.
  for (const char* jobs : {"2", "1"}) {
    const ScopedEnv env("V6_JOBS", jobs);
    // A fresh collector, so collect_all() builds the zone itself while
    // the worker lane runs.
    const SeedCollector collector(small_universe(), 42);
    const SeedDataset merged = collector.collect_all();
    ASSERT_EQ(merged.size(), serial.size()) << "V6_JOBS=" << jobs;
    EXPECT_TRUE(std::ranges::equal(merged.addrs(), serial.addrs()))
        << "V6_JOBS=" << jobs;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(merged.sources_of(i), serial.sources_of(i))
          << "V6_JOBS=" << jobs << " seed " << i;
    }
  }
}

TEST(SeedCollector, CollectAllTimesTheZoneAndEverySource) {
  EXPECT_EQ(timer_name(SeedSource::kHitlist), "seeds.collect.ipv6_hitlist");
  EXPECT_EQ(timer_name(SeedSource::kCaidaDns), "seeds.collect.caida_dns");
  EXPECT_EQ(timer_name(SeedSource::kRipeAtlas), "seeds.collect.ripe_atlas");

  const SeedDataset untimed = SeedCollector(small_universe(), 42).collect_all();
  for (const char* jobs : {"2", "1"}) {
    const ScopedEnv env("V6_JOBS", jobs);
    v6::obs::Telemetry telemetry;
    const SeedDataset timed =
        SeedCollector(small_universe(), 42).collect_all(&telemetry);
    ASSERT_EQ(timed.size(), untimed.size()) << "V6_JOBS=" << jobs;
    EXPECT_TRUE(std::ranges::equal(timed.addrs(), untimed.addrs()));
    for (std::size_t i = 0; i < untimed.size(); ++i) {
      ASSERT_EQ(timed.sources_of(i), untimed.sources_of(i)) << "seed " << i;
    }

    // One sample for the zone and one per source, and no other timer.
    const v6::obs::Report report = telemetry.registry().snapshot();
    EXPECT_EQ(report.timers.size(), 1u + kNumSeedSources);
    ASSERT_TRUE(report.timers.contains("seeds.collect.zone"));
    EXPECT_EQ(report.timers.at("seeds.collect.zone").count, 1u);
    for (const SeedSource source : kAllSeedSources) {
      const std::string name = timer_name(source);
      ASSERT_TRUE(report.timers.contains(name)) << name;
      EXPECT_EQ(report.timers.at(name).count, 1u) << name;
    }
  }
}

}  // namespace
}  // namespace v6::seeds
