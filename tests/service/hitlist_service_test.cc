// End-to-end tests for the continuous hitlist service
// (src/service/hitlist_service.h): the epoch sequence is bit-identical
// across streaming-engine shard counts (the service-level restatement
// of the scan engine's shard-invariance contract), versions increment
// once per refresh, the query facade agrees with the snapshot, seed
// deltas flow through to every roster generator, the epoch sequence is
// pinned across commits, and the phase and retrain timers count every
// call at any thread count.
#include "service/hitlist_service.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <numeric>
#include <string>
#include <unordered_set>
#include <vector>

#include "net/ipv6.h"
#include "obs/telemetry.h"
#include "service/hitlist_store.h"
#include "service/incremental_tga.h"
#include "simnet/universe.h"
#include "simnet/universe_builder.h"
#include "simnet/universe_config.h"
#include "testutil/scoped_env.h"
#include "tga/registry.h"

namespace {

using v6::net::Ipv6Addr;
using v6::service::HitlistEpoch;
using v6::service::HitlistService;
using v6::service::SeedDelta;
using v6::service::ServiceConfig;
using v6::service::ServiceStats;

/// Each service instance ages its own universe, so every test builds a
/// fresh one from the same config — identical worlds, independent
/// mutation.
v6::simnet::Universe fresh_universe() {
  v6::simnet::UniverseConfig config;
  config.seed = 1234;
  config.num_ases = 150;
  config.host_scale = 0.12;
  return v6::simnet::UniverseBuilder::build(config);
}

std::vector<Ipv6Addr> sample_seeds(const v6::simnet::Universe& universe) {
  std::vector<Ipv6Addr> seeds;
  const auto& hosts = universe.hosts();
  for (std::size_t i = 0; i < hosts.size(); i += 4) {
    seeds.push_back(hosts[i].addr);
  }
  return seeds;
}

/// The `sos serve --feed 1` step: the epoch's addresses not yet handed
/// to the generators, which `fed` then records.
SeedDelta fresh_in(const HitlistEpoch& epoch,
                   std::unordered_set<Ipv6Addr, v6::net::Ipv6AddrHash>& fed) {
  SeedDelta delta;
  for (const Ipv6Addr& addr : epoch.addrs) {
    if (fed.insert(addr).second) delta.added.push_back(addr);
  }
  return delta;
}

ServiceConfig small_config() {
  ServiceConfig config;
  config.budget_per_cycle = 4'000;
  config.age_universe = true;  // default churn model
  return config;
}

TEST(HitlistService, VersionsIncrementOncePerRefresh) {
  v6::simnet::Universe universe = fresh_universe();
  HitlistService service(universe, sample_seeds(universe), small_config());
  EXPECT_EQ(service.snapshot().version, 0u);

  for (std::uint64_t cycle = 1; cycle <= 3; ++cycle) {
    const HitlistEpoch& epoch = service.refresh_once();
    EXPECT_EQ(epoch.version, cycle);
    EXPECT_EQ(service.snapshot().version, cycle);
    EXPECT_EQ(service.stats().cycles, cycle);
  }
  EXPECT_EQ(service.store().epoch_count(), 4u);
}

TEST(HitlistService, LookupAgreesWithSnapshotContains) {
  v6::simnet::Universe universe = fresh_universe();
  const std::vector<Ipv6Addr> seeds = sample_seeds(universe);
  HitlistService service(universe, seeds, small_config());
  service.refresh_once();

  const HitlistEpoch& snap = service.snapshot();
  ASSERT_GT(snap.size(), 0u);
  for (const Ipv6Addr& addr : seeds) {
    EXPECT_EQ(service.lookup(addr), snap.contains(addr));
  }
  // A definitely-absent address.
  const Ipv6Addr absent(0xFFFF'FFFF'FFFF'FFFFull, 0x1ull);
  EXPECT_FALSE(service.lookup(absent));
  EXPECT_EQ(snap.fingerprint,
            v6::service::epoch_fingerprint(snap.version, snap.addrs));
}

TEST(HitlistService, DiscoveryBudgetIsFullyAllocatedAcrossTheRoster) {
  v6::simnet::Universe universe = fresh_universe();
  HitlistService service(universe, sample_seeds(universe), small_config());
  EXPECT_TRUE(service.last_allocation().empty());  // before any refresh

  service.refresh_once();
  const auto allocation = service.last_allocation();
  ASSERT_EQ(allocation.size(), service.roster().size());
  ASSERT_EQ(allocation.size(), v6::tga::kAllTgas.size());  // empty = all
  EXPECT_EQ(std::accumulate(allocation.begin(), allocation.end(), 0ull),
            small_config().budget_per_cycle);
}

TEST(HitlistService, SeedDeltasReachEveryRosterGenerator) {
  v6::simnet::Universe universe = fresh_universe();
  const std::vector<Ipv6Addr> seeds = sample_seeds(universe);
  HitlistService service(universe, seeds, small_config());

  SeedDelta delta;
  const auto& hosts = universe.hosts();
  for (std::size_t i = 1; i < hosts.size() && delta.added.size() < 30;
       i += 4) {
    delta.added.push_back(hosts[i].addr);
  }
  service.ingest_seeds(delta);

  // 6Hit absorbs in place; the other seven retrain.
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.incremental_updates, 1u);
  EXPECT_EQ(stats.full_rebuilds, 7u);

  service.ingest_seeds(SeedDelta{});  // empty delta: untouched
  EXPECT_EQ(service.stats().full_rebuilds, 7u);
}

TEST(HitlistService, StatsAccumulateAcrossCycles) {
  v6::simnet::Universe universe = fresh_universe();
  HitlistService service(universe, sample_seeds(universe), small_config());
  service.refresh_once();
  service.refresh_once();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cycles, 2u);
  EXPECT_GT(stats.probes, 0u);
  EXPECT_GT(stats.rescans, 0u);
  EXPECT_GT(stats.discovered, 0u);
  EXPECT_GT(stats.virtual_seconds, 0.0);
}

// The service-level determinism contract: an aging universe, rescans,
// bandit allocation, and discovery scans — all of it must produce the
// byte-identical epoch sequence whether the streaming engine runs 1
// shard or 3. (Labels: service + shard, like the engine's own suite.)
TEST(HitlistService, EpochSequenceIsBitIdenticalAcrossShardCounts) {
  v6::simnet::Universe universe1 = fresh_universe();
  v6::simnet::Universe universe3 = fresh_universe();
  const std::vector<Ipv6Addr> seeds = sample_seeds(universe1);

  ServiceConfig config1 = small_config();
  config1.shards = 1;
  ServiceConfig config3 = small_config();
  config3.shards = 3;

  HitlistService service1(universe1, seeds, config1);
  HitlistService service3(universe3, seeds, config3);

  for (int cycle = 0; cycle < 4; ++cycle) {
    const HitlistEpoch& e1 = service1.refresh_once();
    const HitlistEpoch& e3 = service3.refresh_once();
    ASSERT_EQ(e1.version, e3.version);
    ASSERT_EQ(e1.fingerprint, e3.fingerprint)
        << "epoch " << e1.version << " diverged between shard counts";
    ASSERT_EQ(e1.addrs, e3.addrs);
    ASSERT_EQ(std::vector<std::uint64_t>(service1.last_allocation().begin(),
                                         service1.last_allocation().end()),
              std::vector<std::uint64_t>(service3.last_allocation().begin(),
                                         service3.last_allocation().end()));
  }

  const ServiceStats s1 = service1.stats();
  const ServiceStats s3 = service3.stats();
  EXPECT_EQ(s1.probes, s3.probes);
  EXPECT_EQ(s1.discovered, s3.discovered);
  EXPECT_EQ(s1.rescans, s3.rescans);
  EXPECT_EQ(s1.evicted, s3.evicted);
  EXPECT_EQ(s1.virtual_seconds, s3.virtual_seconds);
}

// Same seed, same config, fresh service: the whole run replays.
TEST(HitlistService, RunsAreReproducibleFromTheSeed) {
  std::vector<std::uint64_t> fingerprints;
  for (int run = 0; run < 2; ++run) {
    v6::simnet::Universe universe = fresh_universe();
    HitlistService service(universe, sample_seeds(universe), small_config());
    std::uint64_t chain = 0;
    for (int cycle = 0; cycle < 3; ++cycle) {
      chain ^= service.refresh_once().fingerprint;
    }
    fingerprints.push_back(chain);
  }
  EXPECT_EQ(fingerprints[0], fingerprints[1]);
}

// Pins the service's outcomes across commits, where every test above
// compares the service with itself. Four cycles of the `sos serve
// --feed 1` loop (refresh, then ingest the epoch's new addresses) at
// rescan intervals 1 and 2 must publish exactly these epochs and end
// on exactly these stats. A change that means to move outcomes
// regenerates the table; every other change must leave it alone.
TEST(HitlistService, EpochSequenceIsPinned) {
  struct Pinned {
    std::uint64_t rescan_interval;
    std::array<std::uint64_t, 4> fingerprints;
    ServiceStats stats;
  };
  const Pinned pins[] = {
      {1,
       {0xbf1bd0fe810f45e8ULL, 0x3f028f1118adb101ULL, 0x3b6550653058df0fULL,
        0xe8223fdca0164186ULL},
       {.cycles = 4,
        .probes = 57'773,
        .discovered = 1'614,
        .rescans = 41'773,
        .evicted = 3'266,
        .incremental_updates = 4,
        .full_rebuilds = 28,
        .virtual_seconds = 0x1.10c56d5cfaacep+3}},
      {2,
       {0xbf1bd0fe810f45e8ULL, 0x508e416b216405daULL, 0x6dcc8c74279fddccULL,
        0x18b0c64912fa5d2aULL},
       {.cycles = 4,
        .probes = 37'558,
        .discovered = 1'614,
        .rescans = 21'558,
        .evicted = 0,
        .incremental_updates = 4,
        .full_rebuilds = 28,
        .virtual_seconds = 0x1.776c8b4395811p+2}},
  };
  for (const Pinned& pin : pins) {
    SCOPED_TRACE("rescan_interval " + std::to_string(pin.rescan_interval));
    v6::simnet::Universe universe = fresh_universe();
    const std::vector<Ipv6Addr> seeds = sample_seeds(universe);
    ServiceConfig config = small_config();
    config.rescan.rescan_interval = pin.rescan_interval;
    HitlistService service(universe, seeds, config);
    std::unordered_set<Ipv6Addr, v6::net::Ipv6AddrHash> fed(seeds.begin(),
                                                            seeds.end());
    for (const std::uint64_t fingerprint : pin.fingerprints) {
      const HitlistEpoch& epoch = service.refresh_once();
      EXPECT_EQ(epoch.fingerprint, fingerprint)
          << "epoch " << epoch.version << " moved";
      service.ingest_seeds(fresh_in(epoch, fed));
    }
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.cycles, pin.stats.cycles);
    EXPECT_EQ(stats.probes, pin.stats.probes);
    EXPECT_EQ(stats.discovered, pin.stats.discovered);
    EXPECT_EQ(stats.rescans, pin.stats.rescans);
    EXPECT_EQ(stats.evicted, pin.stats.evicted);
    EXPECT_EQ(stats.incremental_updates, pin.stats.incremental_updates);
    EXPECT_EQ(stats.full_rebuilds, pin.stats.full_rebuilds);
    EXPECT_EQ(stats.virtual_seconds, pin.stats.virtual_seconds);
  }
}

// With a Telemetry attached, every refresh phase and every ingest runs
// under its span, and the roster times each arm once per fan-out (the
// constructor's prepare plus every effective delta). Timer seconds are
// wall time, but the counts are deterministic: the fan-out's threads
// only fill per-arm slots, and the writer records them after the join, so
// V6_JOBS=1 must count exactly what the default thread count does.
TEST(HitlistService, PhaseAndRetrainTimersCountEveryCall) {
  static constexpr std::uint64_t kCycles = 3;
  const auto timer_counts = [] {
    v6::obs::Telemetry telemetry;
    v6::simnet::Universe universe = fresh_universe();
    const std::vector<Ipv6Addr> seeds = sample_seeds(universe);
    HitlistService service(universe, seeds,
                           small_config().with_telemetry(&telemetry));
    std::unordered_set<Ipv6Addr, v6::net::Ipv6AddrHash> fed(seeds.begin(),
                                                            seeds.end());
    std::uint64_t fan_outs = 1;  // the constructor's prepare
    for (std::uint64_t cycle = 0; cycle < kCycles; ++cycle) {
      const SeedDelta delta = fresh_in(service.refresh_once(), fed);
      fan_outs += delta.empty() ? 0 : 1;
      service.ingest_seeds(delta);
    }
    std::map<std::string, std::uint64_t> counts;
    for (const auto& [name, total] : telemetry.registry().snapshot().timers) {
      counts[name] = total.count;
    }
    for (const char* phase : {"age", "rescan", "discover", "evict",
                              "publish"}) {
      EXPECT_EQ(counts[std::string("service.refresh.") + phase], kCycles)
          << phase;
    }
    EXPECT_EQ(counts["service.ingest"], kCycles);
    for (const char* kind : {"6sense", "det", "6tree", "6scan", "6graph",
                             "6gen", "6hit", "eip"}) {
      EXPECT_EQ(counts[std::string("service.retrain.") + kind], fan_outs)
          << kind;
    }
    return counts;
  };

  const std::map<std::string, std::uint64_t> by_default = timer_counts();
  const v6::testutil::ScopedEnv one_job("V6_JOBS", "1");
  EXPECT_EQ(timer_counts(), by_default);
}

}  // namespace
