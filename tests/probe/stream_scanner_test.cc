// StreamScanner (probe/stream_scanner.h) determinism contract: the
// shard-merged ScanResult is bit-identical across shard counts and
// seeds, reply callbacks fire in the canonical cycle-position order
// (the one-shard walk's own order, at every target count),
// the blocklist and dedup paths match the batch engine's pre-wire
// accounting, per-lane faults and adaptive backoff are pinned per shard
// count, and a failing lane surfaces only after every shard worker has
// joined. Labeled shard + concurrency so the tsan preset exercises the
// shard workers.
#include "probe/stream_scanner.h"

#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "fault/faulty_transport.h"
#include "net/ipv6.h"
#include "net/prefix.h"
#include "net/rng.h"
#include "obs/telemetry.h"
#include "probe/probe_auth.h"
#include "probe/scanner.h"
#include "probe/shard_walk.h"
#include "probe/stateless_transport.h"
#include "probe/transport.h"
#include "testutil/fixtures.h"
#include "testutil/generators.h"

namespace {

using v6::net::Ipv6Addr;
using v6::net::ProbeReply;
using v6::net::ProbeType;
using v6::probe::ScanOptions;
using v6::probe::ScanResult;
using v6::probe::ScanStats;
using v6::probe::StreamScanner;
using v6::probe::StreamScanOptions;

/// A target mix with guaranteed hits (real universe hosts), guaranteed
/// duplicates, and random addresses (~20% repeats) from the generator.
std::vector<Ipv6Addr> mixed_targets(std::uint64_t seed, std::size_t count) {
  const auto& universe = v6::testutil::small_universe();
  const auto hosts = universe.hosts();
  std::vector<Ipv6Addr> targets;
  targets.reserve(count + count / 2);
  for (std::size_t i = 0; i < count / 2; ++i) {
    targets.push_back(hosts[i % hosts.size()].addr);
  }
  v6::net::Rng rng = v6::net::make_rng(seed, /*tag=*/0x7E57);
  const v6::net::Prefix scope(hosts[0].addr, 40);
  const auto random_part =
      v6::testutil::random_probe_schedule(rng, scope, count / 2);
  targets.insert(targets.end(), random_part.begin(), random_part.end());
  // Deterministic duplicates of the host section on top of the
  // generator's own repeats.
  for (std::size_t i = 0; i < count / 4; ++i) {
    targets.push_back(targets[i * 2]);
  }
  return targets;
}

void expect_stats_eq(const ScanStats& a, const ScanStats& b,
                     const std::string& context) {
  EXPECT_EQ(a.targets, b.targets) << context;
  EXPECT_EQ(a.deduped, b.deduped) << context;
  EXPECT_EQ(a.blocked, b.blocked) << context;
  EXPECT_EQ(a.probed, b.probed) << context;
  EXPECT_EQ(a.packets, b.packets) << context;
  EXPECT_EQ(a.hits, b.hits) << context;
  EXPECT_EQ(a.rsts, b.rsts) << context;
  EXPECT_EQ(a.unreachables, b.unreachables) << context;
  EXPECT_EQ(a.timeouts, b.timeouts) << context;
  EXPECT_EQ(a.virtual_seconds, b.virtual_seconds) << context;
  EXPECT_EQ(a.retransmissions, b.retransmissions) << context;
  EXPECT_EQ(a.backoffs, b.backoffs) << context;
  EXPECT_EQ(a.backoff_seconds, b.backoff_seconds) << context;
}

ScanResult run_stream(const ScanOptions& scan, unsigned shards,
                      const v6::probe::Blocklist* blocklist,
                      std::span<const Ipv6Addr> targets,
                      std::uint64_t* invalid = nullptr) {
  StreamScanner scanner(
      v6::testutil::small_universe(), blocklist,
      StreamScanOptions{}.with_shards(shards).with_scan(scan));
  ScanResult result = scanner.scan_hits(targets, ProbeType::kIcmp);
  if (invalid != nullptr) *invalid = scanner.invalid_replies();
  return result;
}

TEST(StreamScannerTest, BitIdenticalAcrossShardCountsAndOptions) {
  struct Variant {
    std::string name;
    ScanOptions scan;
  };
  const std::vector<Variant> variants = {
      {"default", ScanOptions{}.with_seed(1)},
      {"retries", ScanOptions{}.with_seed(7).with_retries(3)},
      {"robust", ScanOptions{}
                     .with_seed(11)
                     .with_retries(2)
                     .with_probe_timeout(0.05)
                     .with_retry_backoff(0.1, /*jitter=*/0.5)},
  };
  const std::vector<Ipv6Addr> targets = mixed_targets(/*seed=*/99, 600);
  for (const Variant& variant : variants) {
    std::uint64_t invalid = 0;
    const ScanResult reference =
        run_stream(variant.scan, 1, nullptr, targets, &invalid);
    EXPECT_EQ(invalid, 0u) << variant.name;
    EXPECT_GT(reference.stats.probed, 0u) << variant.name;
    EXPECT_GT(reference.stats.hits, 0u) << variant.name;
    EXPECT_GT(reference.stats.deduped, 0u) << variant.name;
    for (const unsigned shards : {2u, 3u, 4u}) {
      const ScanResult result =
          run_stream(variant.scan, shards, nullptr, targets, &invalid);
      EXPECT_EQ(invalid, 0u) << variant.name;
      const std::string context =
          variant.name + " shards=" + std::to_string(shards);
      EXPECT_EQ(result.hits, reference.hits) << context;
      expect_stats_eq(result.stats, reference.stats, context);
    }
  }
}

TEST(StreamScannerTest, CallbackOrderIsCanonicalAcrossShardCounts) {
  const std::vector<Ipv6Addr> targets = mixed_targets(/*seed=*/5, 400);
  const ScanOptions scan = ScanOptions{}.with_seed(21);
  using Event = std::pair<Ipv6Addr, ProbeReply>;
  auto collect = [&](unsigned shards) {
    std::vector<Event> events;
    StreamScanner scanner(
        v6::testutil::small_universe(), nullptr,
        StreamScanOptions{}.with_shards(shards).with_scan(scan));
    scanner.scan(targets, ProbeType::kIcmp,
                 [&](const Ipv6Addr& addr, ProbeReply reply) {
                   events.emplace_back(addr, reply);
                 });
    return events;
  };
  const std::vector<Event> one = collect(1);
  const std::vector<Event> three = collect(3);
  ASSERT_FALSE(one.empty());
  EXPECT_EQ(one, three);
}

TEST(StreamScannerTest, ProbesInWalkOrderAtEveryLength) {
  // The other tests compare shard counts with each other, so a defect
  // every walk shares would pass them. Here the expected callbacks come
  // from the walk itself: ShardWalk(ShardPlan(n, seed), 0, 1), skipping
  // all but the first occurrence of each address and the blocklisted
  // ones, with each reply from a stateless wire (a pure function of the
  // probe, so independent of the scan's threads). Lengths around the
  // scanner's 16-item lookahead ring catch a dropped, repeated or
  // reordered item.
  const auto& universe = v6::testutil::small_universe();
  const std::vector<Ipv6Addr> pool = mixed_targets(/*seed=*/61, 1200);
  constexpr std::size_t kRandomPart = 600;  // pool: 600 hosts, then random
  v6::probe::Blocklist blocklist;
  blocklist.add(v6::net::Prefix(pool[0], 48));
  using Event = std::pair<Ipv6Addr, ProbeReply>;
  for (const std::size_t n : {0, 1, 7, 8, 9, 15, 16, 17, 33, 600}) {
    // Hosts and random addresses alternate; every fourth target repeats
    // an earlier one.
    std::vector<Ipv6Addr> targets;
    for (std::size_t i = 0; i < n; ++i) {
      const Ipv6Addr addr = i % 4 == 3 ? targets[i / 2]
                                       : pool[(i % 2) * kRandomPart + i / 2];
      targets.push_back(addr);
    }
    std::vector<bool> first(n, false);
    std::unordered_set<Ipv6Addr, v6::net::Ipv6AddrHash> seen;
    for (std::size_t i = 0; i < n; ++i) {
      first[i] = seen.insert(targets[i]).second;
    }

    const ScanOptions scan = ScanOptions{}.with_seed(n + 3).with_retries(0);
    std::vector<Event> expected;
    ScanStats want;
    want.targets = n;
    v6::probe::StatelessSimTransport wire(universe, scan.seed);
    v6::probe::ShardWalk walk(v6::probe::ShardPlan(n, scan.seed), 0, 1);
    v6::probe::ShardItem item;
    while (walk.next(&item)) {
      const std::uint64_t index = item.index;
      const Ipv6Addr& addr = targets[index];
      if (!first[index]) {
        ++want.deduped;
        continue;
      }
      if (blocklist.blocked(addr)) {
        ++want.blocked;
        continue;
      }
      const ProbeReply reply = wire.send(addr, ProbeType::kIcmp);
      expected.emplace_back(addr, reply);
      ++want.probed;
      switch (reply) {
        case ProbeReply::kTimeout:
          ++want.timeouts;
          break;
        case ProbeReply::kRst:
          ++want.rsts;
          break;
        case ProbeReply::kDestUnreachable:
          ++want.unreachables;
          break;
        default:
          if (v6::net::is_hit(ProbeType::kIcmp, reply)) ++want.hits;
          break;
      }
    }
    want.packets = wire.packets_sent();
    want.virtual_seconds = static_cast<double>(want.packets) / scan.max_pps;
    if (n == 600) {
      EXPECT_GT(want.hits, 0u);
      EXPECT_GT(want.blocked, 0u);
      EXPECT_GT(want.deduped, 0u);
    }

    for (const unsigned shards : {1u, 2u, 3u, 4u}) {
      const std::string context = "n=" + std::to_string(n) +
                                  " shards=" + std::to_string(shards);
      StreamScanner scanner(
          universe, &blocklist,
          StreamScanOptions{}.with_shards(shards).with_scan(scan));
      std::vector<Event> events;
      const ScanStats stats =
          scanner.scan(targets, ProbeType::kIcmp,
                       [&](const Ipv6Addr& addr, ProbeReply reply) {
                         events.emplace_back(addr, reply);
                       });
      EXPECT_EQ(events, expected) << context;
      expect_stats_eq(stats, want, context);
    }
  }
}

TEST(StreamScannerTest, BlocklistSkipsWithoutProbing) {
  const auto& universe = v6::testutil::small_universe();
  const auto hosts = universe.hosts();
  v6::probe::Blocklist blocklist;
  blocklist.add(v6::net::Prefix(hosts[0].addr, 32));
  const std::vector<Ipv6Addr> targets = mixed_targets(/*seed=*/17, 500);
  for (const unsigned shards : {1u, 3u}) {
    std::vector<Ipv6Addr> seen;
    StreamScanner scanner(
        universe, &blocklist,
        StreamScanOptions{}.with_shards(shards).with_scan(
            ScanOptions{}.with_seed(2)));
    const ScanStats stats =
        scanner.scan(targets, ProbeType::kIcmp,
                     [&](const Ipv6Addr& addr, ProbeReply) {
                       seen.push_back(addr);
                     });
    EXPECT_GT(stats.blocked, 0u);
    EXPECT_EQ(stats.probed + stats.blocked + stats.deduped, stats.targets);
    EXPECT_EQ(seen.size(), stats.probed);
    for (const Ipv6Addr& addr : seen) {
      EXPECT_FALSE(blocklist.blocked(addr));
    }
  }
}

TEST(StreamScannerTest, AgreesWithBatchEngineOnPreWireAccounting) {
  const auto& universe = v6::testutil::small_universe();
  const std::vector<Ipv6Addr> targets = mixed_targets(/*seed=*/31, 500);
  const ScanOptions scan = ScanOptions{}.with_seed(4);
  v6::probe::SimTransport wire(universe, scan.seed);
  v6::probe::Scanner batch(wire, nullptr, scan);
  const ScanResult batch_result = batch.scan_hits(targets, ProbeType::kIcmp);
  const ScanResult stream_result = run_stream(scan, 2, nullptr, targets);
  // The engines share dedup/blocklist/admission; reply streams differ
  // (sequential mt19937 vs per-(addr, attempt) splitmix64), so hit
  // counts are NOT compared.
  EXPECT_EQ(stream_result.stats.targets, batch_result.stats.targets);
  EXPECT_EQ(stream_result.stats.deduped, batch_result.stats.deduped);
  EXPECT_EQ(stream_result.stats.blocked, batch_result.stats.blocked);
  EXPECT_EQ(stream_result.stats.probed, batch_result.stats.probed);
}

TEST(StreamScannerTest, PublishesTheBatchEnginesCounterSet) {
  // Both engines publish through ScanStats::publish and resolve the
  // retry counters with retry_counters(): one target list must give the
  // same `scanner.*` names and the same pre-wire counts.
  const auto& universe = v6::testutil::small_universe();
  const std::vector<Ipv6Addr> targets = mixed_targets(/*seed=*/17, 400);
  const ScanOptions scan = ScanOptions{}.with_seed(4).with_retries(2);
  v6::obs::Telemetry batch_telemetry;
  v6::probe::SimTransport wire(universe, scan.seed);
  v6::probe::Scanner batch(wire, nullptr,
                           ScanOptions(scan).with_telemetry(&batch_telemetry));
  batch.scan_hits(targets, ProbeType::kIcmp);
  v6::obs::Telemetry stream_telemetry;
  {
    StreamScanner stream(
        universe, nullptr,
        StreamScanOptions{}.with_shards(2).with_scan(
            ScanOptions(scan).with_telemetry(&stream_telemetry)));
    stream.scan_hits(targets, ProbeType::kIcmp);
  }  // the destructor flushes the lanes' retry tallies
  const auto scanner_names = [](const v6::obs::Report& report) {
    std::vector<std::string> names;
    const auto add = [&names](const auto& metrics) {
      for (const auto& entry : metrics) {
        if (entry.first.starts_with("scanner.")) names.push_back(entry.first);
      }
    };
    add(report.counters);
    add(report.histograms);
    add(report.timers);
    return names;
  };
  const v6::obs::Report b = batch_telemetry.registry().snapshot();
  const v6::obs::Report s = stream_telemetry.registry().snapshot();
  EXPECT_EQ(scanner_names(b), scanner_names(s));
  EXPECT_GT(b.counter_value("scanner.retry.2"), 0u);
  EXPECT_GT(s.counter_value("scanner.retry.2"), 0u);
  for (const char* name : {"scanner.targets", "scanner.deduped",
                           "scanner.blocked", "scanner.probed"}) {
    EXPECT_EQ(b.counter_value(name), s.counter_value(name)) << name;
  }
}

TEST(StreamScannerTest, TelemetryCountersAreShardInvariant) {
  const std::vector<Ipv6Addr> targets = mixed_targets(/*seed=*/13, 400);
  auto run_with_telemetry = [&](unsigned shards) {
    v6::obs::Telemetry telemetry;
    StreamScanner scanner(
        v6::testutil::small_universe(), nullptr,
        StreamScanOptions{}.with_shards(shards).with_scan(
            ScanOptions{}.with_seed(6).with_retries(2).with_telemetry(
                &telemetry)));
    scanner.scan_hits(targets, ProbeType::kIcmp);
    scanner.flush_telemetry();
    return telemetry.registry().snapshot();
  };
  const v6::obs::Report one = run_with_telemetry(1);
  const v6::obs::Report three = run_with_telemetry(3);
  EXPECT_GT(one.counter_value("scanner.probed"), 0u);
  EXPECT_EQ(one.counters, three.counters);
  // `.wall` gauges (the scan's wall duration) are wall-side by
  // definition and exempt from shard invariance. Everything else must
  // match.
  const auto drop_wall = [](const std::map<std::string, std::int64_t>& in) {
    std::map<std::string, std::int64_t> out;
    for (const auto& [name, value] : in) {
      if (name.size() >= 5 &&
          name.compare(name.size() - 5, 5, ".wall") == 0) {
        continue;
      }
      out.emplace(name, value);
    }
    return out;
  };
  EXPECT_EQ(drop_wall(one.gauges), drop_wall(three.gauges));
}

TEST(StreamScannerTest, FlushTelemetryIsIdempotent) {
  const std::vector<Ipv6Addr> targets = mixed_targets(/*seed=*/13, 200);
  v6::obs::Telemetry telemetry;
  StreamScanner scanner(
      v6::testutil::small_universe(), nullptr,
      StreamScanOptions{}.with_shards(2).with_scan(
          ScanOptions{}.with_seed(6).with_retries(2).with_telemetry(
              &telemetry)));
  scanner.scan_hits(targets, ProbeType::kIcmp);
  scanner.flush_telemetry();
  const v6::obs::Report once = telemetry.registry().snapshot();
  scanner.flush_telemetry();  // second flush must not double-count
  const v6::obs::Report twice = telemetry.registry().snapshot();
  EXPECT_EQ(once.counters, twice.counters);
}

TEST(StreamScannerTest, StatsAreInternallyConsistent) {
  const std::vector<Ipv6Addr> targets = mixed_targets(/*seed=*/23, 300);
  const ScanResult result = run_stream(
      ScanOptions{}.with_seed(9).with_retries(2), 3, nullptr, targets);
  const ScanStats& s = result.stats;
  EXPECT_EQ(s.targets, targets.size());
  EXPECT_EQ(s.deduped + s.blocked + s.probed, s.targets);
  EXPECT_EQ(s.hits + s.rsts + s.unreachables + s.timeouts, s.probed);
  EXPECT_EQ(s.hits, result.hits.size());
  EXPECT_GE(s.packets, s.probed);
  EXPECT_GT(s.virtual_seconds, 0.0);
}

/// splitmix64 fold of every (addr, reply) callback event in order, then
/// every ScanStats field (doubles by bit pattern).
std::uint64_t scan_digest(StreamScanner& scanner,
                          std::span<const Ipv6Addr> targets,
                          ScanStats* stats) {
  std::uint64_t digest = 0;
  const auto fold = [&digest](std::uint64_t v) {
    digest = v6::net::splitmix64(digest ^ v);
  };
  *stats = scanner.scan(targets, ProbeType::kIcmp,
                        [&](const Ipv6Addr& addr, ProbeReply reply) {
                          fold(addr.hi());
                          fold(addr.lo());
                          fold(static_cast<std::uint64_t>(reply));
                        });
  for (const std::uint64_t v :
       {stats->targets, stats->deduped, stats->blocked, stats->probed,
        stats->packets, stats->hits, stats->rsts, stats->unreachables,
        stats->timeouts, stats->retransmissions, stats->backoffs,
        std::bit_cast<std::uint64_t>(stats->virtual_seconds),
        std::bit_cast<std::uint64_t>(stats->backoff_seconds)}) {
    fold(v);
  }
  return digest;
}

TEST(StreamScannerTest, FaultsAndAdaptiveBackoffArePinnedPerShardCount) {
  // Fault injectors and adaptive-backoff streaks are per-lane state, so
  // their outcomes depend on which targets each lane sees, in which
  // order. The digests pin that for every shard count: a change to how
  // shards split or merge the walk shows up here.
  const v6::net::Prefix any;
  const v6::fault::FaultPlan plan = v6::fault::FaultPlan{}
                                        .with_base_loss(0.15)
                                        .with_rate_limit(any, 20.0, 10.0, 32)
                                        .with_outage(any, 0.2, 0.1, 1.0)
                                        .with_error(any, 0.05);
  const ScanOptions scan = ScanOptions{}
                               .with_seed(19)
                               .with_retries(3)
                               .with_probe_timeout(0.01)
                               .with_retry_backoff(0.02, /*jitter=*/0.25)
                               .with_adaptive_backoff(/*threshold=*/8,
                                                      /*wait_s=*/0.5);
  const std::vector<Ipv6Addr> targets = mixed_targets(/*seed=*/47, 800);
  struct Pin {
    unsigned shards;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {1, 0xba556e5f3dbdb2aaULL},
      {2, 0xe8153c3598bc5e16ULL},
      {3, 0xc1847e8cee48a097ULL},
      {4, 0xf1ecb7212626065eULL},
  };
  for (const Pin& pin : pins) {
    StreamScanner scanner(
        v6::testutil::small_universe(), nullptr,
        StreamScanOptions{}
            .with_shards(pin.shards)
            .with_scan(scan)
            .with_decorator([&plan](v6::probe::ProbeTransport& inner,
                                    unsigned shard)
                                -> std::unique_ptr<v6::probe::ProbeTransport> {
              return std::make_unique<v6::fault::FaultyTransport>(
                  inner, plan, v6::net::derive_seed(19, 0x5A00 + shard));
            }));
    ScanStats stats;
    const std::uint64_t digest = scan_digest(scanner, targets, &stats);
    const std::string context = "shards=" + std::to_string(pin.shards);
    EXPECT_GT(stats.hits, 0u) << context;
    EXPECT_GT(stats.unreachables, 0u) << context;
    EXPECT_GT(stats.retransmissions, 0u) << context;
    EXPECT_GT(stats.backoffs, 0u) << context;
    EXPECT_EQ(digest, pin.digest)
        << context << " digest 0x" << std::hex << digest;
  }
}

/// Forwards to the lane's wire and counts the sends that reach it; an
/// armed transport throws on its first send instead.
class FailingTransport final : public v6::probe::ProbeTransport {
 public:
  FailingTransport(v6::probe::ProbeTransport& inner, std::uint64_t* sends,
                   bool armed)
      : inner_(&inner), sends_(sends), armed_(armed) {}

  ProbeReply send(const Ipv6Addr& addr, ProbeType type) override {
    if (armed_) {
      armed_ = false;
      throw std::runtime_error("lane transport failed");
    }
    ++*sends_;
    return inner_->send(addr, type);
  }
  std::uint64_t packets_sent() const override {
    return inner_->packets_sent();
  }
  void advance(double seconds) override { inner_->advance(seconds); }
  std::uint64_t last_wire_nanos() const override {
    return inner_->last_wire_nanos();
  }

 private:
  v6::probe::ProbeTransport* inner_;
  std::uint64_t* sends_;
  bool armed_;
};

TEST(StreamScannerTest, LaneFailureRethrowsAfterEveryWorkerJoins) {
  constexpr unsigned kShards = 3;
  constexpr unsigned kFailing = 1;
  const std::vector<Ipv6Addr> targets = mixed_targets(/*seed=*/41, 600);
  const ScanOptions scan = ScanOptions{}.with_seed(8).with_retries(1);
  // One send counter per lane: each is written only by its own worker,
  // and read here only after scan() has returned or thrown.
  auto make_scanner = [&](std::vector<std::uint64_t>* sends, bool fail) {
    return std::make_unique<StreamScanner>(
        v6::testutil::small_universe(), nullptr,
        StreamScanOptions{}
            .with_shards(kShards)
            .with_scan(scan)
            .with_decorator([sends, fail](v6::probe::ProbeTransport& inner,
                                          unsigned shard)
                                -> std::unique_ptr<v6::probe::ProbeTransport> {
              return std::make_unique<FailingTransport>(
                  inner, &(*sends)[shard], fail && shard == kFailing);
            }));
  };

  std::vector<std::uint64_t> clean_sends(kShards, 0);
  const ScanResult expected =
      make_scanner(&clean_sends, false)->scan_hits(targets, ProbeType::kIcmp);

  std::vector<std::uint64_t> sends(kShards, 0);
  const std::unique_ptr<StreamScanner> scanner = make_scanner(&sends, true);
  EXPECT_THROW(scanner->scan_hits(targets, ProbeType::kIcmp),
               std::runtime_error);
  // The healthy lanes walked their whole slices before scan() rethrew.
  for (unsigned s = 0; s < kShards; ++s) {
    if (s == kFailing) continue;
    EXPECT_GT(sends[s], 0u) << "shard " << s;
    EXPECT_EQ(sends[s], clean_sends[s]) << "shard " << s;
  }
  EXPECT_EQ(sends[kFailing], 0u);

  // The same scanner completes its next scan, as a clean one would.
  const ScanResult again = scanner->scan_hits(targets, ProbeType::kIcmp);
  EXPECT_EQ(again.hits, expected.hits);
  expect_stats_eq(again.stats, expected.stats, "scan after a failed scan");
}

TEST(StatelessSimTransportTest, ProbeTypesDrawIndependentLossCoins) {
  // A rate-limited alias region answers every address on ICMP and
  // TCP80 with the same probability. Separate packets draw separate
  // coins, so an address's first ICMP and first TCP80 replies must
  // sometimes disagree.
  const auto& universe = v6::testutil::small_universe();
  const v6::simnet::AliasRegion* region = nullptr;
  for (const v6::simnet::AliasRegion& candidate : universe.alias_regions()) {
    if (candidate.rate_limited &&
        v6::net::has_service(candidate.services, ProbeType::kIcmp) &&
        v6::net::has_service(candidate.services, ProbeType::kTcp80)) {
      region = &candidate;
      break;
    }
  }
  ASSERT_NE(region, nullptr);
  v6::net::Rng rng = v6::net::make_rng(/*seed=*/3, /*tag=*/0xC014);
  std::vector<Ipv6Addr> addrs;
  for (int i = 0; i < 400; ++i) {
    addrs.push_back(v6::net::random_in_prefix(rng, region->prefix));
  }

  v6::probe::StatelessSimTransport wire(universe, /*seed=*/12);
  const auto first_replies = [&](ProbeType type) {
    wire.reset();
    std::vector<bool> replied;
    for (const Ipv6Addr& addr : addrs) {
      replied.push_back(wire.send(addr, type) != ProbeReply::kTimeout);
      wire.reset();  // every send is a first attempt
    }
    return replied;
  };
  const std::vector<bool> icmp = first_replies(ProbeType::kIcmp);
  const std::vector<bool> tcp = first_replies(ProbeType::kTcp80);
  std::size_t icmp_hits = 0;
  std::size_t tcp_hits = 0;
  std::size_t disagree = 0;
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    icmp_hits += icmp[i] ? 1 : 0;
    tcp_hits += tcp[i] ? 1 : 0;
    disagree += icmp[i] != tcp[i] ? 1 : 0;
  }
  EXPECT_GT(icmp_hits, 0u);
  EXPECT_GT(tcp_hits, 0u);
  EXPECT_GT(disagree, 0u) << "every address drew one coin for both types";
}

TEST(ProbeAuthTest, TokenValidatesOnlyItsOwnAddressAndSeed) {
  const Ipv6Addr addr = Ipv6Addr::must_parse("2001:db8::42");
  const Ipv6Addr other = Ipv6Addr::must_parse("2001:db8::43");
  const std::uint64_t token = v6::probe::probe_token(addr, /*seed=*/5);
  EXPECT_TRUE(v6::probe::validate_probe(addr, 5, token));
  EXPECT_FALSE(v6::probe::validate_probe(other, 5, token));
  EXPECT_FALSE(v6::probe::validate_probe(addr, 6, token));
  EXPECT_FALSE(v6::probe::validate_probe(addr, 5, token ^ 1));
  // Pure function: recomputable by any holder of the seed.
  EXPECT_EQ(token, v6::probe::probe_token(addr, 5));
}

}  // namespace
