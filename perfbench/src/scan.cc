// The `scan` workload: one StreamScanner with 1 shard (the fused
// single-thread loop) over 1.5 million mostly-unique ICMP targets on the
// default Workbench universe. No TGA runs here, only the wire path: walk,
// dedup, Universe::probe and classification.
//
// The target mix, drawn from the workload seed. 2% of the targets are
// copies of earlier ones. The other 98% follow the aggregate outcome of
// the 24 ICMP runs over the seed datasets All, Active-Inactive and All
// Active in BENCH_rq1_rq2.json (the runs the `sweep` workload replays):
// of their 1,440,000 generated targets, 267,560 were host hits, 102,904
// aliases and 2,938 dense-region hits. So:
//   18.58%  ICMP-active hosts, each at most once
//    7.15%  random addresses inside alias regions
//    0.20%  ::1 addresses in random /64s of the dense region
//   74.07%  misses: a random interface identifier in a real host's /64
#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "experiment/workbench.h"
#include "net/addr_index.h"
#include "net/rng.h"
#include "probe/probe_auth.h"
#include "probe/shard_walk.h"
#include "probe/stream_scanner.h"
#include "simnet/universe_builder.h"
#include "workload.h"

namespace perfbench {
namespace {

using v6::net::Ipv6Addr;
using v6::net::ProbeType;

constexpr std::size_t kTargets = 1'500'000;
constexpr int kSetupRepeats = 5;
constexpr ProbeType kType = ProbeType::kIcmp;

// Shares in parts per million. Duplicates are drawn first; they model
// target lists merged from several sources without deduplication, and
// are a stated choice, not a measurement (the TGAs themselves never
// repeat a target). The rest are the outcome shares of the record above.
constexpr std::uint64_t kPpm = 1'000'000;
constexpr std::uint64_t kDuplicatePpm = 20'000;
constexpr std::uint64_t kHostPpm = 185'806;   // 267,560 / 1,440,000
constexpr std::uint64_t kAliasPpm = 71'461;   // 102,904 / 1,440,000
constexpr std::uint64_t kDensePpm = 2'040;    //   2,938 / 1,440,000

/// Keeps a micro-loop's result observable so the loop is not elided.
volatile std::uint64_t g_sink = 0;

struct TargetMix {
  std::vector<Ipv6Addr> targets;
  std::uint64_t hosts = 0, aliased = 0, dense = 0, duplicates = 0, misses = 0;
  std::uint64_t active_pool = 0;  // ICMP-active hosts the draw could use
};

/// Uniform address inside `prefix` (random bits below its length).
Ipv6Addr random_in(const v6::net::Prefix& prefix, v6::net::Rng& rng) {
  const int len = prefix.length();
  const std::uint64_t hi_free = len >= 64 ? 0 : ~0ULL >> len;
  const std::uint64_t lo_free =
      len <= 64 ? ~0ULL : (len >= 128 ? 0 : ~0ULL >> (len - 64));
  const std::uint64_t hi_noise = rng();
  const std::uint64_t lo_noise = rng();
  const Ipv6Addr& base = prefix.addr();
  return Ipv6Addr((base.hi() & ~hi_free) | (hi_noise & hi_free),
                  (base.lo() & ~lo_free) | (lo_noise & lo_free));
}

TargetMix make_targets(const v6::simnet::Universe& universe,
                       std::uint64_t seed) {
  v6::net::Rng rng = v6::net::make_rng(seed, /*tag=*/0x5CA9);
  std::vector<Ipv6Addr> hosts;
  std::vector<Ipv6Addr> active;
  universe.for_each_host([&](const v6::simnet::HostRecord& h) {
    hosts.push_back(h.addr);
    if (v6::net::has_service(h.services, kType)) active.push_back(h.addr);
  });
  std::shuffle(active.begin(), active.end(), rng);
  const std::span<const v6::simnet::AliasRegion> regions =
      universe.alias_regions();
  const auto& dense = universe.dense_region();
  if (hosts.empty() || regions.empty() || !dense.has_value()) {
    throw std::runtime_error("universe lacks hosts, alias or dense regions");
  }

  TargetMix mix;
  mix.targets.reserve(kTargets);
  std::size_t next_active = 0;
  for (std::size_t i = 0; i < kTargets; ++i) {
    if (i > 0 && rng() % kPpm < kDuplicatePpm) {
      mix.targets.push_back(mix.targets[rng() % mix.targets.size()]);
      ++mix.duplicates;
      continue;
    }
    const std::uint64_t roll = rng() % kPpm;
    if (roll < kHostPpm) {
      if (next_active == active.size()) {
        throw std::runtime_error("too few ICMP-active hosts for the mix");
      }
      mix.targets.push_back(active[next_active++]);
      ++mix.hosts;
    } else if (roll < kHostPpm + kAliasPpm) {
      mix.targets.push_back(
          random_in(regions[rng() % regions.size()].prefix, rng));
      ++mix.aliased;
    } else if (roll < kHostPpm + kAliasPpm + kDensePpm) {
      const Ipv6Addr in = random_in(dense->prefix, rng);
      mix.targets.emplace_back(in.hi(), 1);
      ++mix.dense;
    } else {
      const Ipv6Addr& host = hosts[rng() % hosts.size()];
      mix.targets.emplace_back(host.hi(), rng());
      ++mix.misses;
    }
  }
  mix.active_pool = active.size();
  return mix;
}

struct Pass {
  v6::probe::ScanStats stats;
  std::vector<Ipv6Addr> hits;
  std::uint64_t invalid_replies = 0;
  double wall = 0.0;
};

v6::probe::StreamScanOptions scan_options(std::uint64_t seed) {
  return v6::probe::StreamScanOptions{}.with_shards(1).with_scan(
      v6::probe::ScanOptions{}.with_seed(seed));
}

/// One StreamScanner::scan over the targets; only the call is timed.
Pass scan_once(const v6::simnet::Universe& universe,
               std::span<const Ipv6Addr> targets, std::uint64_t seed) {
  Pass pass;
  v6::probe::StreamScanner scanner(universe, nullptr, scan_options(seed));
  pass.hits.reserve(targets.size() / 4);
  const auto start = Clock::now();
  pass.stats = scanner.scan(targets, kType,
                            [&pass](const Ipv6Addr& addr,
                                    v6::net::ProbeReply reply) {
                              if (v6::net::is_hit(kType, reply)) {
                                pass.hits.push_back(addr);
                              }
                            });
  pass.wall = seconds_since(start);
  pass.invalid_replies = scanner.invalid_replies();
  return pass;
}

/// Invariants of one scan: one operation per probed target.
void audit_pass(const v6::simnet::Universe& universe, const Pass& pass,
                Audit& audit) {
  const v6::probe::ScanStats& s = pass.stats;
  audit.expect(pass.invalid_replies == 0 &&
                   s.targets == s.deduped + s.blocked + s.probed &&
                   s.hits == pass.hits.size(),
               "scan counters break targets == deduped + blocked + probed",
               std::max<std::uint64_t>(s.probed, 1));
  std::uint64_t bad = 0;
  for (const Ipv6Addr& hit : pass.hits) {
    if (!can_answer(universe, hit, kType)) ++bad;
  }
  // The counter check above already counted every probed target once.
  if (bad != 0) {
    audit.failed += bad;
    audit.failures.emplace_back("scan hits that ground truth cannot answer");
  }
}

bool same_pass(const Pass& a, const Pass& b) {
  const v6::probe::ScanStats& x = a.stats;
  const v6::probe::ScanStats& y = b.stats;
  return a.hits == b.hits && x.targets == y.targets &&
         x.deduped == y.deduped && x.blocked == y.blocked &&
         x.probed == y.probed && x.packets == y.packets && x.hits == y.hits &&
         x.rsts == y.rsts && x.unreachables == y.unreachables &&
         x.timeouts == y.timeouts && x.virtual_seconds == y.virtual_seconds;
}

std::uint64_t digest_of(const Pass& pass) {
  Digest digest;
  const v6::probe::ScanStats& s = pass.stats;
  for (const std::uint64_t v : {s.targets, s.deduped, s.blocked, s.probed,
                                s.packets, s.hits, s.rsts, s.unreachables,
                                s.timeouts}) {
    digest.add(v);
  }
  digest.add(s.virtual_seconds);
  for (const Ipv6Addr& hit : pass.hits) digest.add(hit);
  return digest.value();
}

v6::simnet::Universe build_universe() {
  return v6::simnet::UniverseBuilder::build(
      v6::experiment::WorkbenchConfig{}.universe);
}

Result timed(const Options& options) {
  Result result;
  std::vector<double> setups;
  std::optional<v6::simnet::Universe> universe;
  TargetMix mix;
  for (int i = 0; i < kSetupRepeats; ++i) {
    universe.reset();
    mix = TargetMix{};
    const auto start = Clock::now();
    universe.emplace(build_universe());
    mix = make_targets(*universe, options.seed);
    setups.push_back(seconds_since(start));
  }

  std::vector<double> walls;
  std::uint64_t probed = 0;
  const auto phase = Clock::now();
  std::optional<Pass> first;
  do {
    Pass pass = scan_once(*universe, mix.targets, options.seed);
    walls.push_back(pass.wall);
    audit_pass(*universe, pass, result.audit);
    if (!first.has_value()) {
      result.digest = digest_of(pass);
      probed = pass.stats.probed;
      first = std::move(pass);
    } else {
      result.audit.expect(same_pass(pass, *first),
                          "scan results differ between repetitions");
    }
  } while (walls.size() < kMinSamples ||
           seconds_since(phase) + walls.back() <= options.seconds);

  const double scan_s = median(walls);
  const double probes_per_s = static_cast<double>(probed) / scan_s;
  result.metrics = {{"setup_s", median(setups), "s"},
                    {"work_s", scan_s, "s"},
                    {"throughput_per_s", probes_per_s, "1/s"},
                    {"peak_rss_mib", peak_rss_mib(), "MiB"}};
  result.info = {
      {"probes_per_s", probes_per_s, "1/s"},
      {"scan_samples", static_cast<double>(walls.size()), "count"},
      {"setup_samples", static_cast<double>(setups.size()), "count"},
      {"targets", static_cast<double>(mix.targets.size()), "count"},
      {"mix.hosts", static_cast<double>(mix.hosts), "count"},
      {"mix.aliased", static_cast<double>(mix.aliased), "count"},
      {"mix.dense", static_cast<double>(mix.dense), "count"},
      {"mix.duplicates", static_cast<double>(mix.duplicates), "count"},
      {"mix.misses", static_cast<double>(mix.misses), "count"},
      {"mix.active_pool", static_cast<double>(mix.active_pool), "count"},
      {"probed", static_cast<double>(probed), "count"},
      {"hits", static_cast<double>(first->stats.hits), "count"}};
  add_range(result.info, "scan_s", walls, "s");
  add_range(result.info, "setup_s", setups, "s");
  return result;
}

StageCosts time_stages_over(const v6::simnet::Universe& universe,
                            std::span<const Ipv6Addr> targets,
                            std::uint64_t seed) {
  StageCosts costs;
  const double n = static_cast<double>(targets.size());
  std::uint64_t sink = 0;

  auto start = Clock::now();
  const v6::probe::ShardPlan plan(targets.size(), seed);
  v6::probe::ShardWalk walk(plan, 0, 1);
  v6::probe::ShardItem item;
  while (walk.next(&item)) sink += item.index;
  costs.walk_ns = seconds_since(start) * 1e9 / n;

  std::vector<Ipv6Addr> unique;
  unique.reserve(targets.size());
  start = Clock::now();
  v6::net::AddrIndexMap seen;
  seen.reserve(targets.size());
  for (const Ipv6Addr& addr : targets) {
    if (seen.insert(addr, 0)) unique.push_back(addr);
  }
  costs.dedup_ns = seconds_since(start) * 1e9 / n;

  // Tokens go through memory between stamping and validation, as they
  // would on the wire, so the check cannot be folded away.
  const double u = static_cast<double>(unique.size());
  std::vector<std::uint64_t> tokens(unique.size());
  start = Clock::now();
  for (std::size_t i = 0; i < unique.size(); ++i) {
    tokens[i] = v6::probe::probe_token(unique[i], seed);
  }
  for (std::size_t i = 0; i < unique.size(); ++i) {
    sink += v6::probe::validate_probe(unique[i], seed, tokens[i]) ? 1 : 0;
  }
  costs.auth_ns = seconds_since(start) * 1e9 / u;

  start = Clock::now();
  for (const Ipv6Addr& addr : unique) {
    v6::net::SplitMixRng rng(
        v6::net::splitmix64(v6::net::splitmix64(seed ^ addr.hi()) ^
                            addr.lo()));
    sink += static_cast<std::uint64_t>(universe.probe(addr, kType, rng));
  }
  costs.probe_ns = seconds_since(start) * 1e9 / u;
  g_sink = sink;
  return costs;
}

Result traced(const Options& options) {
  Result result;

  double untraced_wall = 0.0;
  Pass plain;
  {
    const auto start = Clock::now();
    const v6::simnet::Universe universe = build_universe();
    const TargetMix mix = make_targets(universe, options.seed);
    plain = scan_once(universe, mix.targets, options.seed);
    untraced_wall = seconds_since(start);
  }

  Layers layers;
  double traced_wall = 0.0;
  const auto start = Clock::now();
  std::optional<v6::simnet::Universe> universe;
  {
    Timed t(layers, "simnet.build_s");
    universe.emplace(build_universe());
  }
  TargetMix mix;
  {
    Timed t(layers, "perfbench.targets_s");
    mix = make_targets(*universe, options.seed);
  }
  const Pass pass = scan_once(*universe, mix.targets, options.seed);
  layers.add("probe.scan_s", pass.wall);
  StageCosts costs;
  {
    Timed t(layers, "trace.micro_s");
    costs = time_stages(*universe, options.seed);
  }
  traced_wall = seconds_since(start);

  audit_pass(*universe, pass, result.audit);
  result.audit.expect(same_pass(pass, plain),
                      "traced scan differs from the untraced one");
  result.digest = digest_of(pass);

  const v6::probe::ScanStats& s = pass.stats;
  const double targets = static_cast<double>(s.targets);
  const double probed = static_cast<double>(s.probed);
  const double packets = static_cast<double>(s.packets);
  layers.emit(traced_wall, result);
  result.metrics.push_back(
      {"trace.overhead_ratio", traced_wall / untraced_wall, "ratio"});
  add_stage_rows(costs, result.metrics);
  // A difference of estimates, so it can come out negative; the fused
  // 1-shard loop authenticates nothing, so auth time is not subtracted.
  result.info.push_back(
      {"probe.engine_other_s",
       pass.wall - (costs.walk_ns * targets + costs.dedup_ns * targets +
                    costs.probe_ns * packets) * 1e-9,
       "s"});
  result.metrics.insert(
      result.metrics.end(),
      {{"probe.targets", targets, "count"},
       {"probe.deduped", static_cast<double>(s.deduped), "count"},
       {"probe.probed", probed, "count"},
       {"probe.packets", packets, "count"},
       {"probe.hits", static_cast<double>(s.hits), "count"},
       {"probe.hit_ratio", static_cast<double>(s.hits) / probed, "ratio"},
       {"probe.packets_per_probe", packets / probed, "ratio"}});
  return result;
}

}  // namespace

StageCosts time_stages(const v6::simnet::Universe& universe,
                       std::uint64_t seed) {
  const TargetMix mix = make_targets(universe, seed);
  return time_stages_over(universe, mix.targets, seed);
}

Result run_scan(const Options& options) {
  return options.trace ? traced(options) : timed(options);
}

}  // namespace perfbench
