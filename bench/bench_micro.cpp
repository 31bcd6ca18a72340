// Microbenchmarks (google-benchmark): throughput of the primitives the
// experiment pipeline is built from — address parse/format, LPM trie,
// universe probing, space-tree construction, per-TGA generate-and-observe
// cycles, and the scanner loop.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "dealias/online_dealiaser.h"
#include "experiment/workbench.h"
#include "net/addr_index.h"
#include "net/ipv6.h"
#include "net/prefix_trie.h"
#include "net/rng.h"
#include "obs/telemetry.h"
#include "probe/instrumented_transport.h"
#include "probe/scanner.h"
#include "probe/transport.h"
#include "simnet/universe_builder.h"
#include "tga/registry.h"
#include "tga/space_tree.h"

namespace {

using v6::net::Ipv6Addr;

/// Small, fast-to-build universe shared across benchmarks.
const v6::simnet::Universe& small_universe() {
  static const v6::simnet::Universe universe = [] {
    v6::simnet::UniverseConfig config;
    config.seed = 7;
    config.num_ases = 300;
    config.host_scale = 0.1;
    return v6::simnet::UniverseBuilder::build(config);
  }();
  return universe;
}

std::vector<Ipv6Addr> sample_seeds(std::size_t n) {
  const auto hosts = small_universe().hosts();
  std::vector<Ipv6Addr> seeds;
  seeds.reserve(n);
  const std::size_t stride = std::max<std::size_t>(1, hosts.size() / n);
  for (std::size_t i = 0; i < hosts.size() && seeds.size() < n; i += stride) {
    seeds.push_back(hosts[i].addr);
  }
  return seeds;
}

void BM_Ipv6Parse(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Ipv6Addr::parse("2001:db8:85a3::8a2e:370:7334"));
  }
}
BENCHMARK(BM_Ipv6Parse);

void BM_Ipv6Format(benchmark::State& state) {
  const Ipv6Addr addr = Ipv6Addr::must_parse("2001:db8:85a3::8a2e:370:7334");
  for (auto _ : state) {
    benchmark::DoNotOptimize(addr.to_string());
  }
}
BENCHMARK(BM_Ipv6Format);

void BM_AddrIndexFind(benchmark::State& state) {
  // The lookup behind Universe::probe: an index of positions in a key
  // array, as Universe keeps over its host records, so a hit reads its
  // key back from the array. Half the queries hit, half miss.
  v6::net::AddrIndex index;
  std::vector<Ipv6Addr> keys;
  v6::net::Rng rng(5);
  std::vector<Ipv6Addr> queries;
  for (std::uint32_t i = 0; i < 100'000; ++i) {
    const Ipv6Addr addr(rng(), rng());
    index.insert(addr, keys.size(), v6::net::key_in(keys));
    keys.push_back(addr);
    queries.push_back((i % 2) == 0 ? addr : Ipv6Addr(rng(), rng()));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        index.find(queries[i % queries.size()], v6::net::key_in(keys)));
    ++i;
  }
}
BENCHMARK(BM_AddrIndexFind);

void BM_UniverseProbe(benchmark::State& state) {
  const auto& universe = small_universe();
  v6::net::Rng rng(2);
  const auto hosts = universe.hosts();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(universe.probe(
        hosts[i % hosts.size()].addr, v6::net::ProbeType::kIcmp, rng));
    ++i;
  }
}
BENCHMARK(BM_UniverseProbe);

/// A universe of the paper sweep's size (the Workbench's 2,000 ASes at
/// host scale 0.12, ~400k hosts).
const v6::simnet::Universe& sweep_universe() {
  static const v6::simnet::Universe universe = [] {
    v6::simnet::UniverseConfig config;
    config.seed = 7;
    config.num_ases = 2000;
    config.host_scale = 0.12;
    return v6::simnet::UniverseBuilder::build(config);
  }();
  return universe;
}

/// A stride sample of the sweep universe's hosts (~96k seeds): enough
/// that DET's space tree has over 10k leaf regions, the scale at which
/// per-chunk region selection dominates the paper sweep (reported as the
/// `det_regions` counter).
const std::vector<Ipv6Addr>& cycle_seeds() {
  static const std::vector<Ipv6Addr> seeds = [] {
    const auto hosts = sweep_universe().hosts();
    std::vector<Ipv6Addr> sample;
    for (std::size_t i = 0; i < hosts.size(); i += 4) {
      sample.push_back(hosts[i].addr);
    }
    return sample;
  }();
  return seeds;
}

/// Probe targets of one traffic class on sweep_universe(), drawn the way
/// the perfbench `scan` workload draws its target mix: 0 ICMP-active
/// hosts, 1 random addresses inside alias regions, 2 `::1` in random
/// /64s of the dense region, 3 misses (a random interface identifier in
/// a host's /64), and 4 all four at the scan mix's shares (18.58%,
/// 7.15%, 0.20%, 74.07%).
constexpr const char* kProbeClassNames[] = {"active", "alias", "dense",
                                            "miss", "mix"};

const std::vector<Ipv6Addr>& probe_class_targets(std::int64_t cls) {
  static const std::vector<std::vector<Ipv6Addr>> by_class = [] {
    const auto& universe = sweep_universe();
    const auto hosts = universe.hosts();
    std::vector<Ipv6Addr> active;
    for (const auto& h : hosts) {
      if (v6::net::has_service(h.services, v6::net::ProbeType::kIcmp)) {
        active.push_back(h.addr);
      }
    }
    const auto regions = universe.alias_regions();
    const v6::net::Prefix dense = universe.dense_region()->prefix;
    v6::net::Rng rng(17);
    auto draw = [&](int c) {
      switch (c) {
        case 0:
          return active[rng() % active.size()];
        case 1:
          return v6::net::random_in_prefix(
              rng, regions[rng() % regions.size()].prefix);
        case 2:
          return Ipv6Addr(v6::net::random_in_prefix(rng, dense).hi(), 1);
        default:
          return Ipv6Addr(hosts[rng() % hosts.size()].addr.hi(), rng());
      }
    };
    std::vector<std::vector<Ipv6Addr>> out(std::size(kProbeClassNames));
    for (std::size_t c = 0; c < out.size(); ++c) {
      for (int i = 0; i < (1 << 16); ++i) {
        int pick = static_cast<int>(c);
        if (pick == 4) {
          const std::uint64_t roll = rng() % 1'000'000;
          pick = roll < 185'806   ? 0
                 : roll < 257'267 ? 1
                 : roll < 259'307 ? 2
                                  : 3;
        }
        out[c].push_back(draw(pick));
      }
    }
    return out;
  }();
  return by_class[static_cast<std::size_t>(cls)];
}

void BM_TrieLongestMatch(benchmark::State& state) {
  // 0: 10k random prefixes over 17 lengths (/32../48), probed at a new
  //    random /32 each time, so nearly every probe misses.
  // 1: sweep_universe()'s alias regions, probed with the scan mix (every
  //    Universe::probe makes this match first).
  // 2: its routing table, probed with the misses (the probes that fall
  //    through to the route match).
  v6::net::PrefixTrie<std::uint32_t> trie;
  if (state.range(0) == 0) {
    v6::net::Rng rng(1);
    for (int i = 0; i < 10'000; ++i) {
      const Ipv6Addr a(rng(), 0);
      trie.insert(v6::net::Prefix(a, 32 + static_cast<int>(rng() % 17)),
                  static_cast<std::uint32_t>(i));
    }
    Ipv6Addr probe(rng(), rng());
    for (auto _ : state) {
      benchmark::DoNotOptimize(trie.longest_match(probe));
      probe = Ipv6Addr(probe.hi() + 0x100000000ULL, probe.lo());
    }
    state.SetLabel("random");
    return;
  }
  const auto& universe = sweep_universe();
  if (state.range(0) == 1) {
    const auto regions = universe.alias_regions();
    for (std::size_t i = 0; i < regions.size(); ++i) {
      trie.insert(regions[i].prefix, static_cast<std::uint32_t>(i));
    }
  } else {
    for (const auto& [prefix, asn] : universe.routes().announcements()) {
      trie.insert(prefix, asn);
    }
  }
  const auto& queries = probe_class_targets(state.range(0) == 1 ? 4 : 3);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(trie.longest_match(queries[i]));
    if (++i == queries.size()) i = 0;
  }
  state.SetLabel(state.range(0) == 1 ? "alias" : "route");
}
BENCHMARK(BM_TrieLongestMatch)->DenseRange(0, 2);

void BM_UniverseProbeByClass(benchmark::State& state) {
  // Universe::probe over one traffic class of sweep_universe(); class 4
  // is the mix the perfbench `scan` workload sends. The second argument
  // is the lookahead: 0 probes cold, 8 issues Universe::prefetch for the
  // target 8 probes ahead, as StreamScanner's walks do.
  const auto& universe = sweep_universe();
  const auto& targets = probe_class_targets(state.range(0));
  const std::size_t ahead = static_cast<std::size_t>(state.range(1));
  v6::net::Rng rng(2);
  std::size_t i = 0;
  for (auto _ : state) {
    if (ahead != 0) universe.prefetch(targets[(i + ahead) % targets.size()]);
    benchmark::DoNotOptimize(
        universe.probe(targets[i], v6::net::ProbeType::kIcmp, rng));
    if (++i == targets.size()) i = 0;
  }
  state.SetLabel(std::string(kProbeClassNames[state.range(0)]) +
                 (ahead != 0 ? "/prefetch" : ""));
}
BENCHMARK(BM_UniverseProbeByClass)->ArgsProduct({{0, 1, 2, 3, 4}, {0, 8}});

void BM_SpaceTreeBuild(benchmark::State& state) {
  // Arguments: policy (0 leftmost, 1 min-entropy) and seed count: 1k or
  // 10k seeds of the small universe, or with count 0 the ~96k seeds of
  // cycle_seeds(), the sweep's scale, where more of the tree's upper
  // nodes (those over 4,096 seeds) split from a stride sample.
  const auto policy = state.range(0) == 0 ? v6::tga::SplitPolicy::kLeftmost
                                          : v6::tga::SplitPolicy::kMinEntropy;
  const std::vector<Ipv6Addr> seeds =
      state.range(1) == 0
          ? cycle_seeds()
          : sample_seeds(static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    v6::tga::SpaceTree tree(seeds, {.policy = policy});
    benchmark::DoNotOptimize(tree.regions().size());
  }
  state.SetLabel(state.range(0) == 0 ? "leftmost" : "min-entropy");
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(seeds.size()));
}
BENCHMARK(BM_SpaceTreeBuild)
    ->ArgsProduct({{0, 1}, {1000, 10000, 0}})
    ->Unit(benchmark::kMicrosecond);

void BM_TgaCycle(benchmark::State& state) {
  // The pipeline's loop: a fresh model spends a 20k budget in
  // 1,000-address batches, observing every address with the universe's
  // ground truth before asking for the next batch. Only prepare() and
  // teardown run untimed.
  constexpr std::size_t kBudget = 20'000;
  const auto kind =
      v6::tga::kAllTgas[static_cast<std::size_t>(state.range(0))];
  const auto& universe = sweep_universe();
  const auto& seeds = cycle_seeds();
  std::int64_t generated = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto generator = v6::tga::make_generator(kind);
    generator->prepare(seeds, 11);
    state.ResumeTiming();
    for (std::size_t spent = 0; spent < kBudget;) {
      const auto batch = generator->next_batch(1000);
      benchmark::DoNotOptimize(batch.data());
      if (batch.empty()) break;
      for (const Ipv6Addr& addr : batch) {
        generator->observe(addr, universe.host_active(
                                     addr, v6::net::ProbeType::kIcmp));
      }
      spent += batch.size();
      generated += static_cast<std::int64_t>(batch.size());
    }
    state.PauseTiming();
    generator.reset();
    state.ResumeTiming();
  }
  state.SetLabel(std::string(v6::tga::to_string(kind)));
  state.SetItemsProcessed(generated);
  state.counters["det_regions"] = static_cast<double>(
      v6::tga::SpaceTree(seeds, {.policy = v6::tga::SplitPolicy::kMinEntropy})
          .regions()
          .size());
}
BENCHMARK(BM_TgaCycle)
    ->DenseRange(0, v6::tga::kNumTgas - 1)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(5);

void BM_ScannerScan(benchmark::State& state) {
  const auto& universe = small_universe();
  const auto targets = sample_seeds(4096);
  v6::probe::SimTransport transport(universe, 3);
  v6::probe::Scanner scanner(transport, nullptr, {.seed = 3});
  for (auto _ : state) {
    auto result = scanner.scan_hits(targets, v6::net::ProbeType::kIcmp);
    benchmark::DoNotOptimize(result.hits.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(targets.size()));
}
BENCHMARK(BM_ScannerScan);

// The instrumented-but-unsinked hot path: CountingTransport in the
// chain, scanner telemetry attached, no event sink. The delta vs
// BM_ScannerScan is the per-packet observability overhead. Two tiers
// (docs/OBSERVABILITY.md, "Cost model"): sinkless spans + scalar
// counter tallies stay under the <2% bar; this bench additionally pays
// full per-reply wire accounting (RTT hash + histogram record) on every
// packet, because seed targets nearly all reply — that upper-bounds the
// wire-accounting cost at ~18ns/reply (~8% here). Timeout-heavy real
// scans pay it only on the replying fraction. Measure with
// --benchmark_repetitions and compare minima: shared-box noise (±15%)
// swamps single runs.
void BM_ScannerScanInstrumented(benchmark::State& state) {
  const auto& universe = small_universe();
  const auto targets = sample_seeds(4096);
  v6::obs::Telemetry telemetry;
  v6::probe::SimTransport sim_transport(universe, 3);
  v6::probe::CountingTransport transport(sim_transport,
                                         telemetry.registry());
  v6::probe::Scanner scanner(transport, nullptr,
                             {.seed = 3, .telemetry = &telemetry});
  for (auto _ : state) {
    auto result = scanner.scan_hits(targets, v6::net::ProbeType::kIcmp);
    benchmark::DoNotOptimize(result.hits.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(targets.size()));
}
BENCHMARK(BM_ScannerScanInstrumented);

void BM_OnlineDealiaser(benchmark::State& state) {
  const auto& universe = small_universe();
  v6::probe::SimTransport transport(universe, 4);
  const auto targets = sample_seeds(4096);
  std::size_t i = 0;
  v6::dealias::OnlineDealiaser dealiaser(transport, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dealiaser.is_aliased(
        targets[i % targets.size()], v6::net::ProbeType::kIcmp));
    ++i;
  }
}
BENCHMARK(BM_OnlineDealiaser);

}  // namespace

BENCHMARK_MAIN();
