// Extension bench: hitlist aging. The paper's RQ1.b shows stale seeds
// hurt generation and cites hitlist-decay work ("Rusty Clusters"); this
// bench makes the temporal dimension explicit: age the simulated
// Internet epoch by epoch, track how a day-0 hitlist decays, and compare
// a TGA fed the stale day-0 hitlist against one fed a re-verified
// (re-scanned) seed set at each epoch.
#include <functional>
#include <iostream>
#include <unordered_set>

#include "bench_common.h"
#include "dealias/online_dealiaser.h"
#include "probe/scanner.h"
#include "probe/transport.h"
#include "seeds/preprocess.h"
#include "simnet/universe_builder.h"

using v6::metrics::fmt_count;
using v6::metrics::fmt_percent;
using v6::net::Ipv6Addr;
using v6::net::ProbeType;

int main(int argc, char** argv) {
  const v6::bench::BenchArgs args = v6::bench::parse_args(argc, argv, 150'000);
  const std::uint64_t budget = args.budget;

  v6::bench::BenchTimer timer("ext_aging", args);

  // A private universe: this bench mutates it across epochs.
  v6::simnet::UniverseConfig universe_config;
  universe_config.seed = 42;
  universe_config.num_ases = 2000;
  universe_config.host_scale = 0.12;
  auto universe = v6::simnet::UniverseBuilder::build(universe_config);

  // Day-0 hitlist: responsive seeds, jointly dealiased (offline list +
  // online probing) per the paper's RQ1 best practice.
  v6::seeds::SeedCollector collector(universe, 42);
  v6::dealias::AliasList alias_list =
      v6::dealias::AliasList::published_from(universe);
  std::vector<Ipv6Addr> day0;
  {
    const auto collected = collector.collect_all();
    v6::probe::SimTransport transport(universe, 42);
    v6::probe::Scanner scanner(transport, nullptr, {.seed = 42});
    const auto activity = v6::seeds::scan_activity(
        collected, std::bind_front(&v6::probe::Scanner::scan, &scanner));
    v6::dealias::OnlineDealiaser online(transport, 42);
    v6::dealias::Dealiaser joint(v6::dealias::DealiasMode::kJoint,
                                 &alias_list, &online);
    for (const Ipv6Addr& addr : collected.addrs()) {
      if (activity.active_any(addr) &&
          !joint.is_aliased(addr, ProbeType::kIcmp)) {
        day0.push_back(addr);
      }
    }
  }
  std::cout << "day-0 hitlist: " << fmt_count(day0.size())
            << " responsive seeds\n\n";

  v6::metrics::TextTable table({"Epoch", "Hitlist still alive",
                                "Stale-seed hits", "Re-verified hits",
                                "Re-verified seeds"});

  for (int epoch = 0; epoch <= 4; ++epoch) {
    if (epoch > 0) {
      v6::simnet::AgingConfig aging;
      aging.seed = 1000 + static_cast<std::uint64_t>(epoch);
      v6::simnet::UniverseBuilder::age(universe, aging);
    }

    // How much of the day-0 hitlist still answers, on any probe type?
    v6::probe::SimTransport check_transport(universe, 7 + epoch);
    v6::probe::Scanner check_scanner(check_transport, nullptr,
                                     {.seed = 7ull + epoch});
    std::unordered_set<Ipv6Addr> alive;
    for (const ProbeType type : v6::net::kAllProbeTypes) {
      for (const Ipv6Addr& addr : check_scanner.scan_hits(day0, type).hits) {
        alive.insert(addr);
      }
    }
    std::vector<Ipv6Addr> verified;
    for (const Ipv6Addr& addr : day0) {
      if (alive.contains(addr)) verified.push_back(addr);
    }

    // TGA runs: stale day-0 seeds vs the re-verified subset.
    v6::experiment::PipelineConfig config;
    config.budget = budget;
    config.seed = 42 + static_cast<std::uint64_t>(epoch);
    const auto stale_run = v6::bench::run_one_tga(
        universe, v6::tga::TgaKind::kDet, day0, alias_list, config);
    timer.record("epoch_" + std::to_string(epoch) + "/stale", {stale_run});
    const auto& stale = stale_run.outcome;
    const auto fresh_run = v6::bench::run_one_tga(
        universe, v6::tga::TgaKind::kDet, verified, alias_list, config);
    timer.record("epoch_" + std::to_string(epoch) + "/reverified",
                 {fresh_run});
    const auto& fresh = fresh_run.outcome;

    table.add_row({std::to_string(epoch),
                   fmt_percent(static_cast<double>(verified.size()) /
                               static_cast<double>(day0.size())),
                   fmt_count(stale.hits()), fmt_count(fresh.hits()),
                   fmt_count(verified.size())});
    std::cerr << "epoch " << epoch << " done\n";
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: the day-0 hitlist decays every epoch; "
               "re-verifying seeds before generation recovers an "
               "increasing share of the lost hits (the paper's "
               "pre-scan-your-seeds recommendation, extended in time).\n";
  return 0;
}
