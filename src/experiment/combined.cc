#include "experiment/combined.h"

#include <unordered_map>

#include "dealias/dealiaser.h"
#include "experiment/scan_rig.h"

namespace v6::experiment {

using v6::net::Ipv6Addr;
using v6::net::ProbeReply;
using v6::net::ProbeType;

CombinedResult run_combined(
    const v6::simnet::Universe& universe,
    std::span<v6::tga::TargetGenerator* const> generators,
    const v6::tga::SeedIndex& seeds,
    const v6::dealias::AliasList& offline_aliases,
    const PipelineConfig& config) {
  config.validate();
  CombinedResult result;
  result.per_generator.resize(generators.size());

  v6::obs::Span run_span(config.telemetry, "combined.run");
  ScanRig rig(universe, config);
  v6::dealias::Dealiaser dealiaser(v6::dealias::DealiasMode::kJoint,
                                   &offline_aliases, &rig.online());

  for (std::size_t g = 0; g < generators.size(); ++g) {
    generators[g]->prepare_shared(seeds, config.seed + g);
    generators[g]->attach_online_dealiaser(&rig.online(), config.type);
  }

  // Addresses already scanned in an earlier round (and their verdicts):
  // combined scanning probes each address at most once per campaign.
  std::unordered_map<Ipv6Addr, bool> scanned;  // addr -> active

  std::vector<std::uint64_t> generated(generators.size(), 0);
  bool progress = true;
  while (progress) {
    progress = false;

    // 1. Gather this round's proposals with per-generator attribution.
    // round_order keeps proposers' keys in first-proposal order so step
    // 3 never walks the map itself: hash order would feed the online
    // dealiaser (whose RNG stream is shared across verdicts) and the
    // generators' observe() in a toolchain-dependent sequence.
    std::unordered_map<Ipv6Addr, std::uint32_t> proposers;  // addr -> mask
    std::vector<Ipv6Addr> round_order;
    std::vector<Ipv6Addr> round_targets;
    for (std::size_t g = 0; g < generators.size(); ++g) {
      if (generated[g] >= config.budget) continue;
      const std::uint64_t want = std::min<std::uint64_t>(
          config.batch_size, config.budget - generated[g]);
      const auto batch =
          generators[g]->next_batch(static_cast<std::size_t>(want));
      if (batch.empty()) continue;
      progress = true;
      generated[g] += batch.size();
      result.per_generator[g].generated += batch.size();
      result.per_generator[g].unique_generated += batch.size();
      result.proposals += batch.size();
      for (const Ipv6Addr& addr : batch) {
        const auto [it, inserted] = proposers.emplace(addr, 0u);
        it->second |= 1u << g;
        if (inserted) {
          round_order.push_back(addr);
          if (!scanned.contains(addr)) round_targets.push_back(addr);
        }
      }
    }
    if (proposers.empty()) break;

    // 2. Scan the union once.
    result.unique_scanned += round_targets.size();
    {
      v6::obs::Span span(config.telemetry, "combined.scan");
      rig.scan(round_targets, config.type,
               [&](const Ipv6Addr& addr, ProbeReply reply) {
                 scanned.emplace(addr, v6::net::is_hit(config.type, reply));
               });
    }

    // 3. Attribute results back to every proposing generator.
    for (const Ipv6Addr& addr : round_order) {
      const std::uint32_t mask = proposers.find(addr)->second;
      const auto it = scanned.find(addr);
      const bool active = it != scanned.end() && it->second;
      bool is_alias = false;
      bool in_dense = false;
      if (active) {
        is_alias = dealiaser.is_aliased(addr, config.type);
        in_dense = config.filter_dense && config.type == ProbeType::kIcmp &&
                   universe.in_dense_region(addr);
      }
      for (std::size_t g = 0; g < generators.size(); ++g) {
        if (!(mask & (1u << g))) continue;
        generators[g]->observe(addr, active);
        if (!active) continue;
        auto& outcome = result.per_generator[g];
        ++outcome.responsive;
        if (is_alias) {
          ++outcome.aliases;
        } else if (in_dense) {
          ++outcome.dense_filtered;
        } else {
          outcome.hit_set.insert(addr);
          if (const auto asn = universe.asn_of(addr)) {
            outcome.as_set.insert(*asn);
          }
        }
      }
      if (active && !is_alias && !in_dense) {
        result.union_hits.insert(addr);
        if (const auto asn = universe.asn_of(addr)) {
          result.union_ases.insert(*asn);
        }
      }
    }
  }

  result.packets = rig.packets_sent();
  for (auto& outcome : result.per_generator) {
    outcome.packets = result.packets;  // shared scan: same wire cost
    outcome.virtual_seconds = rig.virtual_seconds();
  }
  return result;
}

}  // namespace v6::experiment
