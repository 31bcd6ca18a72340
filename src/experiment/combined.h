// Combined multi-TGA scanning, as the paper actually conducts its scans
// (§4.2): "We combine all addresses generated between TGAs per dataset
// per port and scan those unique IPs together, for consistency and to
// minimize the times each address is probed."
//
// Each round, every generator contributes a batch; the union is scanned
// once; results are attributed back to every generator that proposed the
// address (feeding the online models), and the per-generator outcomes
// plus the overall union are reported. The packet savings relative to
// scanning each generator's output separately are measured directly.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dealias/alias_list.h"
#include "experiment/pipeline.h"
#include "metrics/scan_outcome.h"
#include "net/ipv6.h"
#include "simnet/universe.h"
#include "tga/seed_index.h"
#include "tga/target_generator.h"

namespace v6::experiment {

struct CombinedResult {
  /// Outcome attributed to each generator, index-aligned with the input
  /// span. An address proposed by several generators counts for each.
  std::vector<v6::metrics::ScanOutcome> per_generator;
  /// Union of all dealiased hits across generators.
  std::unordered_set<v6::net::Ipv6Addr> union_hits;
  std::unordered_set<std::uint32_t> union_ases;
  /// Unique addresses scanned vs. the sum of generator proposals —
  /// the probe savings the combined methodology exists for.
  std::uint64_t proposals = 0;
  std::uint64_t unique_scanned = 0;
  std::uint64_t packets = 0;
};

/// Runs all `generators` together over one seed dataset, scanning the
/// per-round union once through one ScanRig built from `config`, whose
/// `budget` is each generator's budget. Generator g is prepared on the
/// borrowed `seeds` with seed `config.seed + g`; the caller owns the
/// index, which must outlive every later use of the generators. Throws
/// check::ConfigError on an invalid config.
CombinedResult run_combined(
    const v6::simnet::Universe& universe,
    std::span<v6::tga::TargetGenerator* const> generators,
    const v6::tga::SeedIndex& seeds,
    const v6::dealias::AliasList& offline_aliases,
    const PipelineConfig& config);

}  // namespace v6::experiment
