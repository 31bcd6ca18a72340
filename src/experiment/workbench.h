// Workbench: the shared experiment fixture. Builds the simulated
// Internet, collects the 12-source seed dataset, scans it for activity,
// and materializes every seed-dataset variant studied by the paper
// (Table 2): Full, Offline/Online/Joint-dealiased, All Active,
// port-specific, and source-specific. The constructor computes the
// joint-dealiased variant beside the activity scan; the others are
// computed lazily. Every variant is cached, and everything is
// deterministic in the master seed.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "dealias/alias_list.h"
#include "dealias/dealiaser.h"
#include "net/ipv6.h"
#include "net/service.h"
#include "obs/telemetry.h"
#include "seeds/collector.h"
#include "seeds/preprocess.h"
#include "seeds/seed_dataset.h"
#include "simnet/universe.h"
#include "simnet/universe_config.h"

namespace v6::experiment {

struct WorkbenchConfig {
  v6::simnet::UniverseConfig universe;
  std::uint64_t seed = 42;
  /// Optional instrumentation context (borrowed): times the fixture
  /// phases (`workbench.*` spans) and threads into the activity scan.
  v6::obs::Telemetry* telemetry = nullptr;

  WorkbenchConfig& with_telemetry(v6::obs::Telemetry* t) {
    telemetry = t;
    return *this;
  }

  WorkbenchConfig() {
    universe.seed = seed;
    // Scale the universe so that the full experiment suite finishes in
    // minutes while preserving the paper's budget:population regime
    // (generation budget ~4.5x the responsive seed population).
    universe.num_ases = 2000;
    universe.host_scale = 0.12;
    universe.dense_region_prefix_len = 48;
  }
};

class Workbench {
 public:
  explicit Workbench(WorkbenchConfig config = {});

  const v6::simnet::Universe& universe() const { return universe_; }
  const v6::seeds::SeedDataset& seeds() const { return seeds_; }
  const v6::dealias::AliasList& alias_list() const { return alias_list_; }
  const v6::seeds::ActivityMap& activity() const { return activity_; }
  std::uint64_t seed() const { return config_.seed; }

  // ---- Seed dataset variants (paper Table 2) ---------------------------

  /// The full collected dataset ("All"): the seed dataset's own vector.
  const std::vector<v6::net::Ipv6Addr>& full() const { return seeds_.addrs(); }

  /// Dealiased under `mode` ("Offline Dealiased" / "Online Dealiased" /
  /// the joint "Active-Inactive" baseline). kNone returns full().
  const std::vector<v6::net::Ipv6Addr>& dealiased(v6::dealias::DealiasMode mode);

  /// Joint-dealiased, restricted to addresses responsive on >= 1 probe
  /// type ("All Active").
  const std::vector<v6::net::Ipv6Addr>& all_active();

  /// All Active restricted to addresses responsive on `type`
  /// (port-specific datasets, RQ2).
  const std::vector<v6::net::Ipv6Addr>& port_specific(v6::net::ProbeType type);

  /// All Active restricted to one seed source (RQ3).
  const std::vector<v6::net::Ipv6Addr>& source_active(
      v6::seeds::SeedSource source);

  /// Materializes every Table-2 variant, computing independent ones
  /// `jobs` at a time (0 = runtime::default_jobs()). Afterwards all
  /// accessors above are pure cache reads. Each variant is guarded by a
  /// once_flag, so lazy accessors stay safe (and deterministic) when
  /// called from several threads — with or without a precompute() first.
  void precompute(unsigned jobs = 0);

 private:
  WorkbenchConfig config_;
  v6::simnet::Universe universe_;
  v6::seeds::SeedDataset seeds_;
  v6::dealias::AliasList alias_list_;
  /// One mask per address of seeds_, at its position there.
  v6::seeds::ActivityMap activity_;

  // Each lazily-computed variant pairs its cache slot with a once_flag;
  // computations are deterministic functions of the master seed, so
  // whichever thread wins call_once produces the same bytes.
  std::array<std::optional<std::vector<v6::net::Ipv6Addr>>, 4> dealiased_;
  std::array<std::once_flag, 4> dealiased_once_;
  std::optional<std::vector<v6::net::Ipv6Addr>> all_active_;
  std::once_flag all_active_once_;
  std::array<std::optional<std::vector<v6::net::Ipv6Addr>>,
             v6::net::kNumProbeTypes>
      port_specific_;
  std::array<std::once_flag, v6::net::kNumProbeTypes> port_specific_once_;
  std::array<std::optional<std::vector<v6::net::Ipv6Addr>>,
             v6::seeds::kNumSeedSources>
      source_active_;
  std::array<std::once_flag, v6::seeds::kNumSeedSources> source_active_once_;
};

}  // namespace v6::experiment
