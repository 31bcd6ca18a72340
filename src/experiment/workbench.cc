#include "experiment/workbench.h"

#include <functional>

#include "experiment/scan_rig.h"
#include "runtime/worker_group.h"
#include "simnet/universe_builder.h"

namespace v6::experiment {

using v6::net::Ipv6Addr;
using v6::net::ProbeType;

namespace {

// Builds the universe under a `workbench.build_universe` span: the
// universe is a member initialized before the constructor body runs, so
// the timing has to wrap the builder call itself.
v6::simnet::Universe build_universe_timed(const WorkbenchConfig& config) {
  v6::obs::Span span(config.telemetry, "workbench.build_universe");
  return v6::simnet::UniverseBuilder::build(config.universe);
}

}  // namespace

Workbench::Workbench(WorkbenchConfig config)
    : config_(config), universe_(build_universe_timed(config)) {
  {
    v6::obs::Span span(config_.telemetry, "workbench.collect");
    v6::seeds::SeedCollector collector(universe_, config_.seed);
    seeds_ = collector.collect_all(config_.telemetry);
    alias_list_ = v6::dealias::AliasList::published_from(universe_);
  }

  // The joint-dealiased dataset reads only the seeds, the alias list and
  // full(), never activity_, so one worker computes it while this thread
  // runs the activity scan (inline when default_jobs() is 1). Its rig
  // has no telemetry, so it opens no span and moves no counter.
  v6::runtime::WorkerGroup dealias_worker;
  const auto dealias_joint = [this] {
    dealiased(v6::dealias::DealiasMode::kJoint);
  };
  if (v6::runtime::default_jobs() > 1) {
    dealias_worker.spawn(dealias_joint);
  } else {
    dealias_joint();
  }

  {
    // Activity ground scan of the full dataset on all four probe types
    // (paper §5.3), with the paper's regular scan settings.
    v6::obs::Span span(config_.telemetry, "workbench.activity_scan");
    ScanRig rig(universe_, PipelineConfig{}
                               .with_seed(config_.seed)
                               .with_telemetry(config_.telemetry));
    activity_ = v6::seeds::scan_activity(
        seeds_, std::bind_front(&ScanRig::scan, &rig));
  }
  dealias_worker.join();
}

const std::vector<Ipv6Addr>& Workbench::dealiased(
    v6::dealias::DealiasMode mode) {
  if (mode == v6::dealias::DealiasMode::kNone) return full();
  const auto slot = static_cast<std::size_t>(mode);
  std::call_once(dealiased_once_[slot], [&] {
    // A private rig per variant, probed by its online dealiaser alone:
    // the verdicts are a deterministic function of (universe, seed)
    // regardless of which thread runs this.
    ScanRig rig(universe_, PipelineConfig{}.with_seed(config_.seed + 1));
    v6::dealias::Dealiaser dealiaser(mode, &alias_list_, &rig.online());
    // The paper dealiases seed datasets with ICMP-based probing.
    dealiased_[slot] = dealiaser.filter(full(), ProbeType::kIcmp);
  });
  return *dealiased_[slot];
}

const std::vector<Ipv6Addr>& Workbench::all_active() {
  std::call_once(all_active_once_, [&] {
    all_active_ = v6::seeds::filter_active_any(
        dealiased(v6::dealias::DealiasMode::kJoint), activity_);
  });
  return *all_active_;
}

const std::vector<Ipv6Addr>& Workbench::port_specific(ProbeType type) {
  const auto slot = static_cast<std::size_t>(type);
  std::call_once(port_specific_once_[slot], [&] {
    port_specific_[slot] =
        v6::seeds::filter_active_on(all_active(), activity_, type);
  });
  return *port_specific_[slot];
}

const std::vector<Ipv6Addr>& Workbench::source_active(
    v6::seeds::SeedSource source) {
  const auto slot = static_cast<std::size_t>(source);
  std::call_once(source_active_once_[slot], [&] {
    const std::uint16_t bit = v6::seeds::source_bit(source);
    std::vector<Ipv6Addr> out;
    for (const Ipv6Addr& addr : all_active()) {
      if (seeds_.sources_of(addr) & bit) out.push_back(addr);
    }
    source_active_[slot] = std::move(out);
  });
  return *source_active_[slot];
}

void Workbench::precompute(unsigned jobs) {
  // One span around the whole phase, opened on the calling thread only:
  // spans inside the parallel lambdas would nest differently depending
  // on which thread claimed which variant, making trace paths
  // scheduling-dependent.
  v6::obs::Span span(config_.telemetry, "workbench.precompute");
  // Stage the dependency chain explicitly: the three dealias modes are
  // independent of each other; All Active needs the joint mode; the 4
  // port-specific and 12 source-specific variants all hang off All
  // Active and are mutually independent.
  static constexpr std::array<v6::dealias::DealiasMode, 3> kModes = {
      v6::dealias::DealiasMode::kOffline, v6::dealias::DealiasMode::kOnline,
      v6::dealias::DealiasMode::kJoint};
  v6::runtime::parallel_for(jobs, kModes.size(),
                            [&](std::size_t i) { dealiased(kModes[i]); });
  all_active();
  constexpr std::size_t kNumPorts =
      static_cast<std::size_t>(v6::net::kNumProbeTypes);
  const std::size_t variants =
      kNumPorts + static_cast<std::size_t>(v6::seeds::kNumSeedSources);
  v6::runtime::parallel_for(jobs, variants, [&](std::size_t i) {
    if (i < kNumPorts) {
      port_specific(v6::net::kAllProbeTypes[i]);
    } else {
      source_active(v6::seeds::kAllSeedSources[i - kNumPorts]);
    }
  });
}

}  // namespace v6::experiment
