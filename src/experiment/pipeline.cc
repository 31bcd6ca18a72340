#include "experiment/pipeline.h"

#include <vector>

#include "check/contracts.h"
#include "check/validate.h"
#include "dealias/dealiaser.h"
#include "experiment/scan_rig.h"

namespace v6::experiment {

using v6::net::Ipv6Addr;
using v6::net::ProbeReply;
using v6::net::ProbeType;

v6::probe::ScanOptions PipelineConfig::scan_options() const {
  return {.max_retries = scan_retries,
          .seed = seed,
          .telemetry = telemetry,
          .probe_timeout_s = probe_timeout_s,
          .retry_backoff_s = retry_backoff_s,
          .retry_jitter = retry_jitter,
          .adaptive_threshold = adaptive_threshold,
          .adaptive_backoff_s = adaptive_backoff_s};
}

void PipelineConfig::validate() const {
  const v6::check::Validator v("PipelineConfig");
  v.positive(budget, "budget");
  v.positive(batch_size, "batch_size");
  scan_options().validate();
  v.non_negative(shards, "shards");
  v.require(faults == nullptr || faults->valid(), "faults",
            "fault plan failed validation");
}

namespace {

/// run_tga's body; `index` selects prepare_shared over prepare(seeds).
v6::metrics::ScanOutcome run(const v6::simnet::Universe& universe,
                             v6::tga::TargetGenerator& generator,
                             std::span<const Ipv6Addr> seeds,
                             const v6::tga::SeedIndex* index,
                             const v6::dealias::AliasList& offline_aliases,
                             const PipelineConfig& config) {
  config.validate();
  v6::metrics::ScanOutcome outcome;
  v6::obs::Telemetry* const telemetry = config.telemetry;
  v6::obs::Span run_span(telemetry, "pipeline.run");

  ScanRig rig(universe, config);
  if (telemetry != nullptr) {
    v6::obs::Registry& registry = telemetry->registry();
    registry.gauge("pipeline.budget").set(
        static_cast<std::int64_t>(config.budget));
    registry.gauge("pipeline.batch_size").set(
        static_cast<std::int64_t>(config.batch_size));
    if (config.shards > 0) registry.gauge("pipeline.shards").set(config.shards);
  }
  v6::dealias::Dealiaser dealiaser(v6::dealias::DealiasMode::kJoint,
                                   &offline_aliases, &rig.online());

  {
    v6::obs::Span span(telemetry, "pipeline.prepare");
    if (index != nullptr) {
      generator.prepare_shared(*index, config.seed);
    } else {
      generator.prepare(seeds, config.seed);
    }
  }
  generator.attach_online_dealiaser(&rig.online(), config.type);

  std::vector<Ipv6Addr> actives;
  while (outcome.generated < config.budget) {
    if (telemetry != nullptr) {
      telemetry->registry().counter("pipeline.batches").inc();
    }
    const std::uint64_t want =
        std::min(config.batch_size, config.budget - outcome.generated);
    std::vector<Ipv6Addr> batch;
    {
      v6::obs::Span span(telemetry, "pipeline.generate",
                         v6::obs::Span::WithHistogram{});
      batch = generator.next_batch(static_cast<std::size_t>(want));
    }
    if (batch.empty()) break;  // generator model exhausted
    outcome.generated += batch.size();
    outcome.unique_generated += batch.size();  // generators never repeat

    actives.clear();
    {
      v6::obs::Span span(telemetry, "pipeline.scan",
                         v6::obs::Span::WithHistogram{});
      const auto on_reply = [&](const Ipv6Addr& addr, ProbeReply reply) {
        const bool active = v6::net::is_hit(config.type, reply);
        generator.observe(addr, active);
        if (active) actives.push_back(addr);
      };
      // Replies arrive in a deterministic order whichever engine the rig
      // runs, so generator feedback stays reproducible.
      rig.scan(batch, config.type, on_reply);
    }
    outcome.responsive += actives.size();

    // Output dealiasing (paper §4.2: applied to all active addresses)
    // and AS12322 filtering (ICMP only, §4.1).
    {
      v6::obs::Span span(telemetry, "pipeline.dealias",
                         v6::obs::Span::WithHistogram{});
      for (const Ipv6Addr& addr : actives) {
        if (dealiaser.is_aliased(addr, config.type)) {
          ++outcome.aliases;
          continue;
        }
        if (config.filter_dense && config.type == ProbeType::kIcmp &&
            universe.in_dense_region(addr)) {
          ++outcome.dense_filtered;
          continue;
        }
        outcome.hit_set.insert(addr);
        if (const auto asn = universe.asn_of(addr)) {
          outcome.as_set.insert(*asn);
        }
      }
    }

    // Deterministic time-series sampler: one point per batch boundary on
    // the virtual-time axis (ev:"sample"). Cumulative values and the
    // virtual timestamp are all derived from deterministic state, so the
    // sample stream is jobs-invariant; gated on tracing() because samples
    // only exist as trace events.
    if (telemetry != nullptr && telemetry->tracing()) {
      const double virtual_now = rig.virtual_seconds();
      auto sample = [&](const char* name, std::uint64_t value) {
        v6::obs::Event event;
        event.kind = v6::obs::Event::Kind::kSample;
        event.path = name;
        event.at = virtual_now;
        event.value = value;
        telemetry->emit(event);
      };
      sample("sample.generated", outcome.generated);
      sample("sample.responsive", outcome.responsive);
      sample("sample.hits", outcome.hit_set.size());
      sample("sample.packets", rig.packets_sent());
    }
  }

  outcome.packets = rig.packets_sent();
  outcome.virtual_seconds = rig.virtual_seconds();
  V6_ENSURE(outcome.generated <= config.budget);
  V6_ENSURE(outcome.responsive <= outcome.generated);
  V6_ENSURE_MSG(outcome.aliases + outcome.dense_filtered <= outcome.responsive,
                "dealias/filter stages saw more addresses than responded");
  return outcome;
}

}  // namespace

v6::metrics::ScanOutcome run_tga(const v6::simnet::Universe& universe,
                                 v6::tga::TargetGenerator& generator,
                                 std::span<const Ipv6Addr> seeds,
                                 const v6::dealias::AliasList& offline_aliases,
                                 const PipelineConfig& config) {
  return run(universe, generator, seeds, nullptr, offline_aliases, config);
}

v6::metrics::ScanOutcome run_tga(const v6::simnet::Universe& universe,
                                 v6::tga::TargetGenerator& generator,
                                 const v6::tga::SeedIndex& seeds,
                                 const v6::dealias::AliasList& offline_aliases,
                                 const PipelineConfig& config) {
  return run(universe, generator, {}, &seeds, offline_aliases, config);
}

}  // namespace v6::experiment
