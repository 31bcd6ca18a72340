#include "experiment/pipeline.h"

#include <optional>
#include <vector>

#include "check/contracts.h"
#include "check/validate.h"
#include "dealias/online_dealiaser.h"
#include "fault/faulty_transport.h"
#include "net/rng.h"
#include "probe/instrumented_transport.h"
#include "probe/scanner.h"
#include "probe/stream_scanner.h"
#include "probe/transport.h"

namespace v6::experiment {

using v6::net::Ipv6Addr;
using v6::net::ProbeReply;
using v6::net::ProbeType;

void PipelineConfig::validate() const {
  const v6::check::Validator v("PipelineConfig");
  v.positive(budget, "budget");
  v.positive(batch_size, "batch_size");
  v.non_negative(scan_retries, "scan_retries");
  v.positive(max_pps, "max_pps");
  v.non_negative(probe_timeout_s, "probe_timeout_s");
  v.non_negative(retry_backoff_s, "retry_backoff_s");
  v.unit_interval(retry_jitter, "retry_jitter");
  v.non_negative(adaptive_threshold, "adaptive_threshold");
  v.non_negative(adaptive_backoff_s, "adaptive_backoff_s");
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

  // Transport chain: the simulated wire, optionally wrapped by the fault
  // plane, then decorated with per-probe-type counters and (for --trace
  // runs) a per-packet tracer. The observability decorators are pass-
  // throughs, so every reply and RNG draw is identical whichever chain
  // is active — and the online dealiaser shares the instrumented chain,
  // so its probes are counted (and suffer faults) too.
  v6::probe::SimTransport sim_transport(universe, config.seed);
  v6::probe::ProbeTransport* transport = &sim_transport;
  std::optional<v6::fault::FaultyTransport> faulty;
  std::optional<v6::probe::CountingTransport> counting;
  std::optional<v6::probe::TracingTransport> tracing;
  if (config.faults != nullptr) {
    // Wrapped even when the plan is disabled: a disabled FaultyTransport
    // is a pure pass-through, and keeping it in the chain is exactly
    // what the fault suite's no-decorator equivalence test exercises.
    faulty.emplace(*transport, *config.faults, config.seed);
    transport = &*faulty;
  }
  if (telemetry != nullptr) {
    counting.emplace(*transport, telemetry->registry());
    transport = &*counting;
    if (config.trace_probes && telemetry->tracing()) {
      tracing.emplace(*transport, *telemetry);
      transport = &*tracing;
    }
    telemetry->registry().gauge("pipeline.budget").set(
        static_cast<std::int64_t>(config.budget));
    telemetry->registry().gauge("pipeline.batch_size").set(
        static_cast<std::int64_t>(config.batch_size));
  }

  const v6::probe::ScanOptions scan_options{
      .max_retries = config.scan_retries,
      .max_pps = config.max_pps,
      .seed = config.seed,
      .telemetry = telemetry,
      .probe_timeout_s = config.probe_timeout_s,
      .retry_backoff_s = config.retry_backoff_s,
      .retry_jitter = config.retry_jitter,
      .adaptive_threshold = config.adaptive_threshold,
      .adaptive_backoff_s = config.adaptive_backoff_s};
  // Engine selection. Batch (shards == 0): the Scanner probes through
  // the shared sequential chain above. Streaming (shards >= 1): the
  // StreamScanner owns one stateless chain per shard; the sequential
  // chain stays up for the online dealiaser's probes. The fault plan,
  // when present, wraps both — per-shard lanes get independently seeded
  // injectors via the decorator hook (src/probe cannot depend on
  // src/fault, so the pipeline supplies the wrapping).
  std::optional<v6::probe::Scanner> scanner;
  std::optional<v6::probe::StreamScanner> stream;
  std::vector<v6::fault::FaultyTransport*> lane_faults;
  if (config.shards == 0) {
    scanner.emplace(*transport, config.blocklist, scan_options);
  } else {
    v6::probe::StreamScanOptions stream_options;
    stream_options.shards = static_cast<unsigned>(config.shards);
    stream_options.scan = scan_options;
    if (config.faults != nullptr) {
      // Invoked only inside the StreamScanner constructor below, so the
      // by-reference captures cannot dangle.
      stream_options.decorate =
          [&config, &lane_faults](v6::probe::ProbeTransport& inner,
                                  unsigned shard)
          -> std::unique_ptr<v6::probe::ProbeTransport> {
        auto injector = std::make_unique<v6::fault::FaultyTransport>(
            inner, *config.faults,
            v6::net::derive_seed(config.seed, /*tag=*/0x5A00 + shard));
        lane_faults.push_back(injector.get());
        return injector;
      };
    }
    stream.emplace(universe, config.blocklist, std::move(stream_options));
    if (telemetry != nullptr) {
      telemetry->registry().gauge("pipeline.shards").set(config.shards);
    }
  }
  v6::dealias::OnlineDealiaser online(*transport, config.seed);
  v6::dealias::Dealiaser dealiaser(config.output_dealias, &offline_aliases,
                                   &online);

  {
    v6::obs::Span span(telemetry, "pipeline.prepare");
    if (index != nullptr) {
      generator.prepare_shared(*index, config.seed);
    } else {
      generator.prepare(seeds, config.seed);
    }
  }
  if (config.attach_online_dealiaser) {
    generator.attach_online_dealiaser(&online, config.type);
  }

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
      // Either engine delivers final classified replies in a
      // deterministic order (the streaming one replays them in canonical
      // cycle-position order on this thread after the shards join), so
      // generator feedback stays reproducible.
      if (scanner.has_value()) {
        scanner->scan(batch, config.type, on_reply);
      } else {
        stream->scan(batch, config.type, on_reply);
      }
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
      const double virtual_now = scanner.has_value()
                                     ? scanner->virtual_seconds()
                                     : stream->virtual_seconds();
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
      // Streaming scan packets flow through per-shard lanes, not the
      // sequential chain, so count both.
      sample("sample.packets",
             transport->packets_sent() +
                 (stream.has_value() ? stream->packets_sent() : 0));
    }
  }

  outcome.packets = transport->packets_sent() +
                    (stream.has_value() ? stream->packets_sent() : 0);
  outcome.virtual_seconds = scanner.has_value() ? scanner->virtual_seconds()
                                                : stream->virtual_seconds();
  // Fault-plane drop/injection tallies, published once per run (summed
  // across the sequential chain's injector and the per-shard lane
  // injectors, in shard order). Only present when a plan is attached, so
  // fault-free reports are unchanged.
  if (telemetry != nullptr && config.faults != nullptr) {
    v6::obs::Registry& registry = telemetry->registry();
    std::uint64_t drop_loss = 0;
    std::uint64_t drop_outage = 0;
    std::uint64_t drop_rate_limit = 0;
    std::uint64_t injected = 0;
    if (faulty.has_value()) {
      drop_loss += faulty->dropped_loss();
      drop_outage += faulty->dropped_outage();
      drop_rate_limit += faulty->dropped_rate_limit();
      injected += faulty->injected_errors();
    }
    for (const v6::fault::FaultyTransport* lane : lane_faults) {
      drop_loss += lane->dropped_loss();
      drop_outage += lane->dropped_outage();
      drop_rate_limit += lane->dropped_rate_limit();
      injected += lane->injected_errors();
    }
    registry.counter("fault.drop.loss").add(drop_loss);
    registry.counter("fault.drop.outage").add(drop_outage);
    registry.counter("fault.drop.rate_limit").add(drop_rate_limit);
    registry.counter("fault.injected.errors").add(injected);
  }
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
