#include "experiment/scan_rig.h"

#include <memory>
#include <utility>

#include "net/rng.h"

namespace v6::experiment {

ScanRig::ScanRig(const v6::simnet::Universe& universe,
                 const PipelineConfig& config)
    : telemetry_(config.telemetry), wire_(universe, config.seed) {
  if (config.faults != nullptr) {
    chain_ = &faulty_.emplace(*chain_, *config.faults, config.seed);
    injectors_.push_back(&*faulty_);
  }
  if (telemetry_ != nullptr) {
    chain_ = &counting_.emplace(*chain_, telemetry_->registry());
    if (config.trace_probes && telemetry_->tracing()) {
      chain_ = &tracing_.emplace(*chain_, *telemetry_);
    }
  }
  online_.emplace(*chain_, config.seed);

  const v6::probe::ScanOptions options = config.scan_options();
  if (config.shards == 0) {
    batch_.emplace(*chain_, config.blocklist, options);
    return;
  }
  v6::probe::StreamScanOptions stream_options;
  stream_options.shards = static_cast<unsigned>(config.shards);
  stream_options.scan = options;
  if (config.faults != nullptr) {
    // Called only inside the StreamScanner constructor below.
    stream_options.decorate =
        [this, plan = config.faults, seed = config.seed](
            v6::probe::ProbeTransport& inner,
            unsigned shard) -> std::unique_ptr<v6::probe::ProbeTransport> {
      auto injector = std::make_unique<v6::fault::FaultyTransport>(
          inner, *plan, v6::net::derive_seed(seed, /*tag=*/0x5A00 + shard));
      injectors_.push_back(injector.get());
      return injector;
    };
  }
  stream_.emplace(universe, config.blocklist, std::move(stream_options));
}

ScanRig::~ScanRig() {
  if (telemetry_ == nullptr || injectors_.empty()) return;
  v6::obs::Registry& registry = telemetry_->registry();
  for (const v6::fault::FaultyTransport* injector : injectors_) {
    registry.counter("fault.drop.loss").add(injector->dropped_loss());
    registry.counter("fault.drop.outage").add(injector->dropped_outage());
    registry.counter("fault.drop.rate_limit")
        .add(injector->dropped_rate_limit());
    registry.counter("fault.injected.errors").add(injector->injected_errors());
  }
}

}  // namespace v6::experiment
