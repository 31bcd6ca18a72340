// ScanRig: the one scanner every experiment scans with, the paper's
// Scanv6 (§4.2). run_tga, run_combined and the Workbench (its activity
// scan and its seed dealiasing) each build one from a PipelineConfig.
// A rig owns:
//   - the sequential wire chain SimTransport(seed) <- FaultyTransport
//     (when `faults` is set, even to a disabled plan) <- CountingTransport
//     (with telemetry) <- TracingTransport (with `trace_probes` and a
//     tracing telemetry). The decorators pass every reply and RNG draw
//     through unchanged;
//   - the engine `shards` selects: 0, the batch Scanner on the chain;
//     >= 1, a StreamScanner whose lane s, when `faults` is set, probes
//     through its own injector seeded derive_seed(seed, 0x5A00 + s);
//   - the OnlineDealiaser on the chain, so its probes are counted and
//     faulted too;
//   - the `fault.*` counters: every injector's tallies, published when
//     the rig is destroyed (with a plan and telemetry only).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "dealias/online_dealiaser.h"
#include "experiment/pipeline.h"
#include "fault/faulty_transport.h"
#include "net/ipv6.h"
#include "net/service.h"
#include "probe/instrumented_transport.h"
#include "probe/scanner.h"
#include "probe/stream_scanner.h"
#include "probe/transport.h"
#include "simnet/universe.h"

namespace v6::experiment {

class ScanRig {
 public:
  /// `universe` and the config's blocklist, telemetry and fault plan are
  /// borrowed and must outlive the rig. Callers validate `config` first.
  ScanRig(const v6::simnet::Universe& universe, const PipelineConfig& config);
  ~ScanRig();

  ScanRig(const ScanRig&) = delete;
  ScanRig& operator=(const ScanRig&) = delete;

  /// Scans `targets` on `type`; `on_reply` gets every probed address's
  /// final reply in a deterministic order, whichever the engine.
  v6::probe::ScanStats scan(
      std::span<const v6::net::Ipv6Addr> targets, v6::net::ProbeType type,
      const v6::probe::Scanner::ReplyCallback& on_reply) {
    return stream_.has_value() ? stream_->scan(targets, type, on_reply)
                               : batch_->scan(targets, type, on_reply);
  }

  v6::dealias::OnlineDealiaser& online() { return *online_; }

  /// The chain's packets (batch scans, online dealiaser) plus the lanes'.
  std::uint64_t packets_sent() const {
    return chain_->packets_sent() +
           (stream_.has_value() ? stream_->packets_sent() : 0);
  }

  double virtual_seconds() const {
    return stream_.has_value() ? stream_->virtual_seconds()
                               : batch_->virtual_seconds();
  }

 private:
  v6::obs::Telemetry* telemetry_;
  v6::probe::SimTransport wire_;
  std::optional<v6::fault::FaultyTransport> faulty_;
  std::optional<v6::probe::CountingTransport> counting_;
  std::optional<v6::probe::TracingTransport> tracing_;
  v6::probe::ProbeTransport* chain_ = &wire_;
  std::optional<v6::dealias::OnlineDealiaser> online_;
  /// Every fault injector: the chain's, then each lane's in shard order.
  std::vector<const v6::fault::FaultyTransport*> injectors_;
  std::optional<v6::probe::Scanner> batch_;
  std::optional<v6::probe::StreamScanner> stream_;
};

}  // namespace v6::experiment
