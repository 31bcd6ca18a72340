#include "experiment/session.h"

#include <chrono>
#include <string>

#include "check/contracts.h"
#include "check/validate.h"
#include "obs/sinks.h"
#include "runtime/worker_group.h"
#include "tga/seed_index.h"

namespace v6::experiment {

void ScanSession::validate() const {
  // The constructor takes references, so universe/alias list cannot be
  // null here; what can still be wrong is the pipeline config.
  config_.validate();
}

std::vector<TgaRun> ScanSession::sweep() const {
  validate();
  const std::span<const v6::tga::TgaKind> kinds =
      kinds_.empty() ? std::span<const v6::tga::TgaKind>(v6::tga::kAllTgas)
                     : std::span<const v6::tga::TgaKind>(kinds_);

  std::vector<TgaRun> runs(kinds.size());
  // Per-run instrumentation, slot-owned: each run gets a private
  // Telemetry (and, when the parent traces, a private event buffer), so
  // worker scheduling can neither interleave two runs' spans nor reorder
  // the merged output below.
  const bool forward_events = telemetry_ != nullptr && telemetry_->tracing();
  std::vector<v6::obs::Telemetry> locals(kinds.size());
  std::vector<v6::obs::MemorySink> buffers(forward_events ? kinds.size() : 0);

  v6::obs::Span sweep_span(telemetry_, "sweep");
  // One index over the borrowed seed span, lent to every run: its
  // membership table is built here, each space tree by the first run
  // that asks for it.
  const v6::tga::SeedIndex index = [this] {
    const v6::obs::Span span(telemetry_, "sweep.index");
    return v6::tga::SeedIndex(seeds_);
  }();
  v6::runtime::parallel_for(jobs_, kinds.size(), [&](std::size_t i) {
    // Everything mutable is created inside the task: the generator, the
    // run's telemetry, and (inside run_tga) the transport, scanner, and
    // dealiasers. Only the const Universe, the seed span and its index
    // are shared; the index builds each tree once, under its own lock.
    v6::obs::Telemetry& local = locals[i];
    if (forward_events) local.attach_sink(&buffers[i]);
    PipelineConfig config = config_;
    config.telemetry = &local;
    const auto start = std::chrono::steady_clock::now();
    auto generator = v6::tga::make_generator(kinds[i]);
    runs[i].kind = kinds[i];
    {
      v6::obs::Span tga_span(
          &local, "tga:" + std::string(v6::tga::to_string(kinds[i])));
      runs[i].outcome =
          run_tga(*universe_, *generator, index, *alias_list_, config);
    }
    runs[i].wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    runs[i].report = local.registry().snapshot();
    V6_INVARIANT_MSG(runs[i].kind == kinds[i],
                     "run slot filled for a different TGA than assigned");
  });

  // Deterministic merge: slot order, regardless of completion order.
  if (telemetry_ != nullptr) {
    for (std::size_t i = 0; i < kinds.size(); ++i) {
      telemetry_->registry().merge_from(locals[i].registry());
    }
    if (forward_events) {
      for (const v6::obs::MemorySink& buffer : buffers) {
        buffer.replay_to(*telemetry_->sink());
      }
    }
  }
  return runs;
}

}  // namespace v6::experiment
