// Telemetry: one instrumentation context = a metric Registry plus an
// optional EventSink, with RAII spans for phase timing.
//
// Cost model: every constructor and span below is null-safe — code holds
// a `Telemetry*` that may be nullptr, and instrumented-but-disabled
// paths reduce to a pointer test. With a Telemetry attached but no sink,
// spans cost two clock reads plus one relaxed atomic accumulate, and
// counters one relaxed add; only an attached sink buys string
// serialization.
//
// Span nesting uses per-thread, per-Telemetry stacks: a span's path is
// its ancestors' names joined with '/', where ancestry is "the spans of
// the same Telemetry currently open on this thread". Two Telemetry
// instances never nest into each other, which is what keeps paths
// deterministic when parallel workers interleave runs (each run owns a
// private Telemetry; see experiment/session.cc).
#pragma once

#include <atomic>
#include <chrono>
#include <string>
#include <string_view>

#include "obs/event.h"
#include "obs/registry.h"

namespace v6::obs {

class Telemetry;

/// RAII scoped timer. On destruction it accumulates its duration into
/// `registry().timer(<name>)` (name, not path: phase totals aggregate
/// across parents) and, when a sink is attached, emits a Kind::kSpan
/// event carrying the full nested path.
class Span {
 public:
  /// `telemetry == nullptr` makes the span inert (no-cost no-op).
  Span(Telemetry* telemetry, std::string_view name);
  ~Span();

  /// A span may additionally feed a wall-clock duration histogram named
  /// `<name>.wall` (the suffix marks it exempt from the virtual-time
  /// determinism contract; see docs/OBSERVABILITY.md).
  struct WithHistogram {};
  Span(Telemetry* telemetry, std::string_view name, WithHistogram);

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Full '/'-joined path including enclosing spans of the same
  /// Telemetry on this thread, built on demand by walking the parent
  /// chain — the hot path never materializes it (sinkless spans cost two
  /// clock reads plus one atomic accumulate). Empty for inert spans.
  std::string path() const;

 private:
  void append_path(std::string& out) const;

  Telemetry* telemetry_;
  Span* parent_ = nullptr;
  bool wall_histogram_ = false;
  std::string name_;
  std::chrono::steady_clock::time_point start_;
};

class Telemetry {
 public:
  Telemetry() : epoch_(std::chrono::steady_clock::now()) {}
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  Registry& registry() { return registry_; }
  const Registry& registry() const { return registry_; }

  /// Attaches a non-owning sink (nullptr detaches). Not synchronized
  /// against concurrent emitters — attach before handing the Telemetry
  /// to instrumented code.
  void attach_sink(EventSink* sink) {
    sink_.store(sink, std::memory_order_release);
  }
  EventSink* sink() const { return sink_.load(std::memory_order_acquire); }

  /// True when events would reach a sink; lets expensive producers (the
  /// per-probe tracer) skip serialization entirely.
  bool tracing() const { return sink() != nullptr; }

  /// Forwards to the sink, if any.
  void emit(const Event& event) {
    if (EventSink* s = sink()) s->emit(event);
  }

  /// Seconds since this Telemetry was constructed (steady clock).
  double since_epoch() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
  }

  /// Emits one kCounter/kGauge/kTimer/kHist event per registry metric
  /// (sorted within each kind), names prefixed with `prefix`. Typically
  /// called once at shutdown so a trace file ends with the final totals.
  void emit_metrics(std::string_view prefix = {});

 private:
  Registry registry_;
  std::atomic<EventSink*> sink_{nullptr};
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace v6::obs
