#include "obs/telemetry.h"

#include <vector>

#include "check/contracts.h"

namespace v6::obs {

namespace {

// Per-thread span stacks, one top pointer per live Telemetry. A flat
// vector beats a hash map here: a thread has a handful of Telemetries at
// most (usually one), and spans open/close often enough that cache-hot
// linear scans win.
struct StackTop {
  const Telemetry* owner;
  Span* top;
};

thread_local std::vector<StackTop> t_span_tops;

StackTop* find_top(const Telemetry* owner) {
  for (StackTop& entry : t_span_tops) {
    if (entry.owner == owner) return &entry;
  }
  return nullptr;
}

}  // namespace

Span::Span(Telemetry* telemetry, std::string_view name)
    : telemetry_(telemetry) {
  if (telemetry_ == nullptr) return;
  V6_INVARIANT_MSG(!name.empty(), "span name must be non-empty");
  name_.assign(name);
  StackTop* entry = find_top(telemetry_);
  if (entry == nullptr) {
    t_span_tops.push_back({telemetry_, nullptr});
    entry = &t_span_tops.back();
  }
  parent_ = entry->top;
  entry->top = this;
  start_ = std::chrono::steady_clock::now();
}

Span::Span(Telemetry* telemetry, std::string_view name, WithHistogram)
    : Span(telemetry, name) {
  wall_histogram_ = true;
}

std::string Span::path() const {
  std::string out;
  if (telemetry_ == nullptr) return out;
  std::size_t len = name_.size();
  for (const Span* span = parent_; span != nullptr; span = span->parent_) {
    len += span->name_.size() + 1;
  }
  out.reserve(len);
  append_path(out);
  return out;
}

void Span::append_path(std::string& out) const {
  if (parent_ != nullptr) {
    parent_->append_path(out);
    out += '/';
  }
  out += name_;
}

Span::~Span() {
  if (telemetry_ == nullptr) return;
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  StackTop* entry = find_top(telemetry_);
  V6_INVARIANT_MSG(entry != nullptr && entry->top == this,
                   "span destroyed out of stack order (or on another thread)");
  if (entry != nullptr) {
    entry->top = parent_;
    if (parent_ == nullptr) {
      // Drop the empty entry so the thread-local list stays tiny.
      t_span_tops.erase(t_span_tops.begin() + (entry - t_span_tops.data()));
    }
  }
  telemetry_->registry().timer(name_).record_seconds(seconds);
  if (wall_histogram_) {
    telemetry_->registry().histogram(name_ + ".wall").record(seconds);
  }
  if (telemetry_->tracing()) {
    // Path construction is gated here: without a sink, a span never
    // materializes its '/'-joined path.
    Event event;
    event.kind = Event::Kind::kSpan;
    event.path = path();
    event.seconds = seconds;
    event.at = telemetry_->since_epoch() - seconds;
    telemetry_->emit(event);
  }
}

void Telemetry::emit_metrics(std::string_view prefix) {
  if (!tracing()) return;
  const Report report = registry_.snapshot();
  const double now = since_epoch();
  auto make = [&](Event::Kind kind, const std::string& name,
                  std::uint64_t value) {
    Event event;
    event.kind = kind;
    event.path = std::string(prefix) + name;
    event.value = value;
    event.at = now;
    return event;
  };
  for (const auto& [name, value] : report.counters) {
    emit(make(Event::Kind::kCounter, name, value));
  }
  for (const auto& [name, value] : report.gauges) {
    emit(make(Event::Kind::kGauge, name, static_cast<std::uint64_t>(value)));
  }
  for (const auto& [name, total] : report.timers) {
    Event event = make(Event::Kind::kTimer, name, total.count);
    event.seconds = total.seconds();
    emit(event);
  }
  for (const auto& [name, total] : report.histograms) {
    Event event = make(Event::Kind::kHist, name, total.count);
    event.detail = encode_histogram(total);
    emit(event);
  }
}

}  // namespace v6::obs
