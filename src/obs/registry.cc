#include "obs/registry.h"

#include "check/contracts.h"

namespace v6::obs {

void Report::merge_from(const Report& other) {
  for (const auto& [name, value] : other.counters) counters[name] += value;
  for (const auto& [name, value] : other.gauges) gauges[name] = value;
  for (const auto& [name, total] : other.timers) {
    TimerTotal& mine = timers[name];
    mine.count += total.count;
    mine.nanos += total.nanos;
  }
  for (const auto& [name, total] : other.histograms) {
    histograms[name].merge_from(total);
  }
}

double Report::timer_seconds(std::string_view name) const {
  const auto it = timers.find(std::string(name));
  return it == timers.end() ? 0.0 : it->second.seconds();
}

std::uint64_t Report::counter_value(std::string_view name) const {
  const auto it = counters.find(std::string(name));
  return it == counters.end() ? 0 : it->second;
}

template <typename T>
T& Registry::lookup(Table<T>& table, std::string_view name) {
  V6_INVARIANT_MSG(!name.empty(), "metric name must be non-empty");
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = table.find(name);
  if (it != table.end()) return *it->second;
  const auto inserted = table.emplace(std::string(name), std::make_unique<T>());
  return *inserted.first->second;
}

Counter& Registry::counter(std::string_view name) {
  return lookup(counters_, name);
}

Gauge& Registry::gauge(std::string_view name) { return lookup(gauges_, name); }

TimerStat& Registry::timer(std::string_view name) {
  return lookup(timers_, name);
}

Histogram& Registry::histogram(std::string_view name) {
  return lookup(histograms_, name);
}

Report Registry::snapshot() const {
  Report report;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, counter] : counters_) {
    report.counters.emplace(name, counter->value());
  }
  for (const auto& [name, gauge] : gauges_) {
    report.gauges.emplace(name, gauge->value());
  }
  for (const auto& [name, timer] : timers_) {
    report.timers.emplace(name, TimerTotal{timer->count(), timer->nanos()});
  }
  for (const auto& [name, histogram] : histograms_) {
    report.histograms.emplace(name, histogram->total());
  }
  return report;
}

void Registry::merge_from(const Registry& other) {
  V6_INVARIANT_MSG(&other != this, "cannot merge a registry into itself");
  const Report report = other.snapshot();
  for (const auto& [name, value] : report.counters) {
    if (value != 0) counter(name).add(value);
  }
  for (const auto& [name, value] : report.gauges) gauge(name).set(value);
  for (const auto& [name, total] : report.timers) {
    if (total.count != 0) timer(name).add_raw(total.count, total.nanos);
  }
  for (const auto& [name, total] : report.histograms) {
    if (total.count != 0) histogram(name).add_raw(total);
  }
}

}  // namespace v6::obs
