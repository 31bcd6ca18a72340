#include "workload.h"

#include <algorithm>
#include <bit>
#include <fstream>
#include <sstream>

#include "dealias/dealiaser.h"
#include "net/rng.h"
#include "obs/telemetry.h"

namespace perfbench {

void Audit::expect(bool ok, std::string_view what, std::uint64_t n) {
  attempted += n;
  if (ok) return;
  failed += n;
  if (failures.size() < 10) failures.emplace_back(what);
}

void Digest::add(std::uint64_t v) { h_ = v6::net::splitmix64(h_ ^ v); }

void Digest::add(double v) { add(std::bit_cast<std::uint64_t>(v)); }

void Layers::add(const std::string& name, double seconds) {
  for (auto& [key, value] : layers_) {
    if (key == name) {
      value += seconds;
      return;
    }
  }
  layers_.emplace_back(name, seconds);
}

double Layers::total() const {
  double sum = 0.0;
  for (const auto& layer : layers_) sum += layer.second;
  return sum;
}

void Layers::emit(double wall, Result& result) const {
  for (const auto& [name, seconds] : layers_) {
    result.metrics.push_back({name, seconds, "s"});
  }
  const double unattributed = wall - total();
  result.metrics.push_back({"unattributed_s", unattributed, "s"});
  result.metrics.push_back({"trace.wall_s", wall, "s"});
  // Rows are disjoint intervals of one thread's wall time with loop
  // bookkeeping between them, so the rest is positive unless two rows
  // timed the same work.
  result.audit.expect(unattributed > 0.0,
                      "per-layer rows overlap: nothing is left unattributed");
}

void add_stage_rows(const StageCosts& costs, std::vector<Metric>& metrics) {
  metrics.insert(metrics.end(), {{"probe.walk_ns", costs.walk_ns, "ns"},
                                 {"probe.dedup_ns", costs.dedup_ns, "ns"},
                                 {"probe.auth_ns", costs.auth_ns, "ns"},
                                 {"simnet.probe_ns", costs.probe_ns, "ns"}});
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

void add_range(std::vector<Metric>& info, const std::string& name,
               const std::vector<double>& samples, const std::string& unit) {
  if (samples.empty()) return;
  const auto [lo, hi] = std::minmax_element(samples.begin(), samples.end());
  info.push_back({name + ".min", *lo, unit});
  info.push_back({name + ".max", *hi, unit});
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

bool can_answer(const v6::simnet::Universe& universe,
                const v6::net::Ipv6Addr& addr, v6::net::ProbeType type) {
  if (const v6::simnet::AliasRegion* region = universe.alias_region_of(addr)) {
    return v6::net::has_service(region->services, type);
  }
  if (universe.in_dense_region(addr)) {
    return type == v6::net::ProbeType::kIcmp && addr.lo() == 1;
  }
  return universe.host_active(addr, type);
}

Fixture make_fixture(Layers* layers, Audit* audit) {
  Fixture fixture;
  v6::experiment::WorkbenchConfig config;
  if (layers != nullptr) {
    fixture.telemetry = std::make_unique<v6::obs::Telemetry>();
    config.with_telemetry(fixture.telemetry.get());
  }

  const auto built = Clock::now();
  fixture.bench = std::make_unique<v6::experiment::Workbench>(config);
  const double ctor_wall = seconds_since(built);

  const auto variants = Clock::now();
  fixture.all = &fixture.bench->full();
  fixture.active_inactive =
      &fixture.bench->dealiased(v6::dealias::DealiasMode::kJoint);
  fixture.all_active = &fixture.bench->all_active();
  const double variants_wall = seconds_since(variants);

  if (layers != nullptr) {
    const v6::obs::Report report = fixture.telemetry->registry().snapshot();
    const double build = report.timer_seconds("workbench.build_universe");
    const double collect = report.timer_seconds("workbench.collect");
    const double activity = report.timer_seconds("workbench.activity_scan");
    layers->add("simnet.build_s", build);
    layers->add("seeds.collect_s", collect);
    layers->add("seeds.activity_scan_s", activity);
    layers->add("experiment.precompute_s", variants_wall);
    // The rest of the constructor (member moves, span bookkeeping) stays
    // unattributed; the spans can never cover more than the call itself.
    if (audit != nullptr) {
      audit->expect(build + collect + activity <= ctor_wall + 1e-3,
                    "Workbench phase spans exceed the constructor's wall time");
    }
  }
  return fixture;
}

}  // namespace perfbench
