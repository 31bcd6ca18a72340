// Shared pieces of the repository benchmark: the options every workload
// takes, the result it hands back to main(), and small helpers (clock,
// medians, outcome digests, ground-truth checks, the Workbench fixture
// the sweep and serve workloads start from).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "experiment/workbench.h"
#include "net/ipv6.h"
#include "net/service.h"
#include "obs/telemetry.h"
#include "simnet/universe.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Every timed phase takes at least this many samples, so each reported
/// median is the median of several.
constexpr std::size_t kMinSamples = 3;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  /// Drives every generated input (pipeline, scan and service seeds, the
  /// scan target mix, the lookup query mix). The simulated universe is
  /// always the default Workbench one.
  std::uint64_t seed = 42;
  /// Length of the timed phase.
  double seconds = 10.0;
  /// false: untraced timed phase, end-to-end metrics. true: one untraced
  /// and one traced pass, per-layer metrics.
  bool trace = false;
};

/// Every check a workload makes is one operation; `failed` counts the
/// ones that did not hold.
struct Audit {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few, for the log

  /// Records `n` operations that all passed (ok) or all failed.
  void expect(bool ok, std::string_view what, std::uint64_t n = 1);
};

/// A named number with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  /// The metrics of the result line: end-to-end without --trace,
  /// per-layer with it.
  std::vector<Metric> metrics;
  /// Figures printed and recorded under the names the workload
  /// description uses (sweep_s, probes_per_s, ...), not in the result line.
  std::vector<Metric> info;
  Audit audit;
  /// Chained hash of the workload's scientific outcomes (TGA outcome
  /// fields, scan hits, epoch fingerprints). Equal digests mean a change
  /// moved speed, not results.
  std::uint64_t digest = 0;
};

/// Order-sensitive 64-bit fold.
class Digest {
 public:
  void add(std::uint64_t v);
  void add(double v);
  void add(const v6::net::Ipv6Addr& addr) {
    add(addr.hi());
    add(addr.lo());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0x9E3779B97F4A7C15ULL;
};

/// Per-layer seconds, accumulated by name in first-use order.
class Layers {
 public:
  void add(const std::string& name, double seconds);
  double total() const;
  /// Appends every layer as a metric plus `unattributed_s` (= wall minus
  /// every layer) and `trace.wall_s`. Checks in `audit` that the layers
  /// do not overlap, i.e. unattributed time is positive.
  void emit(double wall, Result& result) const;

 private:
  std::vector<std::pair<std::string, double>> layers_;
};

/// Times a scope into a Layers row.
class Timed {
 public:
  Timed(Layers& layers, std::string name)
      : layers_(&layers), name_(std::move(name)), start_(Clock::now()) {}
  ~Timed() { layers_->add(name_, seconds_since(start_)); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  Layers* layers_;
  std::string name_;
  Clock::time_point start_;
};

double median(std::vector<double> values);

/// Appends the smallest and largest of `samples` to `info` as
/// `<name>.min` and `<name>.max`, so a record shows each median's range.
void add_range(std::vector<Metric>& info, const std::string& name,
               const std::vector<double>& samples, const std::string& unit);

/// VmHWM of this process in MiB.
double peak_rss_mib();

/// True when ground truth lets `addr` answer `type` positively: an active
/// host, an alias region offering the service, or the dense ::1 pattern.
bool can_answer(const v6::simnet::Universe& universe,
                const v6::net::Ipv6Addr& addr, v6::net::ProbeType type);

/// Per-item cost of the probe engine's stages.
struct StageCosts {
  double walk_ns = 0.0;   // ShardPlan + ShardWalk, per target
  double dedup_ns = 0.0;  // AddrIndexMap insert, per target
  double auth_ns = 0.0;   // probe_token + validate_probe, per unique target
  double probe_ns = 0.0;  // Universe::probe, per unique target
};

/// Times each stage by calling the module's public function directly over
/// the `scan` workload's target mix for `seed` on `universe`.
StageCosts time_stages(const v6::simnet::Universe& universe,
                       std::uint64_t seed);

/// Appends the rows probe.walk_ns, probe.dedup_ns, probe.auth_ns and
/// simnet.probe_ns.
void add_stage_rows(const StageCosts& costs, std::vector<Metric>& metrics);

/// The default Workbench plus the seed-dataset variants the sweep and
/// serve workloads use.
struct Fixture {
  /// Set when the fixture is traced. Declared before `bench`, which keeps
  /// a pointer to it, so it outlives the Workbench.
  std::unique_ptr<v6::obs::Telemetry> telemetry;
  std::unique_ptr<v6::experiment::Workbench> bench;
  const std::vector<v6::net::Ipv6Addr>* all = nullptr;
  const std::vector<v6::net::Ipv6Addr>* active_inactive = nullptr;
  const std::vector<v6::net::Ipv6Addr>* all_active = nullptr;
};

/// Builds the fixture. With `layers`, times it as the rows
/// simnet.build_s, seeds.collect_s, seeds.activity_scan_s (from the
/// Workbench's spans, bounded by an outside timer) and
/// experiment.precompute_s (the variant calls, timed from here), and
/// checks in `audit` that the spans fit inside the constructor call.
Fixture make_fixture(Layers* layers = nullptr, Audit* audit = nullptr);

Result run_sweep(const Options& options);
Result run_scan(const Options& options);
Result run_serve(const Options& options);

}  // namespace perfbench
