// The `sweep` workload: the paper's RQ1 loop. All eight TGAs probe ICMP
// with the seed datasets All, Active-Inactive and All Active of the
// default Workbench, at budget 60,000 per run, one run at a time
// (jobs = 1), so the sweep's wall time is the sum of its runs.
//
// Untraced, the sweep runs through ScanSession exactly as the repository
// benches do. Traced, the benchmark calls experiment::run_tga itself with
// a TimedGenerator around each TGA, so every call into the TGA layer is
// timed from outside src/.
#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "experiment/pipeline.h"
#include "experiment/session.h"
#include "metrics/scan_outcome.h"
#include "tga/registry.h"
#include "tga/target_generator.h"
#include "workload.h"

namespace perfbench {
namespace {

using v6::experiment::PipelineConfig;
using v6::metrics::ScanOutcome;
using v6::net::Ipv6Addr;
using v6::net::ProbeType;
using v6::tga::TgaKind;

constexpr std::uint64_t kBudget = 60'000;
constexpr int kSetupRepeats = 3;

/// Forwards every TargetGenerator call to make_generator(kind) and adds
/// the call's wall time to a per-method total.
class TimedGenerator final : public v6::tga::TargetGenerator {
 public:
  explicit TimedGenerator(TgaKind kind)
      : inner_(v6::tga::make_generator(kind)) {}

  std::string_view name() const override { return inner_->name(); }
  bool is_online() const override { return inner_->is_online(); }

  void prepare(std::span<const Ipv6Addr> seeds,
               std::uint64_t rng_seed) override {
    const auto start = Clock::now();
    inner_->prepare(seeds, rng_seed);
    prepare_s_ += seconds_since(start);
  }

  std::vector<Ipv6Addr> next_batch(std::size_t n) override {
    const auto start = Clock::now();
    std::vector<Ipv6Addr> batch = inner_->next_batch(n);
    generate_s_ += seconds_since(start);
    return batch;
  }

  void observe(const Ipv6Addr& addr, bool active) override {
    const auto start = Clock::now();
    inner_->observe(addr, active);
    observe_s_ += seconds_since(start);
  }

  /// An incremental prepare, so its time counts as prepare.
  bool absorb_seeds(std::span<const Ipv6Addr> added) override {
    const auto start = Clock::now();
    const bool absorbed = inner_->absorb_seeds(added);
    prepare_s_ += seconds_since(start);
    return absorbed;
  }

  void attach_online_dealiaser(v6::dealias::OnlineDealiaser* dealiaser,
                               ProbeType type) override {
    inner_->attach_online_dealiaser(dealiaser, type);
  }

  /// Destroys the wrapped generator; returns how long that took.
  double teardown() {
    const auto start = Clock::now();
    inner_.reset();
    return seconds_since(start);
  }

  double prepare_s() const { return prepare_s_; }
  double generate_s() const { return generate_s_; }
  double observe_s() const { return observe_s_; }

 private:
  std::unique_ptr<v6::tga::TargetGenerator> inner_;
  double prepare_s_ = 0.0;
  double generate_s_ = 0.0;
  double observe_s_ = 0.0;
};

struct Run {
  TgaKind kind;
  ScanOutcome outcome;
};

std::vector<std::span<const Ipv6Addr>> datasets(const Fixture& fixture) {
  return {*fixture.all, *fixture.active_inactive, *fixture.all_active};
}

PipelineConfig pipeline_config(const Options& options) {
  return PipelineConfig{}
      .with_budget(kBudget)
      .with_type(ProbeType::kIcmp)
      .with_seed(options.seed);
}

/// One untraced sweep through ScanSession, as the repository benches run it.
std::vector<Run> sweep_once(const Fixture& fixture,
                            const PipelineConfig& config) {
  const v6::experiment::Workbench& bench = *fixture.bench;
  std::vector<Run> runs;
  for (const std::span<const Ipv6Addr> seeds : datasets(fixture)) {
    for (v6::experiment::TgaRun& run :
         v6::experiment::ScanSession(bench.universe(), bench.alias_list())
             .with_seeds(seeds)
             .with_config(config)
             .with_jobs(1)
             .sweep()) {
      runs.push_back({run.kind, std::move(run.outcome)});
    }
  }
  return runs;
}

/// Invariants of one run's outcome against ground truth.
void audit_run(const v6::simnet::Universe& universe, const Run& run,
               Audit& audit) {
  const ScanOutcome& o = run.outcome;
  bool ok = o.aliases + o.dense_filtered <= o.responsive &&
            o.responsive <= o.generated;
  std::unordered_set<std::uint32_t> hit_ases;
  for (const Ipv6Addr& hit : o.hit_set) {
    ok = ok && can_answer(universe, hit, ProbeType::kIcmp);
    if (const auto asn = universe.asn_of(hit)) hit_ases.insert(*asn);
  }
  for (const std::uint32_t asn : o.as_set) ok = ok && hit_ases.contains(asn);
  audit.expect(ok, std::string(v6::tga::to_string(run.kind)) +
                       ": outcome breaks a ground-truth invariant");
}

bool same_outcome(const ScanOutcome& a, const ScanOutcome& b) {
  return a.generated == b.generated &&
         a.unique_generated == b.unique_generated &&
         a.responsive == b.responsive && a.aliases == b.aliases &&
         a.dense_filtered == b.dense_filtered && a.packets == b.packets &&
         a.virtual_seconds == b.virtual_seconds && a.hit_set == b.hit_set &&
         a.as_set == b.as_set;
}

std::uint64_t digest_of(const std::vector<Run>& runs) {
  Digest digest;
  for (const Run& run : runs) {
    const ScanOutcome& o = run.outcome;
    digest.add(static_cast<std::uint64_t>(run.kind));
    for (const std::uint64_t v :
         {o.generated, o.unique_generated, o.responsive, o.aliases,
          o.dense_filtered, o.packets}) {
      digest.add(v);
    }
    digest.add(o.virtual_seconds);
    std::vector<Ipv6Addr> hits(o.hit_set.begin(), o.hit_set.end());
    std::sort(hits.begin(), hits.end());
    for (const Ipv6Addr& hit : hits) digest.add(hit);
    std::vector<std::uint32_t> ases(o.as_set.begin(), o.as_set.end());
    std::sort(ases.begin(), ases.end());
    for (const std::uint32_t asn : ases) digest.add(std::uint64_t{asn});
  }
  return digest.value();
}

std::uint64_t generated_of(const std::vector<Run>& runs) {
  std::uint64_t total = 0;
  for (const Run& run : runs) total += run.outcome.generated;
  return total;
}

/// Times setup and repeated sweeps; reports the end-to-end metrics.
Result timed(const Options& options) {
  Result result;
  const PipelineConfig config = pipeline_config(options);

  std::vector<double> setups;
  Fixture fixture;
  for (int i = 0; i < kSetupRepeats; ++i) {
    fixture = Fixture{};  // release the previous Workbench first
    const auto start = Clock::now();
    fixture = make_fixture();
    setups.push_back(seconds_since(start));
  }

  const v6::simnet::Universe& universe = fixture.bench->universe();
  std::vector<double> walls;
  std::uint64_t generated = 0;
  const auto phase = Clock::now();
  do {
    const auto start = Clock::now();
    const std::vector<Run> runs = sweep_once(fixture, config);
    walls.push_back(seconds_since(start));
    for (const Run& run : runs) audit_run(universe, run, result.audit);
    const std::uint64_t digest = digest_of(runs);
    if (walls.size() == 1) {
      result.digest = digest;
      generated = generated_of(runs);
    } else {
      result.audit.expect(digest == result.digest,
                          "sweep outcomes differ between repetitions");
    }
  } while (walls.size() < kMinSamples ||
           seconds_since(phase) + walls.back() <= options.seconds);

  const double sweep_s = median(walls);
  result.metrics = {
      {"setup_s", median(setups), "s"},
      {"work_s", sweep_s, "s"},
      {"throughput_per_s", static_cast<double>(generated) / sweep_s, "1/s"},
      {"peak_rss_mib", peak_rss_mib(), "MiB"}};
  result.info = {{"sweep_s", sweep_s, "s"},
                 {"sweep_samples", static_cast<double>(walls.size()), "count"},
                 {"setup_samples", static_cast<double>(setups.size()), "count"},
                 {"generated_per_sweep", static_cast<double>(generated),
                  "count"}};
  add_range(result.info, "sweep_s", walls, "s");
  add_range(result.info, "setup_s", setups, "s");
  return result;
}

/// Checks the decorator's total for one phase against the run's own
/// pipeline timer: the timer wraps the decorated call, so it may only
/// exceed it by span bookkeeping.
void cross_check(double decorator, double timer, std::string_view phase,
                 Audit& audit) {
  audit.expect(decorator <= timer + 1e-4 &&
                   timer - decorator <= 0.02 * timer + 5e-3,
               std::string("decorator ") + std::string(phase) +
                   " total disagrees with the pipeline timer");
}

/// One untraced and one traced pass; reports the per-layer metrics.
Result traced(const Options& options) {
  Result result;
  const PipelineConfig base = pipeline_config(options);

  // Both passes stop their clocks before the Workbench is torn down.
  std::vector<Run> plain;
  double untraced_wall = 0.0;
  {
    const auto start = Clock::now();
    const Fixture fixture = make_fixture();
    plain = sweep_once(fixture, base);
    untraced_wall = seconds_since(start);
  }

  Layers layers;
  std::vector<Run> runs;
  StageCosts costs;
  double traced_wall = 0.0;
  {
    const auto start = Clock::now();
    const Fixture fixture = make_fixture(&layers, &result.audit);
    const v6::experiment::Workbench& bench = *fixture.bench;
    for (const std::span<const Ipv6Addr> seeds : datasets(fixture)) {
      for (const TgaKind kind : v6::tga::kAllTgas) {
        TimedGenerator generator(kind);
        v6::obs::Telemetry local;
        PipelineConfig config = base;
        config.telemetry = &local;
        const auto run_start = Clock::now();
        ScanOutcome outcome = v6::experiment::run_tga(
            bench.universe(), generator, seeds, bench.alias_list(), config);
        const double run_wall = seconds_since(run_start);

        const v6::obs::Report report = local.registry().snapshot();
        const double scan = report.timer_seconds("pipeline.scan");
        const double dealias = report.timer_seconds("pipeline.dealias");
        cross_check(generator.prepare_s(),
                    report.timer_seconds("pipeline.prepare"), "prepare",
                    result.audit);
        cross_check(generator.generate_s(),
                    report.timer_seconds("pipeline.generate"), "generate",
                    result.audit);
        const std::string tga = "tga." + std::string(v6::tga::to_string(kind));
        layers.add(tga + ".prepare_s", generator.prepare_s());
        layers.add(tga + ".generate_s", generator.generate_s());
        layers.add(tga + ".observe_s", generator.observe_s());
        layers.add("probe.sweep_scan_s", scan - generator.observe_s());
        layers.add("dealias.output_s", dealias);
        layers.add("experiment.run_other_s",
                   run_wall - generator.prepare_s() - generator.generate_s() -
                       scan - dealias);
        layers.add("tga.teardown_s", generator.teardown());
        runs.push_back({kind, std::move(outcome)});
      }
    }
    {
      Timed t(layers, "trace.micro_s");
      costs = time_stages(bench.universe(), options.seed);
    }
    traced_wall = seconds_since(start);
    for (const Run& run : runs) audit_run(bench.universe(), run, result.audit);
  }

  result.audit.expect(runs.size() == plain.size(),
                      "traced sweep ran a different number of TGA runs");
  for (std::size_t i = 0; i < std::min(runs.size(), plain.size()); ++i) {
    result.audit.expect(
        runs[i].kind == plain[i].kind &&
            same_outcome(runs[i].outcome, plain[i].outcome),
        std::string(v6::tga::to_string(runs[i].kind)) +
            ": traced outcome differs from the untraced one");
  }
  result.digest = digest_of(runs);
  layers.emit(traced_wall, result);
  result.metrics.push_back(
      {"trace.overhead_ratio", traced_wall / untraced_wall, "ratio"});
  add_stage_rows(costs, result.metrics);
  return result;
}

}  // namespace

Result run_sweep(const Options& options) {
  return options.trace ? traced(options) : timed(options);
}

}  // namespace perfbench
