// The acceptance bar for the parallel experiment runner: running the TGA
// sweep on parallel workers must produce ScanOutcomes field-identical
// to the sequential sweep. Each run owns its RNG (seeded from the
// config), transport, and scanner, and the runs share only the sweep's
// seed index, whose trees are built once whichever run asks first, so
// scheduling cannot leak in.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <tuple>
#include <vector>

#include "experiment/session.h"
#include "experiment/workbench.h"
#include "obs/sinks.h"
#include "obs/telemetry.h"
#include "testutil/fixtures.h"

namespace v6::experiment {
namespace {

using v6::net::Ipv6Addr;

void expect_identical(const TgaRun& a, const TgaRun& b) {
  EXPECT_EQ(a.kind, b.kind);
  const auto& x = a.outcome;
  const auto& y = b.outcome;
  EXPECT_EQ(x.generated, y.generated);
  EXPECT_EQ(x.unique_generated, y.unique_generated);
  EXPECT_EQ(x.responsive, y.responsive);
  EXPECT_EQ(x.aliases, y.aliases);
  EXPECT_EQ(x.dense_filtered, y.dense_filtered);
  EXPECT_EQ(x.packets, y.packets);
  EXPECT_EQ(x.virtual_seconds, y.virtual_seconds);
  EXPECT_EQ(x.hit_set, y.hit_set);
  EXPECT_EQ(x.as_set, y.as_set);
}

TEST(ParallelEquivalence, RunAllTgasMatchesSequential) {
  const auto& universe = v6::testutil::small_universe();
  // A deterministic seed sample straight from the universe keeps this
  // test independent of the (slower) Workbench collection pipeline.
  std::vector<Ipv6Addr> seeds;
  const auto hosts = universe.hosts();
  for (std::size_t i = 0; i < hosts.size(); i += 7) {
    seeds.push_back(hosts[i].addr);
  }
  const auto alias_list = v6::dealias::AliasList::published_from(universe);

  PipelineConfig config;
  config.budget = 20'000;
  config.batch_size = 4'000;

  const ScanSession base = ScanSession(universe, alias_list)
                               .with_seeds(seeds)
                               .with_config(config);
  const auto sequential = ScanSession(base).with_jobs(1).sweep();
  const auto parallel = ScanSession(base).with_jobs(4).sweep();

  ASSERT_EQ(sequential.size(), parallel.size());
  ASSERT_EQ(sequential.size(), static_cast<std::size_t>(v6::tga::kNumTgas));
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    SCOPED_TRACE(std::string("tga ") +
                 std::string(v6::tga::to_string(sequential[i].kind)));
    expect_identical(sequential[i], parallel[i]);
  }
}

// Instrumentation must not perturb outcomes: a sweep run with a
// telemetry context (counters + tracing sink attached) is
// field-identical to the bare sweep, for any jobs count.
TEST(ParallelEquivalence, TelemetryDoesNotPerturbOutcomes) {
  const auto& universe = v6::testutil::small_universe();
  std::vector<Ipv6Addr> seeds;
  const auto hosts = universe.hosts();
  for (std::size_t i = 0; i < hosts.size(); i += 9) {
    seeds.push_back(hosts[i].addr);
  }
  const auto alias_list = v6::dealias::AliasList::published_from(universe);

  PipelineConfig config;
  config.budget = 10'000;

  const ScanSession base = ScanSession(universe, alias_list)
                               .with_kind(v6::tga::TgaKind::kSixTree)
                               .with_seeds(seeds)
                               .with_config(config);

  const auto bare = ScanSession(base).with_jobs(1).sweep();

  v6::obs::Telemetry telemetry;
  v6::obs::MemorySink sink;
  telemetry.attach_sink(&sink);
  const auto traced =
      ScanSession(base)
          .with_config(PipelineConfig(config).with_trace_probes(true))
          .with_telemetry(&telemetry)
          .with_jobs(2)
          .sweep();

  ASSERT_EQ(bare.size(), traced.size());
  expect_identical(bare.front(), traced.front());
  EXPECT_GT(sink.size(), 0u);
}

// The merged telemetry of a sweep — counter values and the order of
// trace event paths — is identical for jobs=1 and jobs>1: per-run
// registries and event buffers are folded in slot order, so thread
// scheduling cannot leak into the merged view.
TEST(ParallelEquivalence, MergedTelemetryIsDeterministic) {
  const auto& universe = v6::testutil::small_universe();
  std::vector<Ipv6Addr> seeds;
  const auto hosts = universe.hosts();
  for (std::size_t i = 0; i < hosts.size(); i += 9) {
    seeds.push_back(hosts[i].addr);
  }
  const auto alias_list = v6::dealias::AliasList::published_from(universe);

  PipelineConfig config;
  config.budget = 8'000;
  config.batch_size = 2'000;

  const std::array<v6::tga::TgaKind, 3> kinds = {v6::tga::TgaKind::kSixTree,
                                                 v6::tga::TgaKind::kDet,
                                                 v6::tga::TgaKind::kSixGen};

  auto run = [&](unsigned jobs) {
    v6::obs::Telemetry telemetry;
    v6::obs::MemorySink sink;
    telemetry.attach_sink(&sink);
    const auto runs = ScanSession(universe, alias_list)
                          .with_kinds(kinds)
                          .with_seeds(seeds)
                          .with_config(config)
                          .with_telemetry(&telemetry)
                          .with_jobs(jobs)
                          .sweep();
    // Event paths in emission order; timestamps/durations are wall
    // clock and excluded on purpose — except sampler points, whose
    // `at` is virtual time and deterministic along with the value.
    std::vector<std::string> paths;
    std::vector<std::tuple<std::string, double, std::uint64_t>> samples;
    for (const auto& ev : sink.events()) {
      paths.push_back(ev.path);
      if (ev.kind == v6::obs::Event::Kind::kSample) {
        samples.emplace_back(ev.path, ev.at, ev.value);
      }
    }
    return std::tuple(telemetry.registry().snapshot(), std::move(paths),
                      std::move(samples), runs);
  };

  const auto [report_seq, paths_seq, samples_seq, runs_seq] = run(1);
  const auto [report_par, paths_par, samples_par, runs_par] = run(3);

  EXPECT_FALSE(samples_seq.empty());
  EXPECT_EQ(samples_seq, samples_par);

  // Counters and gauges are bit-identical across jobs counts, except
  // the `.wall` family: those measure host time / scheduling (queue
  // high watermarks, blocked time, wall durations) and are exempt from
  // the determinism contract (docs/OBSERVABILITY.md).
  const auto drop_wall = [](const auto& metrics) {
    auto out = metrics;
    for (auto it = out.begin(); it != out.end();) {
      const std::string& name = it->first;
      const bool wall =
          name.size() >= 5 && name.compare(name.size() - 5, 5, ".wall") == 0;
      it = wall ? out.erase(it) : std::next(it);
    }
    return out;
  };
  EXPECT_EQ(drop_wall(report_seq.counters), drop_wall(report_par.counters));
  EXPECT_EQ(drop_wall(report_seq.gauges), drop_wall(report_par.gauges));
  // Timer *counts* are deterministic; elapsed seconds are not — except
  // the virtual-clock wire timers, which must be bit-identical.
  ASSERT_EQ(report_seq.timers.size(), report_par.timers.size());
  for (const auto& [name, total] : report_seq.timers) {
    const auto it = report_par.timers.find(name);
    ASSERT_NE(it, report_par.timers.end()) << name;
    EXPECT_EQ(total.count, it->second.count) << name;
    if (name.find(".wire_seconds") != std::string::npos) {
      EXPECT_EQ(total.nanos, it->second.nanos) << name;
    }
  }
  // Histograms fed from the virtual clock (RTTs, batch stats) are
  // bit-identical across jobs counts; only the `.wall` family measures
  // host time and is exempt from the determinism contract.
  ASSERT_EQ(report_seq.histograms.size(), report_par.histograms.size());
  bool saw_virtual_histogram = false;
  for (const auto& [name, total] : report_seq.histograms) {
    const auto it = report_par.histograms.find(name);
    ASSERT_NE(it, report_par.histograms.end()) << name;
    if (name.size() >= 5 && name.compare(name.size() - 5, 5, ".wall") == 0) {
      EXPECT_EQ(total.count, it->second.count) << name;
      continue;
    }
    saw_virtual_histogram = true;
    EXPECT_EQ(total, it->second) << name;
  }
  EXPECT_TRUE(saw_virtual_histogram);
  EXPECT_EQ(paths_seq, paths_par);

  // Per-run reports carry per-TGA attribution that survives the workers.
  ASSERT_EQ(runs_seq.size(), runs_par.size());
  for (std::size_t i = 0; i < runs_seq.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(runs_seq[i].report.counters, runs_par[i].report.counters);
  }
}

TEST(ParallelEquivalence, RepeatedParallelRunsAreStable) {
  const auto& universe = v6::testutil::small_universe();
  std::vector<Ipv6Addr> seeds;
  const auto hosts = universe.hosts();
  for (std::size_t i = 0; i < hosts.size(); i += 11) {
    seeds.push_back(hosts[i].addr);
  }
  const auto alias_list = v6::dealias::AliasList::published_from(universe);

  PipelineConfig config;
  config.budget = 10'000;

  const std::array<v6::tga::TgaKind, 3> kinds = {
      v6::tga::TgaKind::kSixTree, v6::tga::TgaKind::kDet,
      v6::tga::TgaKind::kSixGen};
  const ScanSession session = ScanSession(universe, alias_list)
                                  .with_kinds(kinds)
                                  .with_seeds(seeds)
                                  .with_config(config)
                                  .with_jobs(3);
  const auto first = session.sweep();
  const auto second = session.sweep();
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    SCOPED_TRACE(i);
    expect_identical(first[i], second[i]);
  }
}

TEST(ParallelEquivalence, WorkbenchPrecomputeMatchesLazyAccess) {
  WorkbenchConfig config;
  config.seed = 91;
  config.universe.seed = 91;
  config.universe.num_ases = 150;
  config.universe.host_scale = 0.12;

  Workbench eager(config);
  eager.precompute(/*jobs=*/4);
  Workbench lazy(config);

  for (const auto mode :
       {v6::dealias::DealiasMode::kOffline, v6::dealias::DealiasMode::kOnline,
        v6::dealias::DealiasMode::kJoint}) {
    EXPECT_EQ(eager.dealiased(mode), lazy.dealiased(mode));
  }
  EXPECT_EQ(eager.all_active(), lazy.all_active());
  for (const auto type : v6::net::kAllProbeTypes) {
    EXPECT_EQ(eager.port_specific(type), lazy.port_specific(type));
  }
  for (const auto source : v6::seeds::kAllSeedSources) {
    EXPECT_EQ(eager.source_active(source), lazy.source_active(source));
  }
}

}  // namespace
}  // namespace v6::experiment
