// Throughput bench for the scan engines: batch Scanner vs the streaming
// StreamScanner (docs/SCANNER.md) across shard counts.
//
// Measures probes/second over a deterministic target mix (hits, misses,
// duplicates) drawn from a small simulated universe, and enforces the
// engine contracts on every run — smoke or full:
//
//   * the streaming engine is bit-identical across shard counts
//     (hits vector and every ScanStats field),
//   * batch and stream agree on the deterministic pre-wire counters
//     (targets / deduped / blocked / probed) — hit counts are NOT
//     compared because the engines use different reply-RNG models.
//
// On a single-core host a full (non --smoke) run additionally asserts
// the 1-shard streaming per-probe cost stays within 5% of the batch
// engine — sharding must not tax the sequential case. Multi-core
// hosts skip that assertion (the bench then measures scaling, where
// wall time depends on the scheduler).
//
// The run also measures the live introspection plane's cost: a 1-shard
// stream pass with telemetry + flight recorder + armed watchdog attached
// is interleaved against a plain pass and must stay bit-identical; the
// overhead ratio lands in the JSON (entry `stream_instrumented`, design
// bar <2%, gated at the same 1.05 noise floor on single-core hosts).
//
// Usage: bench_throughput [targets] [--jobs N] [--repeat N] [--smoke]
// The positional budget is reinterpreted as the target-list length.
// Writes BENCH_throughput.json (see bench_common.h for the schema);
// entries carry probes_per_second and shards as extra fields.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "net/ipv6.h"
#include "obs/flight_recorder.h"
#include "obs/telemetry.h"
#include "obs/watchdog.h"
#include "probe/scanner.h"
#include "probe/stream_scanner.h"
#include "probe/transport.h"
#include "simnet/universe.h"
#include "simnet/universe_builder.h"
#include "simnet/universe_config.h"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Deterministic target mix: cycle the universe's host list, every third
/// entry perturbed into a (near-certain) miss, every fifth a duplicate of
/// an earlier target. Exercises dedup, misses, and hits in one list.
std::vector<v6::net::Ipv6Addr> make_targets(
    const v6::simnet::Universe& universe, std::uint64_t count) {
  const auto hosts = universe.hosts();
  std::vector<v6::net::Ipv6Addr> targets;
  targets.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    if (i % 5 == 4 && !targets.empty()) {
      targets.push_back(targets[i / 2]);
      continue;
    }
    const v6::net::Ipv6Addr base = hosts[i % hosts.size()].addr;
    if (i % 3 == 2) {
      // Flip high interface-identifier bits: overwhelmingly a timeout.
      targets.emplace_back(base.hi(), base.lo() ^ 0xDEAD'BEEF'0000'0000ULL);
    } else {
      targets.push_back(base);
    }
  }
  return targets;
}

bool stats_equal(const v6::probe::ScanStats& a, const v6::probe::ScanStats& b) {
  return a.targets == b.targets && a.deduped == b.deduped &&
         a.blocked == b.blocked && a.probed == b.probed &&
         a.packets == b.packets && a.hits == b.hits && a.rsts == b.rsts &&
         a.unreachables == b.unreachables && a.timeouts == b.timeouts &&
         a.virtual_seconds == b.virtual_seconds &&
         a.retransmissions == b.retransmissions && a.backoffs == b.backoffs &&
         a.backoff_seconds == b.backoff_seconds;
}

[[noreturn]] void fail(const std::string& message) {
  std::cerr << "bench_throughput: FAIL: " << message << "\n";
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  v6::bench::BenchArgs args = v6::bench::parse_args(argc, argv, 60'000);
  std::uint64_t target_count = args.budget;
  if (args.smoke && target_count > 5'000) target_count = 5'000;

  v6::bench::BenchTimer timer("throughput", args);

  // A small universe keeps setup cheap while still covering aliased and
  // rate-limited host behaviors; the default (seed 42) dense region is in.
  v6::simnet::UniverseConfig config;
  config.num_ases = 300;
  config.host_scale = 0.3;
  const auto setup_start = Clock::now();
  const v6::simnet::Universe universe =
      v6::simnet::UniverseBuilder::build(config);
  const std::vector<v6::net::Ipv6Addr> targets =
      make_targets(universe, target_count);
  timer.record_phase("setup", seconds_since(setup_start));

  const v6::probe::ScanOptions scan_options =
      v6::probe::ScanOptions{}.with_seed(7).with_max_pps(1e6);

  const auto run_stream = [&](unsigned shards, v6::probe::ScanResult* result,
                              double* sample) {
    v6::probe::StreamScanner scanner(
        universe, nullptr,
        v6::probe::StreamScanOptions{}.with_shards(shards).with_scan(
            scan_options));
    const auto start = Clock::now();
    *result = scanner.scan_hits(targets, v6::net::ProbeType::kIcmp);
    *sample = seconds_since(start);
  };

  // --- Batch engine vs 1-shard stream, interleaved ------------------------
  // The two sides of the perf gate alternate within one loop so that the
  // host's slow timing drift (VM clock/frequency wander) hits both
  // equally; back-to-back blocks would bias whichever ran second.
  std::vector<double> batch_samples;
  std::vector<double> stream1_samples;
  v6::probe::ScanResult batch_result;
  v6::probe::ScanResult stream_baseline;
  const auto run_pairs = [&](unsigned pairs) {
    for (unsigned r = 0; r < pairs; ++r) {
      {
        v6::probe::SimTransport wire(universe, scan_options.seed);
        v6::probe::Scanner scanner(wire, nullptr, scan_options);
        const auto start = Clock::now();
        batch_result = scanner.scan_hits(targets, v6::net::ProbeType::kIcmp);
        batch_samples.push_back(seconds_since(start));
      }
      double sample = 0.0;
      run_stream(1, &stream_baseline, &sample);
      stream1_samples.push_back(sample);
    }
  };
  const auto min_of = [](const std::vector<double>& v) {
    return *std::min_element(v.begin(), v.end());
  };
  run_pairs(args.repeat);

  // Wall-clock noise on a shared host is one-sided — interference only
  // ever inflates a sample — so the floor over enough pairs estimates
  // the noise-free cost. Gate runs take up to two extra measurement
  // blocks before concluding the floor really moved.
  constexpr double kGateRatio = 1.05;
  const bool single_core = std::thread::hardware_concurrency() <= 1;
  if (!args.smoke && single_core) {
    for (int block = 1;
         block < 3 && min_of(stream1_samples) > kGateRatio * min_of(batch_samples);
         ++block) {
      run_pairs(args.repeat);
    }
  }
  const double batch_wall = min_of(batch_samples);
  const double stream1_wall = min_of(stream1_samples);
  if (batch_result.stats.probed == 0) fail("batch engine probed nothing");
  timer.record_samples(
      "batch", batch_samples,
      {{"probes_per_second",
        static_cast<double>(batch_result.stats.probed) / batch_wall},
       {"shards", 0.0},
       {"probed", static_cast<double>(batch_result.stats.probed)},
       {"hits", static_cast<double>(batch_result.stats.hits)}});
  timer.record_samples(
      "stream_shards_1", stream1_samples,
      {{"probes_per_second",
        static_cast<double>(stream_baseline.stats.probed) / stream1_wall},
       {"shards", 1.0},
       {"probed", static_cast<double>(stream_baseline.stats.probed)},
       {"hits", static_cast<double>(stream_baseline.stats.hits)}});

  // --- Streaming engine at real shard counts ------------------------------
  for (const unsigned shards : {2u, 4u}) {
    std::vector<double> samples;
    v6::probe::ScanResult result;
    for (unsigned r = 0; r < args.repeat; ++r) {
      double sample = 0.0;
      run_stream(shards, &result, &sample);
      samples.push_back(sample);
    }
    const double wall = *std::min_element(samples.begin(), samples.end());
    // Contract: shard-merged results are bit-identical to 1 shard.
    if (result.hits != stream_baseline.hits) {
      fail("stream hits differ between shards=1 and shards=" +
           std::to_string(shards));
    }
    if (!stats_equal(result.stats, stream_baseline.stats)) {
      fail("stream ScanStats differ between shards=1 and shards=" +
           std::to_string(shards));
    }
    timer.record_samples(
        "stream_shards_" + std::to_string(shards), samples,
        {{"probes_per_second",
          static_cast<double>(result.stats.probed) / wall},
         {"shards", static_cast<double>(shards)},
         {"probed", static_cast<double>(result.stats.probed)},
         {"hits", static_cast<double>(result.stats.hits)}});
  }

  // --- Introspection-plane overhead ---------------------------------------
  // The live plane (telemetry registry + flight-recorder sink + an armed
  // stall watchdog with its monitor thread) rides along a 1-shard stream
  // pass. Design bar: under 2% per-probe overhead (docs/OBSERVABILITY.md
  // "Live introspection"); the enforced gate reuses the engine gate's
  // 1.05 noise floor because shared-host wall noise dwarfs 2%. Pairs are
  // interleaved again so clock drift hits both sides equally.
  std::vector<double> plain_samples;
  std::vector<double> plane_samples;
  v6::probe::ScanResult plane_result;
  const auto run_plane_pairs = [&](unsigned pairs) {
    for (unsigned r = 0; r < pairs; ++r) {
      double sample = 0.0;
      v6::probe::ScanResult plain_result;
      run_stream(1, &plain_result, &sample);
      plain_samples.push_back(sample);

      v6::obs::Telemetry telemetry;
      v6::obs::FlightRecorder recorder;
      telemetry.attach_sink(&recorder);
      v6::obs::StallWatchdog::Options wd;
      wd.deadline_seconds = 30.0;
      wd.registry = &telemetry.registry();
      v6::obs::StallWatchdog watchdog(wd);
      watchdog.start();
      v6::probe::StreamScanner scanner(
          universe, nullptr,
          v6::probe::StreamScanOptions{}
              .with_shards(1)
              .with_scan(v6::probe::ScanOptions(scan_options)
                             .with_telemetry(&telemetry))
              .with_watchdog(&watchdog));
      const auto start = Clock::now();
      plane_result = scanner.scan_hits(targets, v6::net::ProbeType::kIcmp);
      plane_samples.push_back(seconds_since(start));
      watchdog.stop();
      if (watchdog.tripped()) {
        fail("watchdog tripped during a healthy bench pass");
      }
    }
  };
  run_plane_pairs(args.repeat);
  if (!args.smoke && single_core) {
    for (int block = 1;
         block < 3 &&
         min_of(plane_samples) > kGateRatio * min_of(plain_samples);
         ++block) {
      run_plane_pairs(args.repeat);
    }
  }
  // Observation must never steer the scan: the instrumented pass is
  // bit-identical to the plain streaming baseline.
  if (plane_result.hits != stream_baseline.hits ||
      !stats_equal(plane_result.stats, stream_baseline.stats)) {
    fail("instrumented stream pass diverged from the plain pass");
  }
  const double plane_ratio = min_of(plane_samples) / min_of(plain_samples);
  timer.record_samples(
      "stream_instrumented", plane_samples,
      {{"probes_per_second",
        static_cast<double>(plane_result.stats.probed) /
            min_of(plane_samples)},
       {"shards", 1.0},
       {"overhead_ratio", plane_ratio}});
  std::cerr << "introspection plane overhead ratio " << plane_ratio
            << " (design bar 1.02, gate 1.05)\n";
  if (!args.smoke && single_core && plane_ratio > kGateRatio) {
    timer.write();  // keep the failing run's trajectory on disk
    fail("introspection plane overhead exceeds the 1.05 gate (ratio " +
         std::to_string(plane_ratio) + "; design bar is 1.02)");
  }

  // Engines share the deterministic pre-wire path: the same dedup,
  // blocklist, and probe admission decisions. (Hit counts legitimately
  // differ: batch draws replies from one sequential mt19937 stream,
  // stream from per-(addr, type, attempt) splitmix64 streams.)
  const v6::probe::ScanStats& b = batch_result.stats;
  const v6::probe::ScanStats& s = stream_baseline.stats;
  if (b.targets != s.targets || b.deduped != s.deduped ||
      b.blocked != s.blocked || b.probed != s.probed) {
    fail("batch and stream disagree on targets/deduped/blocked/probed");
  }

  // Single-core perf gate: sharding must not tax the sequential
  // case. Only meaningful where both engines compete for one core.
  const double batch_per_probe = batch_wall / static_cast<double>(b.probed);
  const double stream_per_probe = stream1_wall / static_cast<double>(s.probed);
  std::cerr << "per-probe: batch " << batch_per_probe * 1e9 << "ns, stream(1) "
            << stream_per_probe * 1e9 << "ns, ratio "
            << stream_per_probe / batch_per_probe << " ("
            << batch_samples.size() << " pairs)\n";
  if (!args.smoke && single_core) {
    if (stream_per_probe > kGateRatio * batch_per_probe) {
      timer.write();  // keep the failing run's trajectory on disk
      fail("1-shard streaming per-probe cost exceeds batch by more than 5% "
           "(ratio " + std::to_string(stream_per_probe / batch_per_probe) +
           ", limit 1.05)");
    }
    std::cerr << "perf gate: OK (limit 1.05)\n";
  } else {
    std::cerr << "perf gate skipped ("
              << (args.smoke ? "--smoke" : "multi-core host") << ")\n";
  }

  std::cerr << "bench_throughput: OK (" << targets.size() << " targets, "
            << b.probed << " probed)\n";
  return 0;
}
