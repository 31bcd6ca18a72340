// Shared helpers for the bench harnesses that regenerate the paper's
// tables and figures: argument parsing (budget + --jobs), the parallel
// TGA sweep (the ScanSession builder, src/experiment/session.h), and a
// timing harness that writes BENCH_<name>.json so the perf trajectory
// of every bench is machine-readable across revisions.
#pragma once

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "experiment/pipeline.h"
#include "experiment/session.h"
#include "experiment/workbench.h"
#include "metrics/reporter.h"
#include "metrics/scan_outcome.h"
#include "obs/quantiles.h"
#include "runtime/worker_group.h"
#include "tga/registry.h"

namespace v6::bench {

/// Build flavor baked in by CMake (V6_BUILD_TAG compile definition, set
/// by the sanitizer presets). Instrumented builds write their timing
/// records to BENCH_<name>.<tag>.json so sanitizer overhead tracks as
/// its own trajectory instead of polluting the Release numbers.
#if defined(V6_BUILD_TAG)
inline constexpr const char* kBuildTag = V6_BUILD_TAG;
#else
inline constexpr const char* kBuildTag = "release";
#endif

using v6::experiment::ScanSession;
using v6::experiment::TgaRun;

struct BenchArgs {
  /// Generation budget per run. Default 400K — the scaled analogue of
  /// the paper's 50M budget.
  std::uint64_t budget = 400'000;
  /// Concurrent TGA runs / variant computations (--jobs N, default
  /// V6_JOBS env or hardware_concurrency).
  unsigned jobs = 1;
  /// Measurement repeats per timed configuration (--repeat N). Benches
  /// that honor it run each timed section N times and report the min and
  /// median wall time (record_samples), which tames scheduler noise.
  unsigned repeat = 1;
  /// CI smoke mode (--smoke): benches shrink their workloads and skip
  /// host-sensitive perf assertions, keeping only correctness checks.
  bool smoke = false;
};

[[noreturn]] inline void usage(const char* argv0, const std::string& error) {
  std::cerr << "error: " << error << "\n"
            << "usage: " << argv0
            << " [budget-per-run] [--jobs N] [--repeat N] [--smoke]\n"
            << "  budget-per-run  positive integer (default varies by bench)\n"
            << "  --jobs N        concurrent runs (default: V6_JOBS or "
               "hardware threads)\n"
            << "  --repeat N      timed repeats per configuration "
               "(default 1; min/median reported)\n"
            << "  --smoke         tiny-workload CI mode; perf assertions "
               "are skipped\n";
  std::exit(2);
}

/// Strict positive-integer parse: rejects empty input, trailing garbage,
/// overflow, and zero.
inline bool parse_u64(std::string_view text, std::uint64_t* out) {
  if (text.empty()) return false;
  const std::string owned(text);  // strtoull needs a terminated buffer
  errno = 0;
  char* end = nullptr;
  const std::uint64_t v = std::strtoull(owned.c_str(), &end, 10);
  if (end != owned.c_str() + owned.size() || errno == ERANGE || v == 0) {
    return false;
  }
  *out = v;
  return true;
}

/// Every bench accepts `[budget-per-run] [--jobs N]`. Malformed input is
/// a usage error, never a silent fallback.
inline BenchArgs parse_args(int argc, char** argv,
                            std::uint64_t fallback_budget = 400'000) {
  BenchArgs args;
  args.budget = fallback_budget;
  args.jobs = v6::runtime::default_jobs();
  bool have_budget = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    std::uint64_t v = 0;
    if (arg == "--jobs" || arg == "-j") {
      if (i + 1 >= argc || !parse_u64(argv[i + 1], &v) || v > 4096) {
        usage(argv[0], "--jobs needs a positive integer");
      }
      args.jobs = static_cast<unsigned>(v);
      ++i;
    } else if (arg.rfind("--jobs=", 0) == 0) {
      if (!parse_u64(arg.substr(7), &v) || v > 4096) {
        usage(argv[0], "--jobs needs a positive integer");
      }
      args.jobs = static_cast<unsigned>(v);
    } else if (arg == "--repeat") {
      if (i + 1 >= argc || !parse_u64(argv[i + 1], &v) || v > 1000) {
        usage(argv[0], "--repeat needs a positive integer");
      }
      args.repeat = static_cast<unsigned>(v);
      ++i;
    } else if (arg.rfind("--repeat=", 0) == 0) {
      if (!parse_u64(arg.substr(9), &v) || v > 1000) {
        usage(argv[0], "--repeat needs a positive integer");
      }
      args.repeat = static_cast<unsigned>(v);
    } else if (arg == "--smoke") {
      args.smoke = true;
    } else if (!have_budget && arg.rfind("-", 0) != 0) {
      if (!parse_u64(arg, &v)) {
        usage(argv[0], "budget must be a positive integer, got '" +
                           std::string(arg) + "'");
      }
      args.budget = v;
      have_budget = true;
    } else {
      usage(argv[0], "unexpected argument '" + std::string(arg) + "'");
    }
  }
  return args;
}

/// Backwards-compatible budget-only accessor, now hardened: garbage or
/// out-of-range input aborts with a usage message.
inline std::uint64_t budget_from_argv(int argc, char** argv,
                                      std::uint64_t fallback = 400'000) {
  return parse_args(argc, argv, fallback).budget;
}

/// Wall-clock timing harness. Collects one entry per recorded run (or
/// coarse phase) and writes them as BENCH_<name>.json in the working
/// directory — the machine-readable perf trajectory of the bench suite.
///
/// JSON schema (docs/ALGORITHMS.md has the full description):
///   { "bench": str, "budget": int, "jobs": int,
///     "total_wall_seconds": float,
///     "runs": [ { "label": str, "wall_seconds": float,
///                 // record_samples entries (repeated timings) add:
///                 // "wall_seconds_median": float, "repeats": int, and
///                 // bench-specific numeric fields (probes_per_second),
///                 // with wall_seconds then being the min over repeats.
///                 // TGA runs additionally carry:
///                 "tga": str, "generated": int, "responsive": int,
///                 "hits": int, "ases": int, "aliases": int,
///                 "dense_filtered": int, "packets": int,
///                 "virtual_seconds": float,
///                 // per-phase breakdown from the run's obs report
///                 // (pipeline.* span totals, "pipeline." stripped):
///                 "phases": { "run": float, "generate": float,
///                             "scan": float, "dealias": float, ... },
///                 // distribution summaries of every histogram the run
///                 // recorded (obs/quantiles.h schema):
///                 "quantiles": { "<metric>": { "count": int,
///                     "mean": float, "p50": float, "p90": float,
///                     "p99": float, "max": float }, ... } } ] }
class BenchTimer {
  using Clock = std::chrono::steady_clock;

 public:
  BenchTimer(std::string name, const BenchArgs& args)
      : name_(std::move(name)),
        budget_(args.budget),
        jobs_(args.jobs),
        start_(Clock::now()) {}

  ~BenchTimer() {
    if (!written_) write();
  }

  /// Records every TGA run of one labelled sweep, including the
  /// per-phase wall-time breakdown from the run's obs report.
  void record(const std::string& label, const std::vector<TgaRun>& runs) {
    for (const TgaRun& run : runs) {
      Entry e;
      e.label = label;
      e.tga = std::string(v6::tga::to_string(run.kind));
      e.wall_seconds = run.wall_seconds;
      e.generated = run.outcome.generated;
      e.responsive = run.outcome.responsive;
      e.hits = run.outcome.hits();
      e.ases = run.outcome.ases();
      e.aliases = run.outcome.aliases;
      e.dense_filtered = run.outcome.dense_filtered;
      e.packets = run.outcome.packets;
      e.virtual_seconds = run.outcome.virtual_seconds;
      e.has_outcome = true;
      for (const auto& [name, total] : run.report.timers) {
        constexpr std::string_view kPrefix = "pipeline.";
        if (name.rfind(kPrefix, 0) == 0) {
          e.phases.emplace_back(name.substr(kPrefix.size()),
                                total.seconds());
        }
      }
      if (!run.report.histograms.empty()) {
        e.quantiles = v6::obs::quantiles_json(run.report.histograms);
      }
      entries_.push_back(std::move(e));
    }
  }

  /// Records a coarse non-TGA phase (setup, analysis, a table pass).
  void record_phase(const std::string& label, double wall_seconds) {
    Entry e;
    e.label = label;
    e.wall_seconds = wall_seconds;
    entries_.push_back(std::move(e));
  }

  /// Records a repeated timed configuration (--repeat N): `samples` are
  /// the per-repeat wall times. The entry's wall_seconds is the MINIMUM
  /// (the standard low-noise estimator for repeated benchmarks), with
  /// "wall_seconds_median" and "repeats" alongside; `extras` are emitted
  /// as additional top-level numeric fields (e.g. probes_per_second).
  void record_samples(const std::string& label, std::vector<double> samples,
                      std::vector<std::pair<std::string, double>> extras = {}) {
    if (samples.empty()) return;
    std::sort(samples.begin(), samples.end());
    Entry e;
    e.label = label;
    e.wall_seconds = samples.front();
    e.wall_seconds_median = samples[samples.size() / 2];
    e.repeats = samples.size();
    e.extras = std::move(extras);
    entries_.push_back(std::move(e));
  }

  /// RAII phase timer: records on destruction.
  class Section {
   public:
    Section(BenchTimer& timer, std::string label)
        : timer_(&timer), label_(std::move(label)), start_(Clock::now()) {}
    ~Section() { timer_->record_phase(label_, seconds_since(start_)); }
    Section(const Section&) = delete;
    Section& operator=(const Section&) = delete;

   private:
    BenchTimer* timer_;
    std::string label_;
    Clock::time_point start_;
  };

  Section section(std::string label) {
    return Section(*this, std::move(label));
  }

  /// Writes BENCH_<name>.json — or BENCH_<name>.<tag>.json from a
  /// tagged (sanitizer) build. Also triggered by the destructor.
  void write() {
    written_ = true;
    const std::string tag = kBuildTag;
    const std::string path = tag == "release"
                                 ? "BENCH_" + name_ + ".json"
                                 : "BENCH_" + name_ + "." + tag + ".json";
    std::ofstream out(path);
    if (!out) {
      std::cerr << "warning: cannot write " << path << "\n";
      return;
    }
    out << "{\n"
        << "  \"bench\": \"" << escape(name_) << "\",\n"
        << "  \"build\": \"" << escape(tag) << "\",\n"
        << "  \"budget\": " << budget_ << ",\n"
        << "  \"jobs\": " << jobs_ << ",\n"
        << "  \"total_wall_seconds\": " << seconds_since(start_) << ",\n"
        << "  \"runs\": [";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      out << (i == 0 ? "\n" : ",\n");
      out << "    {\"label\": \"" << escape(e.label) << "\", "
          << "\"wall_seconds\": " << e.wall_seconds;
      if (e.repeats > 0) {
        out << ", \"wall_seconds_median\": " << e.wall_seconds_median
            << ", \"repeats\": " << e.repeats;
      }
      for (const auto& [key, value] : e.extras) {
        out << ", \"" << escape(key) << "\": " << value;
      }
      if (e.has_outcome) {
        out << ", \"tga\": \"" << escape(e.tga) << "\""
            << ", \"generated\": " << e.generated
            << ", \"responsive\": " << e.responsive
            << ", \"hits\": " << e.hits << ", \"ases\": " << e.ases
            << ", \"aliases\": " << e.aliases
            << ", \"dense_filtered\": " << e.dense_filtered
            << ", \"packets\": " << e.packets
            << ", \"virtual_seconds\": " << e.virtual_seconds;
      }
      if (!e.phases.empty()) {
        out << ", \"phases\": {";
        for (std::size_t p = 0; p < e.phases.size(); ++p) {
          out << (p == 0 ? "" : ", ") << "\"" << escape(e.phases[p].first)
              << "\": " << e.phases[p].second;
        }
        out << "}";
      }
      if (!e.quantiles.empty()) {
        out << ", \"quantiles\": " << e.quantiles;  // pre-rendered JSON
      }
      out << "}";
    }
    out << "\n  ]\n}\n";
    std::cerr << "wrote " << path << " (" << entries_.size() << " runs, jobs="
              << jobs_ << ")\n";
  }

 private:
  struct Entry {
    std::string label;
    std::string tga;
    double wall_seconds = 0.0;
    /// record_samples extensions (repeats == 0 on single-shot entries).
    double wall_seconds_median = 0.0;
    std::size_t repeats = 0;
    std::vector<std::pair<std::string, double>> extras;
    bool has_outcome = false;
    std::uint64_t generated = 0, responsive = 0, hits = 0, ases = 0,
                  aliases = 0, dense_filtered = 0, packets = 0;
    double virtual_seconds = 0.0;
    /// (phase name, seconds), already sorted: report timers are a map.
    std::vector<std::pair<std::string, double>> phases;
    /// Pre-rendered quantiles JSON object (empty when the run recorded
    /// no histograms).
    std::string quantiles;
  };

  static double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
  }

  static std::string escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
    }
    return out;
  }

  std::string name_;
  std::uint64_t budget_;
  unsigned jobs_;
  Clock::time_point start_;
  std::vector<Entry> entries_;
  bool written_ = false;
};

/// Wall-timed single-TGA pipeline run (benches that sweep configs rather
/// than TGA sets).
inline TgaRun run_one_tga(const v6::simnet::Universe& universe,
                          v6::tga::TgaKind kind,
                          std::span<const v6::net::Ipv6Addr> seeds,
                          const v6::dealias::AliasList& alias_list,
                          const v6::experiment::PipelineConfig& config) {
  return ScanSession(universe, alias_list)
      .with_kind(kind)
      .with_seeds(seeds)
      .with_config(config)
      .sweep()
      .front();
}

/// Header row "TGA | 6Sense | DET | ..." used by the ratio figures.
inline std::vector<std::string> tga_header(const std::string& first) {
  std::vector<std::string> h{first};
  for (const v6::tga::TgaKind kind : v6::tga::kAllTgas) {
    h.emplace_back(v6::tga::to_string(kind));
  }
  return h;
}

}  // namespace v6::bench
