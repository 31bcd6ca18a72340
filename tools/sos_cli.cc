// sos — command-line driver for the Seeds of Scanning reproduction.
//
//   sos universe [--seed N] [--ases N] [--scale F]
//       Print a summary of the simulated Internet.
//   sos sources [--seed N]
//       Collect the 12 seed feeds and print their composition.
//   sos run --tga NAME [--port P] [--dataset D] [--budget N] [--seed N]
//       Run one TGA through the scan pipeline.
//       datasets: full, offline, online, joint, active (default),
//                 port (the port-specific dataset of --port)
//   sos survey [--port P] [--budget N] [--seed N] [--jobs N]
//              [--combined any] [--tgas A,B,...]
//       Run all eight TGAs (or the --tgas subset) and print the
//       comparison table. With --combined, generate from the same TGAs
//       and scan the union once (the paper's probing methodology,
//       minimizing per-address scans).
//   sos report FILE [--json] [--top N]
//       Analyze a --trace JSONL file offline: per-TGA phase tables, wire
//       accounting, histogram quantiles, top-N slowest spans. --json
//       prints the machine-readable summary instead.
//
//   run and survey additionally accept (docs/OBSERVABILITY.md):
//     --trace FILE   write a JSON-lines event trace (spans, per-probe
//                    events, final metric totals) to FILE
//     --trace-chrome FILE
//                    write a chrome://tracing / Perfetto JSON trace
//     --stats        print the counter/phase/distribution tables on exit
//   and the fault/robustness knobs (docs/ROBUSTNESS.md):
//     --faults SPEC  inject network faults; SPEC is comma-separated
//                    loss=P | loss=PFX:P | rlimit=PFX:RATE[:BURST[:LEN]]
//                    | outage=PFX:START:DUR[:PERIOD] | error=PFX:P
//                    | pps=RATE, with PFX a CIDR prefix or `any`
//     --retries N    scanner retransmissions after a timeout
//     --timeout S    virtual seconds to wait per unanswered probe
//     --backoff S    base retry backoff (doubles per retry)
//     --jitter F     fractional jitter on backoff waits
//     --adaptive N   consecutive-timeout threshold for per-prefix
//                    cool-downs (use with --cooldown S)
//     --cooldown S   adaptive cool-down wait in virtual seconds
//   and the scan-engine selector (docs/SCANNER.md):
//     --shards N     route scans through the streaming stateless engine
//                    with N shard workers (0, the default, keeps the
//                    batch engine)
//   sos serve [--cycles N] [--budget N] [--shards N] [--port P]
//             [--tgas A,B,...] [--interval N] [--streak N] [--floor F]
//             [--age 0|1] [--feed N] [--seed N]
//       Run the continuous hitlist service (docs/SERVICE.md): refresh
//       cycles against an aging universe, with per-cycle rescans,
//       bandit-allocated discovery budget, and one immutable hitlist
//       epoch published per cycle. --age 0 freezes the universe;
//       --feed N ingests fresh discoveries back into the generators as
//       seed deltas every N cycles (0 disables, default 1).
//   serve additionally speaks the live introspection plane
//   (docs/OBSERVABILITY.md "Live introspection"); any of these flags
//   activates telemetry and the in-memory flight recorder:
//     --admin-port P   loopback HTTP endpoint serving /metrics
//                      (Prometheus text exposition), /healthz, and
//                      /flight (recorder dump as trace JSONL); port 0
//                      picks an ephemeral port, printed on stderr
//     --status-file F  atomically rewrite F with the exposition document
//                      after every refresh cycle (scrape via the
//                      filesystem when no socket is wanted)
//     --watchdog S     start the stall watchdog with an S-second
//                      wall-clock deadline; a stalled stage dumps
//                      diagnostics and the flight recorder
//     --flight F       where watchdog trips and SIGTERM/SIGINT write the
//                      flight-recorder JSONL (parseable by `sos report`)
//   sos expo-check FILE
//       Validate a Prometheus exposition document (a /metrics scrape or
//       --status-file snapshot); prints family/sample counts.
//   sos trace ADDR [--seed N]
//       Simulated traceroute toward ADDR.
//   sos collect --source NAME [--out FILE] [--seed N]
//       Collect one seed feed; write addresses to FILE (or count them).
//   sos export --dataset D [--out FILE] [--port P] [--seed N]
//       Materialize a preprocessed seed dataset and write it to FILE.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_set>

#include "check/validate.h"
#include "obs/admin/admin_server.h"
#include "obs/expo.h"
#include "obs/flight_recorder.h"
#include "obs/watchdog.h"
#include "experiment/combined.h"
#include "experiment/pipeline.h"
#include "fault/fault_plan.h"
#include "experiment/session.h"
#include "io/address_file.h"
#include "io/csv.h"
#include "experiment/workbench.h"
#include "metrics/reporter.h"
#include "obs/chrome_trace.h"
#include "obs/quantiles.h"
#include "obs/sinks.h"
#include "obs/telemetry.h"
#include "obs/trace_analysis.h"
#include "obs/trace_reader.h"
#include "service/hitlist_service.h"
#include "simnet/universe_builder.h"
#include "tga/registry.h"
#include "topo/traceroute.h"

namespace {

using v6::metrics::fmt_count;

// Signal-to-flag relay for `sos serve`: the refresh loop checks the flag
// between cycles and exits cleanly (dumping the flight recorder) instead
// of dying mid-epoch. Installed only when the introspection plane is on.
volatile std::sig_atomic_t g_signal = 0;
void note_signal(int sig) { g_signal = sig; }

struct Args {
  std::string command;
  std::string positional;
  std::map<std::string, std::string> options;

  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  std::uint64_t get_u64(const std::string& key, std::uint64_t fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback
                               : std::strtoull(it->second.c_str(), nullptr, 10);
  }
  double get_double(const std::string& key, double fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : std::strtod(it->second.c_str(), nullptr);
  }
};

Args parse_args(int argc, char** argv) {
  Args args;
  if (argc > 1) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--stats" || arg == "--json") {
      // Boolean flags: the generic branch below would swallow the next
      // argument as its value.
      args.options[std::string(arg.substr(2))] = "1";
    } else if (arg.rfind("--", 0) == 0 && i + 1 < argc) {
      args.options[std::string(arg.substr(2))] = argv[++i];
    } else if (args.positional.empty()) {
      args.positional = arg;
    }
  }
  return args;
}

v6::net::ProbeType parse_port(const std::string& text) {
  for (const v6::net::ProbeType t : v6::net::kAllProbeTypes) {
    if (v6::net::to_string(t) == text) return t;
  }
  std::cerr << "unknown port '" << text << "', using ICMP\n";
  return v6::net::ProbeType::kIcmp;
}

v6::experiment::WorkbenchConfig bench_config(
    const Args& args, v6::obs::Telemetry* telemetry = nullptr) {
  v6::experiment::WorkbenchConfig config;
  config.seed = args.get_u64("seed", 42);
  config.universe.seed = config.seed;
  config.universe.num_ases =
      static_cast<int>(args.get_u64("ases", 2000));
  config.universe.host_scale = args.get_double("scale", 0.12);
  return config.with_telemetry(telemetry);
}

std::string fmt_seconds(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", seconds);
  return buf;
}

std::string fmt_compact(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4g", value);
  return buf;
}

// Wires `--trace FILE` / `--trace-chrome FILE` / `--stats` into one
// Telemetry that the command threads through its workbench/pipeline
// configs. finish() emits the final metric totals into the trace,
// finalizes the Chrome trace document, and prints the --stats tables.
//
// `extra` tees one more sink behind the file sinks (serve's flight
// recorder); `force_telemetry` makes telemetry() non-null even with no
// observability flag, for the introspection plane's /metrics scrapes.
class ObsSession {
 public:
  explicit ObsSession(const Args& args, v6::obs::EventSink* extra = nullptr,
                      bool force_telemetry = false)
      : stats_(args.options.contains("stats")),
        force_(force_telemetry),
        extra_(extra),
        trace_path_(args.get("trace", "")),
        chrome_path_(args.get("trace-chrome", "")) {
    if (!trace_path_.empty()) {
      sink_.emplace(trace_path_);
      if (!sink_->ok()) {
        std::cerr << "warning: cannot open trace file '" << trace_path_
                  << "'; tracing disabled\n";
        sink_.reset();
      }
    }
    if (!chrome_path_.empty()) {
      chrome_.emplace(chrome_path_);
      if (!chrome_->ok()) {
        std::cerr << "warning: cannot open chrome trace file '"
                  << chrome_path_ << "'; tracing disabled\n";
        chrome_.reset();
      }
    }
    std::vector<v6::obs::EventSink*> sinks;
    if (sink_) sinks.push_back(&*sink_);
    if (chrome_) sinks.push_back(&*chrome_);
    if (extra_ != nullptr) sinks.push_back(extra_);
    if (sinks.size() == 1) {
      telemetry_.attach_sink(sinks.front());
    } else if (sinks.size() > 1) {
      for (v6::obs::EventSink* s : sinks) tee_.add(s);
      telemetry_.attach_sink(&tee_);
    }
  }

  /// nullptr when no observability flag was given: instrumented code
  /// paths stay on their zero-cost branch.
  v6::obs::Telemetry* telemetry() {
    return (force_ || stats_ || sink_ || chrome_ || extra_ != nullptr)
               ? &telemetry_
               : nullptr;
  }
  bool tracing() const {
    return sink_.has_value() || chrome_.has_value() || extra_ != nullptr;
  }

  void finish() {
    if (tracing()) telemetry_.emit_metrics();
    if (sink_) {
      sink_->flush();
      std::cerr << "wrote trace " << trace_path_ << "\n";
    }
    if (chrome_) {
      chrome_->close();
      std::cerr << "wrote chrome trace " << chrome_path_ << "\n";
    }
    if (!stats_) return;
    const v6::obs::Report report = telemetry_.registry().snapshot();
    if (!report.counters.empty() || !report.gauges.empty()) {
      v6::metrics::TextTable table({"Metric", "Value"});
      for (const auto& [name, value] : report.counters) {
        table.add_row({name, fmt_count(value)});
      }
      for (const auto& [name, value] : report.gauges) {
        table.add_row({name, std::to_string(value)});
      }
      std::cout << "\n-- counters --\n";
      table.print(std::cout);
    }
    if (!report.timers.empty()) {
      v6::metrics::TextTable table({"Phase", "Count", "Seconds", "Mean"});
      for (const auto& [name, total] : report.timers) {
        const double mean =
            total.count == 0 ? 0.0 : total.seconds() / double(total.count);
        table.add_row({name, fmt_count(total.count),
                       fmt_seconds(total.seconds()), fmt_compact(mean)});
      }
      std::cout << "\n-- phases --\n";
      table.print(std::cout);
    }
    if (!report.histograms.empty()) {
      v6::metrics::TextTable table(
          {"Metric", "Count", "Mean", "P50", "P90", "P99", "Max"});
      for (const auto& [name, total] : report.histograms) {
        const auto s = v6::obs::summarize(total);
        table.add_row({name, fmt_count(s.count), fmt_compact(s.mean),
                       fmt_compact(s.p50), fmt_compact(s.p90),
                       fmt_compact(s.p99), fmt_compact(s.max)});
      }
      std::cout << "\n-- distributions --\n";
      table.print(std::cout);
    }
  }

 private:
  bool stats_;
  bool force_;
  v6::obs::EventSink* extra_;
  std::string trace_path_;
  std::string chrome_path_;
  std::optional<v6::obs::JsonLinesSink> sink_;
  std::optional<v6::obs::ChromeTraceSink> chrome_;
  v6::obs::TeeSink tee_;
  v6::obs::Telemetry telemetry_;
};

/// Applies the fault/robustness flags to a pipeline config. The parsed
/// plan lives in `plan_storage` (must outlive the run). Returns false on
/// a malformed --faults spec.
bool apply_fault_options(const Args& args,
                         v6::experiment::PipelineConfig& config,
                         std::optional<v6::fault::FaultPlan>& plan_storage) {
  if (args.options.contains("faults")) {
    plan_storage = v6::fault::FaultPlan::parse(args.get("faults", ""));
    if (!plan_storage) {
      std::cerr << "error: malformed --faults spec '" << args.get("faults", "")
                << "'\n"
                   "  items: loss=P | loss=PFX:P | "
                   "rlimit=PFX:RATE[:BURST[:LEN]] |\n"
                   "         outage=PFX:START:DUR[:PERIOD] | error=PFX:P | "
                   "pps=RATE\n"
                   "  PFX is CIDR notation or `any`; probabilities in "
                   "[0,1]\n";
      return false;
    }
    config.faults = &*plan_storage;
  }
  config.scan_retries = static_cast<int>(
      args.get_u64("retries", static_cast<std::uint64_t>(config.scan_retries)));
  config.probe_timeout_s = args.get_double("timeout", config.probe_timeout_s);
  config.retry_backoff_s = args.get_double("backoff", config.retry_backoff_s);
  config.retry_jitter = args.get_double("jitter", config.retry_jitter);
  config.adaptive_threshold = static_cast<int>(args.get_u64(
      "adaptive", static_cast<std::uint64_t>(config.adaptive_threshold)));
  config.adaptive_backoff_s =
      args.get_double("cooldown", config.adaptive_backoff_s);
  return true;
}

const std::vector<v6::net::Ipv6Addr>& pick_dataset(
    v6::experiment::Workbench& bench, const std::string& name,
    v6::net::ProbeType port) {
  if (name == "full") return bench.full();
  if (name == "offline") {
    return bench.dealiased(v6::dealias::DealiasMode::kOffline);
  }
  if (name == "online") {
    return bench.dealiased(v6::dealias::DealiasMode::kOnline);
  }
  if (name == "joint") return bench.dealiased(v6::dealias::DealiasMode::kJoint);
  if (name == "port") return bench.port_specific(port);
  if (name != "active") {
    std::cerr << "unknown dataset '" << name << "', using active\n";
  }
  return bench.all_active();
}

int cmd_universe(const Args& args) {
  const v6::simnet::Universe universe =
      v6::simnet::UniverseBuilder::build(bench_config(args).universe);
  std::cout << "hosts:          " << fmt_count(universe.hosts().size())
            << "\n";
  std::cout << "ASes:           " << fmt_count(universe.asdb().size())
            << "\n";
  std::cout << "announcements:  " << fmt_count(universe.routes().size())
            << "\n";
  std::cout << "alias regions:  "
            << fmt_count(universe.alias_regions().size()) << "\n";
  for (const v6::net::ProbeType t : v6::net::kAllProbeTypes) {
    std::cout << "active on " << v6::net::to_string(t) << ": "
              << fmt_count(universe.active_host_count(t)) << "\n";
  }
  if (universe.dense_region()) {
    std::cout << "dense region:   " << universe.dense_region()->prefix.to_string()
              << " (AS" << universe.dense_region()->asn << ")\n";
  }
  return 0;
}

int cmd_sources(const Args& args) {
  v6::experiment::Workbench bench(bench_config(args));
  v6::metrics::TextTable table({"Source", "Collected", "Active", "ASes"});
  for (const v6::seeds::SeedSource source : v6::seeds::kAllSeedSources) {
    const auto addrs = bench.seeds().from_source(source);
    std::size_t active = 0;
    std::unordered_set<std::uint32_t> ases;
    for (const auto& addr : addrs) {
      if (bench.activity().active_any(addr)) ++active;
      if (const auto asn = bench.universe().asn_of(addr)) ases.insert(*asn);
    }
    table.add_row({std::string(v6::seeds::to_string(source)),
                   fmt_count(addrs.size()), fmt_count(active),
                   fmt_count(ases.size())});
  }
  table.print(std::cout);
  return 0;
}

int cmd_run(const Args& args) {
  const std::string tga_name = args.get("tga", "6Tree");
  auto generator = v6::tga::make_generator(tga_name);
  if (generator == nullptr) {
    std::cerr << "unknown TGA '" << tga_name << "'\n";
    return 1;
  }
  ObsSession obs(args);
  v6::experiment::Workbench bench(bench_config(args, obs.telemetry()));
  std::optional<v6::fault::FaultPlan> plan;
  auto config =
      v6::experiment::PipelineConfig{}
          .with_type(parse_port(args.get("port", "ICMP")))
          .with_budget(args.get_u64("budget", 400'000))
          .with_seed(args.get_u64("seed", 42))
          .with_shards(static_cast<int>(args.get_u64("shards", 0)))
          .with_telemetry(obs.telemetry())
          .with_trace_probes(obs.tracing());
  if (!apply_fault_options(args, config, plan)) return 2;
  const auto& seeds =
      pick_dataset(bench, args.get("dataset", "active"), config.type);

  const auto outcome = v6::experiment::run_tga(
      bench.universe(), *generator, seeds, bench.alias_list(), config);
  std::cout << generator->name() << " on " << v6::net::to_string(config.type)
            << " (" << fmt_count(seeds.size()) << " seeds, budget "
            << fmt_count(config.budget) << ")\n";
  std::cout << "  hits:        " << fmt_count(outcome.hits()) << "\n";
  std::cout << "  active ASes: " << fmt_count(outcome.ases()) << "\n";
  std::cout << "  aliases:     " << fmt_count(outcome.aliases) << "\n";
  std::cout << "  dense-filtered: " << fmt_count(outcome.dense_filtered)
            << "\n";
  std::cout << "  packets:     " << fmt_count(outcome.packets) << "\n";
  obs.finish();
  return 0;
}

/// Parses a comma-separated `--tgas` list against the TGA registry.
/// Returns false (after printing the known names) on an unknown entry.
bool parse_tga_list(const std::string& text,
                    std::vector<v6::tga::TgaKind>* out) {
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    const std::string name = text.substr(pos, comma - pos);
    if (!name.empty()) {
      bool found = false;
      for (const v6::tga::TgaKind kind : v6::tga::kAllTgas) {
        if (v6::tga::to_string(kind) == name) {
          out->push_back(kind);
          found = true;
          break;
        }
      }
      if (!found) {
        std::cerr << "unknown TGA '" << name << "' in --tgas; known:";
        for (const v6::tga::TgaKind kind : v6::tga::kAllTgas) {
          std::cerr << " " << v6::tga::to_string(kind);
        }
        std::cerr << "\n";
        return false;
      }
    }
    pos = comma + 1;
  }
  if (out->empty()) {
    std::cerr << "--tgas needs at least one TGA name\n";
    return false;
  }
  return true;
}

int cmd_survey(const Args& args) {
  ObsSession obs(args);
  v6::experiment::Workbench bench(bench_config(args, obs.telemetry()));
  const v6::net::ProbeType port = parse_port(args.get("port", "ICMP"));
  const std::uint64_t budget = args.get_u64("budget", 400'000);
  const std::uint64_t seed = args.get_u64("seed", 42);
  const auto& seeds = bench.all_active();

  std::vector<v6::tga::TgaKind> kinds;  // empty = all eight
  if (args.options.contains("tgas") &&
      !parse_tga_list(args.get("tgas", ""), &kinds)) {
    return 2;
  }
  std::optional<v6::fault::FaultPlan> plan;
  auto config = v6::experiment::PipelineConfig{}
                    .with_type(port)
                    .with_budget(budget)
                    .with_seed(seed)
                    .with_shards(static_cast<int>(args.get_u64("shards", 0)))
                    .with_trace_probes(obs.tracing());
  if (!apply_fault_options(args, config, plan)) return 2;

  v6::metrics::TextTable table({"TGA", "Hits", "ASes", "Aliases"});
  if (args.options.contains("combined")) {
    // The generators borrow the index, so it outlives them.
    const v6::tga::SeedIndex index(seeds);
    std::vector<std::unique_ptr<v6::tga::TargetGenerator>> owned;
    std::vector<v6::tga::TargetGenerator*> generators;
    for (const v6::tga::TgaKind kind :
         kinds.empty() ? std::span<const v6::tga::TgaKind>(v6::tga::kAllTgas)
                       : std::span<const v6::tga::TgaKind>(kinds)) {
      owned.push_back(v6::tga::make_generator(kind));
      generators.push_back(owned.back().get());
    }
    config.telemetry = obs.telemetry();
    const auto result = v6::experiment::run_combined(
        bench.universe(), generators, index, bench.alias_list(), config);
    for (std::size_t g = 0; g < generators.size(); ++g) {
      const auto& outcome = result.per_generator[g];
      table.add_row({std::string(generators[g]->name()),
                     fmt_count(outcome.hits()), fmt_count(outcome.ases()),
                     fmt_count(outcome.aliases)});
    }
    table.print(std::cout);
    std::cout << "union: " << fmt_count(result.union_hits.size())
              << " hits in " << fmt_count(result.union_ases.size())
              << " ASes; scanned " << fmt_count(result.unique_scanned)
              << " unique of " << fmt_count(result.proposals)
              << " proposals (" << fmt_count(result.packets)
              << " packets)\n";
    obs.finish();
    return 0;
  }

  const auto runs =
      v6::experiment::ScanSession(bench.universe(), bench.alias_list())
          .with_seeds(seeds)
          .with_config(config)
          .with_kinds(kinds)
          .with_jobs(static_cast<unsigned>(args.get_u64("jobs", 1)))
          .with_telemetry(obs.telemetry())
          .sweep();
  for (const auto& run : runs) {
    table.add_row({std::string(v6::tga::to_string(run.kind)),
                   fmt_count(run.outcome.hits()),
                   fmt_count(run.outcome.ases()),
                   fmt_count(run.outcome.aliases)});
  }
  table.print(std::cout);
  obs.finish();
  return 0;
}

int cmd_serve(const Args& args) {
  // Any introspection-plane flag turns on telemetry and the in-memory
  // flight recorder, whether or not --stats/--trace were given.
  const bool plane = args.options.contains("admin-port") ||
                     args.options.contains("status-file") ||
                     args.options.contains("watchdog") ||
                     args.options.contains("flight");
  std::optional<v6::obs::FlightRecorder> recorder;
  if (plane) recorder.emplace();
  ObsSession obs(args, recorder ? &*recorder : nullptr, /*force_telemetry=*/plane);
  const v6::experiment::WorkbenchConfig wb = bench_config(args);
  v6::experiment::Workbench bench(wb);
  const v6::net::ProbeType port = parse_port(args.get("port", "ICMP"));
  std::vector<v6::tga::TgaKind> kinds;  // empty = full roster
  if (args.options.contains("tgas") &&
      !parse_tga_list(args.get("tgas", ""), &kinds)) {
    return 2;
  }

  // The service owns a universe it can age between cycles, built from
  // the same config as the workbench's, so the seed datasets line up
  // with cycle 1's world.
  v6::simnet::Universe universe =
      v6::simnet::UniverseBuilder::build(wb.universe);

  v6::service::ServiceConfig config;
  config.seed = args.get_u64("seed", 42);
  config.budget_per_cycle = args.get_u64("budget", 40'000);
  config.kinds = kinds;
  config.type = port;
  config.shards = static_cast<int>(args.get_u64("shards", 1));
  config.explore_floor = args.get_double("floor", 0.10);
  config.rescan.rescan_interval = args.get_u64("interval", 1);
  config.rescan.max_miss_streak =
      static_cast<int>(args.get_u64("streak", 3));
  config.telemetry = obs.telemetry();
  if (args.get_u64("age", 1) != 0) {
    config.age_universe = true;  // default churn model; --age 0 freezes
  }

  const std::string status_path = args.get("status-file", "");
  const std::string flight_path = args.get("flight", "");

  // Dumps the flight recorder as trace JSONL (the format `sos report`
  // parses) and resumes recording. Fired by watchdog trips and signals.
  const auto dump_flight = [&](const char* why) {
    if (!recorder || flight_path.empty()) return;
    std::ofstream out(flight_path);
    if (!out) {
      std::cerr << "warning: cannot open flight file '" << flight_path
                << "'\n";
      return;
    }
    recorder->dump_jsonl(out);
    recorder->thaw();
    std::cerr << "wrote flight recorder dump " << flight_path << " (" << why
              << ")\n";
  };

  std::optional<v6::obs::StallWatchdog> watchdog;
  if (plane) {
    v6::obs::StallWatchdog::Options wd;
    wd.deadline_seconds = args.get_double("watchdog", 30.0);
    wd.registry = &obs.telemetry()->registry();
    watchdog.emplace(wd);
    config.watchdog = &*watchdog;
    watchdog->on_stall([&](const v6::obs::StallWatchdog::StallReport& report) {
      std::cerr << report.to_text();
      dump_flight("watchdog trip");
    });
    // Heartbeats are threaded regardless; the monitor thread only runs
    // when the operator asked for a deadline.
    if (args.options.contains("watchdog")) watchdog->start();
    g_signal = 0;
    std::signal(SIGTERM, note_signal);
    std::signal(SIGINT, note_signal);
  }

  std::optional<v6::obs::admin::AdminServer> admin;
  if (args.options.contains("admin-port")) {
    v6::obs::admin::AdminServer::Options opts;
    opts.port = static_cast<int>(args.get_u64("admin-port", 0));
    admin.emplace(opts);
    v6::obs::Telemetry* const telemetry = obs.telemetry();
    admin->handle("/metrics", [telemetry] {
      return v6::obs::render_exposition(telemetry->registry().snapshot());
    });
    admin->handle("/healthz", [&watchdog] {
      return std::string(watchdog && watchdog->tripped() ? "stalled\n"
                                                         : "ok\n");
    });
    admin->handle("/flight", [&recorder] {
      std::ostringstream out;
      recorder->dump_jsonl(out);
      recorder->thaw();
      return out.str();
    });
    std::string error;
    if (!admin->start(&error)) {
      std::cerr << "error: admin endpoint: " << error << "\n";
      return 2;
    }
    std::cerr << "admin endpoint on http://127.0.0.1:" << admin->port()
              << " (/metrics /healthz /flight)\n";
  }

  try {
    const std::vector<v6::net::Ipv6Addr> seeds = bench.all_active();
    v6::service::HitlistService service(universe, seeds, config);
    const std::uint64_t cycles = args.get_u64("cycles", 5);
    const std::uint64_t feed = args.get_u64("feed", 1);
    v6::metrics::TextTable table({"Cycle", "Version", "Hitlist", "+Disc",
                                  "Rescans", "Evicted", "Probes", "Wire s"});
    v6::service::ServiceStats previous;
    // Discoveries already handed back to the generators as seeds; starts
    // as the initial seed set so only genuinely new addresses feed back.
    std::unordered_set<v6::net::Ipv6Addr, v6::net::Ipv6AddrHash> fed(
        seeds.begin(), seeds.end());
    for (std::uint64_t c = 0; c < cycles; ++c) {
      const v6::service::HitlistEpoch& epoch = service.refresh_once();
      if (feed != 0 && (c + 1) % feed == 0) {
        v6::service::SeedDelta delta;
        for (const v6::net::Ipv6Addr& addr : epoch.addrs) {
          if (fed.insert(addr).second) delta.added.push_back(addr);
        }
        service.ingest_seeds(delta);
      }
      const v6::service::ServiceStats now = service.stats();
      table.add_row({fmt_count(now.cycles), fmt_count(epoch.version),
                     fmt_count(epoch.size()),
                     fmt_count(now.discovered - previous.discovered),
                     fmt_count(now.rescans - previous.rescans),
                     fmt_count(now.evicted - previous.evicted),
                     fmt_count(now.probes - previous.probes),
                     fmt_seconds(now.virtual_seconds -
                                 previous.virtual_seconds)});
      previous = now;
      if (!status_path.empty()) {
        if (!v6::obs::write_file_atomic(
                status_path, v6::obs::render_exposition(
                                 obs.telemetry()->registry().snapshot()))) {
          std::cerr << "warning: cannot write status file '" << status_path
                    << "'\n";
        }
      }
      if (g_signal != 0) {
        std::cerr << "caught signal " << static_cast<int>(g_signal)
                  << "; stopping after cycle " << fmt_count(now.cycles)
                  << "\n";
        dump_flight("signal");
        break;
      }
    }
    table.print(std::cout);
    const v6::service::ServiceStats total = service.stats();
    std::cout << "published " << fmt_count(service.store().epoch_count() - 1)
              << " epochs; " << fmt_count(total.probes) << " probes, "
              << fmt_count(total.discovered) << " discovered, "
              << fmt_count(total.evicted) << " evicted; seed deltas: "
              << fmt_count(total.incremental_updates) << " incremental, "
              << fmt_count(total.full_rebuilds) << " full rebuilds\n";
  } catch (const v6::check::ConfigError& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 2;
  }
  obs.finish();
  return 0;
}

int cmd_collect(const Args& args) {
  const std::string source_name = args.get("source", "");
  std::optional<v6::seeds::SeedSource> source;
  for (const v6::seeds::SeedSource s : v6::seeds::kAllSeedSources) {
    if (v6::seeds::to_string(s) == source_name) source = s;
  }
  if (!source) {
    std::cerr << "usage: sos collect --source <name> [--out file]\n"
                 "sources:";
    for (const v6::seeds::SeedSource s : v6::seeds::kAllSeedSources) {
      std::cerr << " '" << v6::seeds::to_string(s) << "'";
    }
    std::cerr << "\n";
    return 1;
  }
  const v6::simnet::Universe universe =
      v6::simnet::UniverseBuilder::build(bench_config(args).universe);
  v6::seeds::SeedCollector collector(universe, args.get_u64("seed", 42));
  const auto addrs = collector.collect(*source);
  std::cout << v6::seeds::to_string(*source) << ": "
            << fmt_count(addrs.size()) << " addresses\n";
  const std::string out = args.get("out", "");
  if (!out.empty()) {
    v6::io::write_address_file(out, addrs);
    std::cout << "wrote " << out << "\n";
  }
  return 0;
}

int cmd_export(const Args& args) {
  v6::experiment::Workbench bench(bench_config(args));
  const v6::net::ProbeType port = parse_port(args.get("port", "ICMP"));
  const auto& seeds =
      pick_dataset(bench, args.get("dataset", "active"), port);
  std::cout << args.get("dataset", "active") << " dataset: "
            << fmt_count(seeds.size()) << " addresses\n";
  const std::string out = args.get("out", "");
  if (!out.empty()) {
    v6::io::write_address_file(out, seeds);
    std::cout << "wrote " << out << "\n";
  }
  return 0;
}

int cmd_report(const Args& args) {
  if (args.positional.empty()) {
    std::cerr << "usage: sos report <trace.jsonl> [--json] [--top N]\n";
    return 1;
  }
  std::ifstream in(args.positional);
  if (!in) {
    std::cerr << "cannot open trace file '" << args.positional << "'\n";
    return 1;
  }
  std::vector<v6::obs::Event> events;
  const auto load = v6::obs::load_trace(in, &events);
  const auto summary = v6::obs::analyze_trace(
      events, static_cast<std::size_t>(args.get_u64("top", 10)));
  if (args.options.contains("json")) {
    std::cout << v6::obs::report_json(summary) << "\n";
    return 0;
  }
  std::cout << args.positional << ": " << fmt_count(summary.events)
            << " events (" << fmt_count(load.bad_lines) << " malformed, "
            << fmt_count(load.truncated) << " truncated lines), "
            << fmt_count(summary.probes) << " probes, "
            << fmt_count(summary.samples) << " samples, virtual end "
            << fmt_seconds(summary.virtual_end) << " s\n";
  if (!summary.tga_phases.empty()) {
    v6::metrics::TextTable table({"TGA", "Phase", "Count", "Seconds"});
    for (const auto& [tga, phases] : summary.tga_phases) {
      for (const auto& [phase, total] : phases) {
        table.add_row({tga.empty() ? "-" : tga, phase, fmt_count(total.count),
                       fmt_seconds(total.seconds())});
      }
    }
    std::cout << "\n-- phases --\n";
    table.print(std::cout);
  }
  if (!summary.wire.empty()) {
    v6::metrics::TextTable table(
        {"Type", "Packets", "Replies", "Timeouts", "Charged", "WireSeconds"});
    for (const auto& row : summary.wire) {
      table.add_row({row.type, fmt_count(row.packets), fmt_count(row.replies),
                     fmt_count(row.timeouts), fmt_count(row.charged),
                     fmt_seconds(row.wire_seconds)});
    }
    std::cout << "\n-- wire --\n";
    table.print(std::cout);
  }
  if (!summary.histograms.empty()) {
    v6::metrics::TextTable table(
        {"Metric", "Count", "Mean", "P50", "P90", "P99", "Max"});
    for (const auto& [name, total] : summary.histograms) {
      const auto s = v6::obs::summarize(total);
      table.add_row({name, fmt_count(s.count), fmt_compact(s.mean),
                     fmt_compact(s.p50), fmt_compact(s.p90),
                     fmt_compact(s.p99), fmt_compact(s.max)});
    }
    std::cout << "\n-- distributions --\n";
    table.print(std::cout);
  }
  if (!summary.slowest.empty()) {
    v6::metrics::TextTable table({"Span", "Start", "Duration"});
    for (const auto& span : summary.slowest) {
      table.add_row({span.path, fmt_seconds(span.at),
                     fmt_seconds(span.seconds)});
    }
    std::cout << "\n-- slowest spans --\n";
    table.print(std::cout);
  }
  return 0;
}

int cmd_expo_check(const Args& args) {
  if (args.positional.empty()) {
    std::cerr << "usage: sos expo-check <metrics.txt>\n";
    return 1;
  }
  std::ifstream in(args.positional);
  if (!in) {
    std::cerr << "cannot open exposition file '" << args.positional << "'\n";
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  v6::obs::ExpoDoc doc;
  std::string error;
  if (!v6::obs::parse_exposition(buffer.str(), &doc, &error)) {
    std::cerr << args.positional << ": " << error << "\n";
    return 1;
  }
  std::cout << args.positional << ": " << fmt_count(doc.families.size())
            << " families, " << fmt_count(doc.samples.size())
            << " samples\n";
  return 0;
}

int cmd_trace(const Args& args) {
  const auto target = v6::net::Ipv6Addr::parse(args.positional);
  if (!target) {
    std::cerr << "usage: sos trace <ipv6-address>\n";
    return 1;
  }
  const v6::simnet::Universe universe =
      v6::simnet::UniverseBuilder::build(bench_config(args).universe);
  const v6::topo::TracerouteEngine engine(universe, args.get_u64("seed", 42));
  const auto path = engine.trace(*target, {});
  if (path.empty()) {
    std::cout << "no route toward " << target->to_string() << "\n";
    return 0;
  }
  for (const auto& hop : path) {
    std::cout << hop.ttl << "  "
              << (hop.responded ? hop.addr.to_string() : "*") << "  AS"
              << hop.asn;
    if (const auto* info = universe.asdb().find(hop.asn)) {
      std::cout << " (" << info->name << ")";
    }
    std::cout << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (args.command == "universe") return cmd_universe(args);
  if (args.command == "sources") return cmd_sources(args);
  if (args.command == "run") return cmd_run(args);
  if (args.command == "survey") return cmd_survey(args);
  if (args.command == "serve") return cmd_serve(args);
  if (args.command == "report") return cmd_report(args);
  if (args.command == "expo-check") return cmd_expo_check(args);
  if (args.command == "trace") return cmd_trace(args);
  if (args.command == "collect") return cmd_collect(args);
  if (args.command == "export") return cmd_export(args);
  std::cerr << "usage: sos "
               "<universe|sources|run|survey|serve|report|expo-check|trace|"
               "collect|export> [options]\n"
               "  sos run --tga DET --port TCP80 --dataset port --budget "
               "200000\n"
               "  sos serve --cycles 5 --budget 40000 --shards 2\n";
  return args.command.empty() ? 1 : 2;
}
