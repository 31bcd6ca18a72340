// The `serve` workload: the continuous hitlist service. A HitlistService
// on its own copy of the Workbench universe, seeded with All Active, with
// aging on, runs refresh_once() followed by ingest_seeds() of the newly
// published addresses (the `sos serve --feed 1` loop), while one reader
// thread calls lookup() over a fixed query mix, half present and half
// absent. Two threads in all.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "net/rng.h"
#include "runtime/worker_group.h"
#include "service/hitlist_service.h"
#include "service/hitlist_store.h"
#include "simnet/universe_builder.h"
#include "workload.h"

namespace perfbench {
namespace {

using v6::net::Ipv6Addr;
using v6::service::HitlistEpoch;
using v6::service::HitlistService;

constexpr std::uint64_t kBudgetPerCycle = 40'000;
/// Cycles per session; every session replays the same epoch sequence.
constexpr std::size_t kCycles = 6;
constexpr std::size_t kQueries = 1 << 16;
/// Reader audits one lookup in this many.
constexpr std::uint64_t kAuditStride = 1024;
constexpr std::uint64_t kSoloLookups = 4'000'000;

/// Keeps the reader's lookup results observable so no lookup is elided.
volatile std::uint64_t g_sink = 0;

v6::service::ServiceConfig service_config(const Options& options) {
  v6::service::ServiceConfig config;
  config.seed = options.seed;
  config.budget_per_cycle = kBudgetPerCycle;
  config.age_universe = true;
  return config;
}

/// Half the queries are seeds (present once the first epoch is out),
/// half are seeds with a scrambled interface identifier (absent).
std::vector<Ipv6Addr> make_queries(const std::vector<Ipv6Addr>& seeds,
                                   std::uint64_t seed) {
  v6::net::Rng rng = v6::net::make_rng(seed, /*tag=*/0x5E7E);
  std::vector<Ipv6Addr> queries;
  queries.reserve(kQueries);
  for (std::size_t i = 0; i < kQueries; ++i) {
    const Ipv6Addr& base = seeds[rng() % seeds.size()];
    if (i % 2 == 0) {
      queries.push_back(base);
    } else {
      queries.emplace_back(base.hi(), base.lo() ^ (rng() | (1ULL << 63)));
    }
  }
  return queries;
}

/// Everything the timed loop needs, built by one setup.
struct Service {
  Fixture fixture;
  /// Heap-held so the service's pointer to it survives moves of Service.
  std::unique_ptr<v6::simnet::Universe> universe;
  std::unique_ptr<HitlistService> service;
  std::vector<Ipv6Addr> queries;
};

Service set_up(const Options& options, Layers* layers, Audit* audit) {
  Service s;
  s.fixture = make_fixture(layers, audit);
  {
    std::optional<Timed> t;
    if (layers != nullptr) t.emplace(*layers, "simnet.build_s");
    s.universe = std::make_unique<v6::simnet::Universe>(
        v6::simnet::UniverseBuilder::build(
            s.fixture.bench->universe().config()));
  }
  {
    std::optional<Timed> t;
    if (layers != nullptr) t.emplace(*layers, "service.ctor_s");
    s.service = std::make_unique<HitlistService>(
        *s.universe, *s.fixture.all_active, service_config(options));
  }
  s.queries = make_queries(*s.fixture.all_active, options.seed);
  return s;
}

/// The reader thread: lookups until told to stop. Audits one lookup in
/// kAuditStride — lookup() must agree with the snapshot it came from,
/// versions must never decrease, and each new epoch's fingerprint must
/// re-verify.
class Reader {
 public:
  Reader(const HitlistService& service, const std::vector<Ipv6Addr>& queries)
      : service_(&service), queries_(&queries) {
    // Failures land in the audit, so join() never has anything to rethrow.
    group_.spawn([this] {
      try {
        loop();
      } catch (const std::exception& error) {
        audit_.expect(false, std::string("reader threw: ") + error.what());
      }
    });
  }
  ~Reader() { stop(); }
  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  std::uint64_t lookups() const {
    return lookups_.load(std::memory_order_relaxed);
  }

  /// Stops and joins the thread; afterwards audit() is safe to read.
  void stop() {
    stop_.store(true, std::memory_order_relaxed);
    group_.join();
  }
  const Audit& audit() const { return audit_; }

 private:
  void loop() {
    std::uint64_t done = 0;
    std::uint64_t present = 0;
    std::uint64_t last_version = 0;
    const std::vector<Ipv6Addr>& queries = *queries_;
    while (!stop_.load(std::memory_order_relaxed)) {
      for (std::uint64_t i = 0; i < kAuditStride; ++i) {
        present += service_->lookup(queries[(done + i) % queries.size()]);
      }
      const Ipv6Addr& probe = queries[done % queries.size()];
      const HitlistEpoch& before = service_->snapshot();
      const bool hit = service_->lookup(probe);
      const HitlistEpoch& after = service_->snapshot();
      if (&before == &after) {
        audit_.expect(hit == before.contains(probe),
                      "lookup() disagrees with snapshot().contains()");
      }
      audit_.expect(after.version >= last_version,
                    "epoch version went backwards");
      if (after.version != last_version) {
        audit_.expect(v6::service::epoch_fingerprint(after.version,
                                                     after.addrs) ==
                          after.fingerprint,
                      "epoch fingerprint does not re-verify");
        last_version = after.version;
      }
      done += kAuditStride + 1;
      lookups_.store(done, std::memory_order_relaxed);
    }
    g_sink = present;
  }

  const HitlistService* service_;
  const std::vector<Ipv6Addr>* queries_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> lookups_{0};
  Audit audit_;
  v6::runtime::WorkerGroup group_;  // last: joined before the rest dies
};

struct Cycle {
  double wall = 0.0;
  double refresh = 0.0;
  double ingest = 0.0;
  double lookups_per_s = 0.0;
};

/// One service session: a fresh setup, then kCycles cycles while the
/// reader runs. Every epoch is audited. With `layers`, the session is the
/// traced pass: setup, refresh and ingest calls are timed as rows, and
/// solo lookups and the probe-stage micro-loops run after the cycles, as
/// the row trace.micro_s.
struct Session {
  double setup = 0.0;  // wall time of set_up()
  double wall = 0.0;   // setup, cycles and (traced) micro-loops
  std::vector<Cycle> cycles;
  std::uint64_t digest = 0;
  v6::service::ServiceStats stats;  // after the last cycle
  double solo_lookup_ns = 0.0;      // traced only
  StageCosts stages;                // traced only
};

Session run_session(const Options& options, Audit& audit, Layers* layers) {
  Session session;
  const auto start = Clock::now();
  Service s = set_up(options, layers, layers != nullptr ? &audit : nullptr);
  session.setup = seconds_since(start);

  HitlistService& service = *s.service;
  std::unordered_set<Ipv6Addr, v6::net::Ipv6AddrHash> fed(
      s.fixture.all_active->begin(), s.fixture.all_active->end());
  Digest digest;
  std::uint64_t last_version = service.snapshot().version;
  Reader reader(service, s.queries);
  for (std::size_t c = 0; c < kCycles; ++c) {
    Cycle cycle;
    const std::uint64_t lookups_before = reader.lookups();
    const auto cycle_start = Clock::now();
    const HitlistEpoch& epoch = service.refresh_once();
    cycle.refresh = seconds_since(cycle_start);
    v6::service::SeedDelta delta;
    for (const Ipv6Addr& addr : epoch.addrs) {
      if (fed.insert(addr).second) delta.added.push_back(addr);
    }
    const auto ingest_start = Clock::now();
    service.ingest_seeds(delta);
    cycle.ingest = seconds_since(ingest_start);
    cycle.wall = seconds_since(cycle_start);
    cycle.lookups_per_s =
        static_cast<double>(reader.lookups() - lookups_before) / cycle.wall;
    session.cycles.push_back(cycle);

    audit.expect(
        epoch.version == last_version + 1 &&
            std::is_sorted(epoch.addrs.begin(), epoch.addrs.end()) &&
            std::adjacent_find(epoch.addrs.begin(), epoch.addrs.end()) ==
                epoch.addrs.end() &&
            v6::service::epoch_fingerprint(epoch.version, epoch.addrs) ==
                epoch.fingerprint,
        "published epoch is out of sequence, unsorted or mis-fingerprinted");
    last_version = epoch.version;
    digest.add(epoch.version);
    digest.add(epoch.fingerprint);
  }
  reader.stop();
  audit.attempted += reader.audit().attempted;
  audit.failed += reader.audit().failed;
  audit.failures.insert(audit.failures.end(), reader.audit().failures.begin(),
                        reader.audit().failures.end());
  audit.expect(reader.lookups() > 0, "reader made no lookups");
  session.digest = digest.value();
  session.stats = service.stats();

  if (layers != nullptr) {
    for (const Cycle& cycle : session.cycles) {
      layers->add("service.refresh_s", cycle.refresh);
      layers->add("service.ingest_s", cycle.ingest);
    }
    Timed t(*layers, "trace.micro_s");
    std::uint64_t present = 0;
    const auto solo = Clock::now();
    for (std::uint64_t i = 0; i < kSoloLookups; ++i) {
      present += service.lookup(s.queries[i % s.queries.size()]);
    }
    session.solo_lookup_ns =
        seconds_since(solo) * 1e9 / static_cast<double>(kSoloLookups);
    audit.expect(present > 0, "no solo lookup found a present address");
    session.stages = time_stages(s.fixture.bench->universe(), options.seed);
  }
  session.wall = seconds_since(start);
  return session;
}

/// The cycles the medians cover: all but the first, which classifies the
/// whole seed set on an unaged universe against an empty hitlist.
void add_steady(const Session& session, double Cycle::*field,
                std::vector<double>& out) {
  for (std::size_t i = 1; i < session.cycles.size(); ++i) {
    out.push_back(session.cycles[i].*field);
  }
}

Result timed(const Options& options) {
  Result result;
  std::vector<double> setups;
  std::vector<double> cycle_walls;
  std::vector<double> lookup_rates;
  double last_wall = 0.0;
  const auto phase = Clock::now();
  do {
    const Session session = run_session(options, result.audit, nullptr);
    setups.push_back(session.setup);
    add_steady(session, &Cycle::wall, cycle_walls);
    add_steady(session, &Cycle::lookups_per_s, lookup_rates);
    if (setups.size() == 1) {
      result.digest = session.digest;
    } else {
      result.audit.expect(session.digest == result.digest,
                          "epoch sequence differs between sessions");
    }
    last_wall = session.wall;
  } while (setups.size() < kMinSamples ||
           seconds_since(phase) + last_wall <= options.seconds);

  const double cycle_s = median(cycle_walls);
  const double lookups_per_s = median(lookup_rates);
  result.metrics = {{"setup_s", median(setups), "s"},
                    {"work_s", cycle_s, "s"},
                    {"throughput_per_s", lookups_per_s, "1/s"},
                    {"peak_rss_mib", peak_rss_mib(), "MiB"}};
  result.info = {
      {"cycle_s", cycle_s, "s"},
      {"lookups_per_s", lookups_per_s, "1/s"},
      {"cycle_samples", static_cast<double>(cycle_walls.size()), "count"},
      {"setup_samples", static_cast<double>(setups.size()), "count"}};
  add_range(result.info, "cycle_s", cycle_walls, "s");
  add_range(result.info, "lookups_per_s", lookup_rates, "1/s");
  add_range(result.info, "setup_s", setups, "s");
  return result;
}

Result traced(const Options& options) {
  Result result;
  const Session plain = run_session(options, result.audit, nullptr);
  Layers layers;
  const Session session = run_session(options, result.audit, &layers);

  result.audit.expect(session.digest == plain.digest,
                      "traced epochs differ from the untraced ones");
  result.digest = session.digest;
  const v6::service::ServiceStats& stats = session.stats;
  const double n = static_cast<double>(session.cycles.size());
  const double probes = static_cast<double>(stats.probes) / n;
  const double discovered = static_cast<double>(stats.discovered) / n;
  std::vector<double> lookup_rates;
  add_steady(session, &Cycle::lookups_per_s, lookup_rates);
  layers.emit(session.wall, result);
  result.metrics.insert(
      result.metrics.end(),
      {{"trace.overhead_ratio", session.wall / plain.wall, "ratio"},
       {"service.lookup_ns", session.solo_lookup_ns, "ns"},
       {"service.lookup_concurrent_ns", 1e9 / median(lookup_rates), "ns"},
       {"service.probes", probes, "count"},
       {"service.rescans", static_cast<double>(stats.rescans) / n, "count"},
       {"service.discovered", discovered, "count"},
       {"service.evicted", static_cast<double>(stats.evicted) / n, "count"},
       {"service.incremental_updates",
        static_cast<double>(stats.incremental_updates) / n, "count"},
       {"service.full_rebuilds",
        static_cast<double>(stats.full_rebuilds) / n, "count"},
       {"service.discovered_per_probe", discovered / probes, "ratio"}});
  add_stage_rows(session.stages, result.metrics);
  return result;
}

}  // namespace

Result run_serve(const Options& options) {
  return options.trace ? traced(options) : timed(options);
}

}  // namespace perfbench
