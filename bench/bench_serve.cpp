// Query-throughput bench for the continuous hitlist service
// (docs/SERVICE.md): how fast the HitlistService facade answers
// lookup() — solo, and while a writer thread keeps publishing fresh
// epochs underneath the readers.
//
// Two timed configurations:
//
//   * lookup_solo        — single-threaded lookups against a settled
//                          snapshot,
//   * lookup_concurrent  — the same lookup loop racing a refresh loop
//                          that ages the universe and publishes one
//                          epoch per cycle.
//
// Correctness checks run on every pass, smoke or full:
//
//   * every epoch the reader sees re-verifies its fingerprint (no torn
//     epoch reads), once, when its version first appears, and the last
//     one once more after the timed loop,
//   * epoch versions observed by the reader are monotonic,
//   * lookup(addr) agrees with a binary search of the settled
//     snapshot's sorted addresses (the oracle for the epoch's index).
//
// A full (non --smoke) run asserts both configurations clear 8M
// lookups/second — the service must stay queryable at line rate while
// it refreshes. On a 4-core host both read 32–40M/s; the same loop
// doing 10 lookups per counted one reads 2–3M/s and fails, and doing 2
// reads 14–16M/s and passes, so a 10× slower lookup fails the gate and
// a 2× slower host does not.
//
// Usage: bench_serve [lookups] [--jobs N] [--repeat N] [--smoke]
// The positional budget is reinterpreted as lookups per timed pass.
// Writes BENCH_serve.json (see bench_common.h for the schema); entries
// carry lookups_per_second, plus cycles_during for the concurrent pass.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "net/ipv6.h"
#include "net/rng.h"
#include "runtime/worker_group.h"
#include "service/hitlist_service.h"
#include "service/hitlist_store.h"
#include "simnet/universe.h"
#include "simnet/universe_builder.h"
#include "simnet/universe_config.h"

namespace {

using Clock = std::chrono::steady_clock;
using v6::net::Ipv6Addr;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

[[noreturn]] void fail(const std::string& message) {
  std::cerr << "bench_serve: FAIL: " << message << "\n";
  std::exit(1);
}

/// Queries per pass, cycled: as many as perfbench's serve reader uses,
/// so the epoch's slots and keys do not all sit in L1/L2 and a slower
/// lookup shows in the rate.
constexpr std::size_t kQueries = 1 << 16;

/// Deterministic query mix over one settled epoch: alternating present
/// addresses (drawn pseudo-randomly across the epoch) and near-certain
/// misses (present addresses with flipped interface-identifier bits).
std::vector<Ipv6Addr> make_queries(const v6::service::HitlistEpoch& epoch,
                                   std::size_t count) {
  if (epoch.addrs.empty()) fail("warmup epochs published an empty hitlist");
  std::vector<Ipv6Addr> queries;
  queries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t pick = static_cast<std::size_t>(
        v6::net::splitmix64(0x9E1D'0000ULL + i) % epoch.addrs.size());
    const Ipv6Addr base = epoch.addrs[pick];
    if (i % 2 == 0) {
      queries.push_back(base);
    } else {
      queries.emplace_back(base.hi(), base.lo() ^ 0xDEAD'BEEF'0000'0000ULL);
    }
  }
  return queries;
}

struct LookupPass {
  double wall_seconds = 0.0;
  std::uint64_t lookups = 0;
  std::uint64_t present = 0;
};

void verify_fingerprint(const v6::service::HitlistEpoch& snap) {
  if (v6::service::epoch_fingerprint(snap.version, snap.addrs) !=
      snap.fingerprint) {
    fail("snapshot fingerprint mismatch at version " +
         std::to_string(snap.version));
  }
}

/// Runs lookups cycling the query list: `total` of them, and on until
/// the reader has seen an epoch of at least `min_version` (so a pass
/// beside a writer overlaps a publication) or a minute has passed, in
/// which case the caller's publication check fails. Every `kAuditStride`
/// queries it checks that the epoch version did not go backwards, and
/// it fingerprints each epoch once, when its version first appears (as
/// perfbench's serve reader does): a fingerprint hashes the whole
/// snapshot, hundreds of lookups' worth, so one per stride would time
/// the audit instead of the lookups. A pass that audited no epoch
/// fails, and the last snapshot is re-verified after the timed loop.
LookupPass run_lookups(const v6::service::HitlistService& service,
                       const std::vector<Ipv6Addr>& queries,
                       std::uint64_t total, std::uint64_t min_version = 0) {
  constexpr std::uint64_t kAuditStride = 1024;
  constexpr double kMaxWaitSeconds = 60.0;
  LookupPass pass;
  std::uint64_t last_version = 0;
  std::uint64_t audited = 0;
  bool waiting = min_version > 0;
  const auto start = Clock::now();
  std::uint64_t i = 0;
  for (; i < total || waiting; ++i) {
    const Ipv6Addr& addr = queries[i % queries.size()];
    const bool hit = service.lookup(addr);
    pass.present += hit ? 1 : 0;
    if (i % kAuditStride == 0) {
      const v6::service::HitlistEpoch& snap = service.snapshot();
      if (snap.version < last_version) {
        fail("epoch version went backwards: " + std::to_string(snap.version) +
             " after " + std::to_string(last_version));
      }
      if (snap.version != last_version) {
        verify_fingerprint(snap);
        ++audited;
        last_version = snap.version;
      }
      waiting = last_version < min_version &&
                seconds_since(start) < kMaxWaitSeconds;
    }
  }
  pass.wall_seconds = seconds_since(start);
  pass.lookups = i;
  if (audited == 0) fail("lookup pass audited no epoch");
  verify_fingerprint(service.snapshot());
  return pass;
}

}  // namespace

int main(int argc, char** argv) {
  v6::bench::BenchArgs args = v6::bench::parse_args(argc, argv, 2'000'000);
  std::uint64_t lookups = args.budget;
  if (args.smoke && lookups > 200'000) lookups = 200'000;

  v6::bench::BenchTimer timer("serve", args);

  // Same small universe as bench_throughput: cheap to build, still has
  // aliased and rate-limited hosts plus the default dense region.
  v6::simnet::UniverseConfig universe_config;
  universe_config.num_ases = 300;
  universe_config.host_scale = 0.3;
  const auto setup_start = Clock::now();
  v6::simnet::Universe universe =
      v6::simnet::UniverseBuilder::build(universe_config);

  // Seed the service from a deterministic host sample (every third
  // address): enough signal for the generators without handing the
  // service the full answer.
  std::vector<Ipv6Addr> seeds;
  const auto& hosts = universe.hosts();
  for (std::size_t i = 0; i < hosts.size(); i += 3) {
    seeds.push_back(hosts[i].addr);
  }

  v6::service::ServiceConfig config;
  config.budget_per_cycle = args.smoke ? 5'000 : 20'000;
  config.max_pps = 1e6;
  config.age_universe = true;  // default churn model
  v6::service::HitlistService service(universe, seeds, config);

  // Warm cycles settle the hitlist before anything is timed.
  const unsigned warm_cycles = args.smoke ? 2 : 3;
  for (unsigned c = 0; c < warm_cycles; ++c) service.refresh_once();
  timer.record_phase("setup", seconds_since(setup_start));

  const std::vector<Ipv6Addr> queries =
      make_queries(service.snapshot(), kQueries);

  // --- Solo lookups -------------------------------------------------------
  std::vector<double> solo_samples;
  LookupPass solo;
  for (unsigned r = 0; r < args.repeat; ++r) {
    solo = run_lookups(service, queries, lookups);
    solo_samples.push_back(solo.wall_seconds);
  }
  const auto min_of = [](const std::vector<double>& v) {
    return *std::min_element(v.begin(), v.end());
  };
  const double solo_rate = static_cast<double>(lookups) / min_of(solo_samples);
  timer.record_samples(
      "lookup_solo", solo_samples,
      {{"lookups_per_second", solo_rate},
       {"present", static_cast<double>(solo.present)},
       {"hitlist_size", static_cast<double>(service.snapshot().size())}});

  // Present/absent agreement: lookup() answers as a binary search of
  // the settled snapshot, not as the index it runs on.
  const v6::service::HitlistEpoch& settled = service.snapshot();
  for (const Ipv6Addr& addr : queries) {
    if (service.lookup(addr) != std::binary_search(settled.addrs.begin(),
                                                   settled.addrs.end(),
                                                   addr)) {
      fail("lookup() disagrees with a binary search of the snapshot");
    }
  }

  // --- Lookups under concurrent refresh -----------------------------------
  // A writer thread runs the real refresh loop (aging universe, rescans,
  // bandit discovery, epoch publication) until the reader finishes its
  // pass, which runs on past `lookups` until it has seen the writer's
  // first epoch; the reader's audits catch any torn epoch along the way.
  // Each sample is the pass's wall time scaled to `lookups` lookups.
  std::vector<double> concurrent_samples;
  std::uint64_t cycles_during = 0;
  LookupPass concurrent;
  for (unsigned r = 0; r < args.repeat; ++r) {
    std::atomic<bool> stop{false};
    const std::uint64_t cycles_before = service.stats().cycles;
    const std::uint64_t next_version = service.snapshot().version + 1;
    v6::runtime::WorkerGroup writer;
    writer.spawn([&service, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        service.refresh_once();
      }
    });
    concurrent = run_lookups(service, queries, lookups, next_version);
    stop.store(true, std::memory_order_relaxed);
    writer.join();
    concurrent_samples.push_back(concurrent.wall_seconds *
                                 static_cast<double>(lookups) /
                                 static_cast<double>(concurrent.lookups));
    cycles_during += service.stats().cycles - cycles_before;
  }
  const double concurrent_rate =
      static_cast<double>(lookups) / min_of(concurrent_samples);
  timer.record_samples(
      "lookup_concurrent", concurrent_samples,
      {{"lookups_per_second", concurrent_rate},
       {"present", static_cast<double>(concurrent.present)},
       {"cycles_during", static_cast<double>(cycles_during)}});

  if (cycles_during == 0) {
    fail("writer thread published no epochs during the concurrent pass");
  }

  std::cerr << "lookups/sec: solo " << static_cast<std::uint64_t>(solo_rate)
            << ", concurrent " << static_cast<std::uint64_t>(concurrent_rate)
            << " (" << cycles_during << " refresh cycles during)\n";

  // Perf gate: the facade must stay queryable at line rate, refresh or
  // not. Smoke runs keep only the correctness checks above.
  constexpr double kMinLookupsPerSecond = 8e6;
  if (!args.smoke) {
    if (solo_rate < kMinLookupsPerSecond) {
      timer.write();
      fail("solo lookup rate below 8M/s: " + std::to_string(solo_rate));
    }
    if (concurrent_rate < kMinLookupsPerSecond) {
      timer.write();
      fail("concurrent lookup rate below 8M/s: " +
           std::to_string(concurrent_rate));
    }
    std::cerr << "perf gate: OK (limit 8M lookups/s)\n";
  } else {
    std::cerr << "perf gate skipped (--smoke)\n";
  }

  std::cerr << "bench_serve: OK (" << lookups << " lookups/pass, hitlist "
            << service.snapshot().size() << ")\n";
  return 0;
}
