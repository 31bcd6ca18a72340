#include "service/hitlist_service.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "check/validate.h"
#include "net/rng.h"
#include "obs/watchdog.h"
#include "probe/stream_scanner.h"

namespace v6::service {

using v6::net::Ipv6Addr;
using v6::net::ProbeReply;

namespace {

/// Per-cycle seed stream tags. Distinct high bits keep the cycle index
/// from colliding with other derive_seed tags in the tree.
constexpr std::uint64_t kAgingTag = 0xA6E0'0000'0000ULL;
constexpr std::uint64_t kScanTag = 0x5CA2'0000'0000ULL;

/// Validation must precede the members (bandit, scheduler) built from
/// the config, so it runs inside the member-init chain.
ServiceConfig validated(ServiceConfig config) {
  config.validate();
  return config;
}

}  // namespace

void ServiceConfig::validate() const {
  const v6::check::Validator v("ServiceConfig");
  v.positive(budget_per_cycle, "budget_per_cycle");
  v.positive(shards, "shards");
  v.positive(max_pps, "max_pps");
  v.unit_interval(explore_floor, "explore_floor");
  const std::size_t roster =
      kinds.empty() ? v6::tga::kAllTgas.size() : kinds.size();
  v.require(explore_floor * static_cast<double>(roster) <= 1.0,
            "explore_floor", "must leave a non-negative shared remainder");
  v.positive(rescan.rescan_interval, "rescan.rescan_interval");
  v.positive(rescan.max_miss_streak, "rescan.max_miss_streak");
}

HitlistService::HitlistService(v6::simnet::Universe& universe,
                               std::span<const Ipv6Addr> seeds,
                               ServiceConfig config)
    : universe_(&universe),
      config_(validated(std::move(config))),
      kinds_(config_.kinds.empty()
                 ? std::vector<v6::tga::TgaKind>(v6::tga::kAllTgas.begin(),
                                                 v6::tga::kAllTgas.end())
                 : config_.kinds),
      generators_(kinds_, config_.seed, config_.telemetry),
      scheduler_(config_.rescan),
      bandit_(kinds_.size(), config_.seed, config_.explore_floor) {
  generators_.prepare(seeds);
  for (const Ipv6Addr& addr : seeds) scheduler_.track(addr);
}

void HitlistService::ingest_seeds(const SeedDelta& delta) {
  const v6::obs::Span span(config_.telemetry, "service.ingest");
  if (delta.empty()) return;
  generators_.ingest(delta);
  for (const Ipv6Addr& addr : delta.added) scheduler_.track(addr);
}

ServiceStats HitlistService::stats() const {
  ServiceStats out = stats_;
  out.incremental_updates = generators_.incremental_updates();
  out.full_rebuilds = generators_.full_rebuilds();
  return out;
}

const HitlistEpoch& HitlistService::refresh_once() {
  const std::uint64_t cycle = stats_.cycles + 1;
  const std::uint64_t probes_before = stats_.probes;
  v6::obs::Telemetry* const telemetry = config_.telemetry;

  // Liveness: the whole cycle runs under one `service.refresh`
  // heartbeat, beaten once per phase; the watchdog is also threaded
  // into the scanner below so its pipeline stages report on their own.
  v6::obs::ArmedStage refresh_stage(
      config_.watchdog != nullptr ? &config_.watchdog->stage("service.refresh")
                                  : nullptr);
  const auto wall_start = std::chrono::steady_clock::now();

  // 1. Churn: the universe moves first, then the service chases it.
  // Each phase runs under its own `service.refresh.<phase>` span.
  {
    const v6::obs::Span span(telemetry, "service.refresh.age");
    if (config_.age_universe && cycle > 1) {
      v6::simnet::AgingConfig aging = config_.aging;
      aging.seed = v6::net::derive_seed(config_.seed, kAgingTag + cycle);
      v6::simnet::UniverseBuilder::age(*universe_, aging);
    }
  }

  // One streaming scanner per cycle, built after aging so it sees the
  // current universe; the per-cycle seed keeps reply randomness
  // independent across cycles while staying reproducible.
  v6::probe::StreamScanOptions scan_options;
  scan_options.shards = static_cast<unsigned>(config_.shards);
  scan_options.scan.seed = v6::net::derive_seed(config_.seed, kScanTag + cycle);
  scan_options.scan.max_pps = config_.max_pps;
  scan_options.scan.telemetry = telemetry;
  scan_options.watchdog = config_.watchdog;
  v6::probe::StreamScanner scanner(*universe_, /*blocklist=*/nullptr,
                                   std::move(scan_options));
  refresh_stage.beat();

  // 2. Rescans: every tracked address whose interval is due, probed in
  // sorted order. Results update the per-address history.
  {
    const v6::obs::Span span(telemetry, "service.refresh.rescan");
    const std::vector<Ipv6Addr> due = scheduler_.due(cycle);
    if (!due.empty()) {
      scanner.scan(due, config_.type, [&](const Ipv6Addr& addr,
                                          ProbeReply reply) {
        scheduler_.note_result(addr, v6::net::is_hit(config_.type, reply),
                               cycle);
      });
      stats_.rescans += due.size();
      stats_.probes += due.size();
    }
  }
  refresh_stage.beat();

  // 3. Discovery: bandit shares of the cycle budget, one slice per TGA
  // in roster order; hits feed the generators (online models), the
  // scheduler (they join the rescan set), and the bandit (next cycle's
  // shares).
  {
    const v6::obs::Span span(telemetry, "service.refresh.discover");
    last_allocation_ = bandit_.allocate(config_.budget_per_cycle);
    for (std::size_t arm = 0; arm < kinds_.size(); ++arm) {
      if (last_allocation_[arm] == 0) continue;
      v6::tga::TargetGenerator& generator = generators_.generator(arm);
      const std::vector<Ipv6Addr> targets = generator.next_batch(
          static_cast<std::size_t>(last_allocation_[arm]));
      if (targets.empty()) continue;
      std::uint64_t hits = 0;
      scanner.scan(targets, config_.type,
                   [&](const Ipv6Addr& addr, ProbeReply reply) {
                     const bool hit = v6::net::is_hit(config_.type, reply);
                     generator.observe(addr, hit);
                     if (!hit) return;
                     ++hits;
                     if (!scheduler_.contains(addr)) ++stats_.discovered;
                     scheduler_.note_result(addr, true, cycle);
                   });
      stats_.probes += targets.size();
      bandit_.reward(arm, targets.size(), hits);
      refresh_stage.beat();
    }
  }

  // 4. Decay: addresses past the miss-streak threshold leave the
  // tracked set (and therefore the next epoch).
  {
    const v6::obs::Span span(telemetry, "service.refresh.evict");
    stats_.evicted += scheduler_.evict_churned();
  }

  // 5. Publish the surviving responsive set as the next epoch.
  const HitlistEpoch& epoch = [&]() -> const HitlistEpoch& {
    const v6::obs::Span span(telemetry, "service.refresh.publish");
    HitlistStore::EpochBuilder builder = store_.begin_epoch();
    builder.add_all(scheduler_.responsive());
    return store_.publish_epoch(std::move(builder));
  }();

  stats_.cycles = cycle;
  stats_.virtual_seconds += scanner.virtual_seconds();
  if (telemetry != nullptr) {
    v6::obs::Registry& registry = telemetry->registry();
    registry.counter("service.cycles").inc();
    registry.gauge("service.epoch_version").set(
        static_cast<std::int64_t>(epoch.version));
    registry.gauge("service.hitlist_size").set(
        static_cast<std::int64_t>(epoch.size()));
    registry.gauge("service.tracked").set(
        static_cast<std::int64_t>(scheduler_.tracked()));
    registry.counter("service.probes").add(stats_.probes - probes_before);
    // Wall-side cycle duration: host time, exempt from the determinism
    // contract (`.wall` suffix, docs/OBSERVABILITY.md).
    registry.gauge("service.refresh.wall_nanos.wall")
        .set(static_cast<std::int64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - wall_start)
                .count()));
  }
  return epoch;
}

}  // namespace v6::service
