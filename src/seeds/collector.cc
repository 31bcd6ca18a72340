#include "seeds/collector.h"

#include <array>
#include <cctype>
#include <chrono>
#include <unordered_map>

#include "net/rng.h"
#include "probe/transport.h"
#include "runtime/worker_group.h"
#include "tga/det.h"

namespace v6::seeds {

using v6::net::Ipv6Addr;
using v6::net::Prefix;
using v6::net::Rng;
using v6::simnet::HostKind;
using v6::simnet::HostRecord;

namespace {

/// Maps a domain-derived seed source to its domain-list kind.
std::optional<v6::dns::DomainListKind> domain_kind(SeedSource source) {
  switch (source) {
    case SeedSource::kCensys: return v6::dns::DomainListKind::kCensysCt;
    case SeedSource::kRapid7: return v6::dns::DomainListKind::kRapid7Fdns;
    case SeedSource::kUmbrella: return v6::dns::DomainListKind::kUmbrella;
    case SeedSource::kMajestic: return v6::dns::DomainListKind::kMajestic;
    case SeedSource::kTranco: return v6::dns::DomainListKind::kTranco;
    case SeedSource::kSecrank: return v6::dns::DomainListKind::kSecrank;
    case SeedSource::kRadar: return v6::dns::DomainListKind::kRadar;
    case SeedSource::kCaidaDns: return v6::dns::DomainListKind::kCaidaDns;
    default: return std::nullopt;
  }
}

}  // namespace

std::string timer_name(SeedSource source) {
  std::string name = "seeds.collect.";
  for (const char c : to_string(source)) {
    const auto u = static_cast<unsigned char>(c);
    name += std::isalnum(u) ? static_cast<char>(std::tolower(u)) : '_';
  }
  return name;
}

SourceProfile default_profile(SeedSource source) {
  SourceProfile p;
  switch (source) {
    case SeedSource::kCensys:
      // CT logs: resolved via the DNS path; CDN-hosted certificates add
      // aliased residue.
      p.alias_samples = 3000;
      break;
    case SeedSource::kRapid7:
      // FDNS archival snapshot from 2021: the domain list itself is
      // stale-heavy (see DomainListProfile).
      p.alias_samples = 2500;
      break;
    case SeedSource::kUmbrella:
    case SeedSource::kMajestic:
    case SeedSource::kTranco:
    case SeedSource::kSecrank:
    case SeedSource::kRadar:
    case SeedSource::kCaidaDns:
      // Pure DNS-path feeds; CDN aliasing arrives via popular names that
      // resolve into aliased space.
      if (source == SeedSource::kSecrank) p.china_only = true;
      break;
    case SeedSource::kScamper:
      // Traceroute topology: router interfaces across nearly every AS,
      // from the Ark vantage set.
      p.router_band_hi = 0.58;
      p.campaign_targets = 40000;
      p.dense_samples = 400;
      p.junk_fraction = 0.55;  // historical interfaces that filter today
      break;
    case SeedSource::kRipeAtlas:
      // Atlas probes: a different vantage set, plus measurement targets
      // beyond pure topology (web/dns endpoints).
      p.as_coverage = 0.96;
      p.web_p = 0.05;
      p.dns_p = 0.08;
      p.endhost_p = 0.010;
      p.router_band_lo = 0.47;
      p.campaign_targets = 30000;
      p.dense_samples = 250;
      p.junk_fraction = 0.30;
      break;
    case SeedSource::kHitlist:
      // The best single source of responsive IPs; broad role mix. Mostly
      // dealiased upstream, small aliased residue.
      p.as_coverage = 0.72;
      p.router_p = 0.22;
      p.web_p = 0.15;
      p.dns_p = 0.17;
      p.endhost_p = 0.08;
      p.popular_boost = 1.3;
      p.alias_samples = 1500;
      p.dense_samples = 800;
      p.junk_fraction = 0.16;  // hitlist churn (paper: 16% unresponsive)
      break;
    case SeedSource::kAddrMiner:
      // TGA-generated hitlist: deep, alias-heavy, little unique AS reach.
      p.as_coverage = 0.62;
      p.router_p = 0.15;
      p.web_p = 0.12;
      p.dns_p = 0.10;
      p.endhost_p = 0.05;
      p.alias_samples = 60000;
      p.dense_samples = 1200;
      p.junk_fraction = 0.35;
      break;
  }
  return p;
}

SeedCollector::SeedCollector(const v6::simnet::Universe& universe,
                             std::uint64_t seed)
    : universe_(&universe), seed_(seed), topo_(universe, seed) {}

const v6::dns::ZoneDb& SeedCollector::zone() const {
  std::call_once(zone_once_, [this] {
    zone_.emplace(v6::dns::ZoneDb::build(*universe_, {.seed = seed_}));
  });
  return *zone_;
}

bool SeedCollector::as_visible(SeedSource source, std::uint32_t asn,
                               const SourceProfile& profile) const {
  if (profile.china_only) {
    const v6::asdb::AsInfo* info = universe_->asdb().find(asn);
    if (info == nullptr || info->region != v6::asdb::Region::kChina) {
      return false;
    }
  }
  const std::uint64_t h = v6::net::splitmix64(
      seed_ ^ v6::net::splitmix64(
                  (static_cast<std::uint64_t>(source) << 40) ^ asn));
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return u < profile.as_coverage;
}

void SeedCollector::sample_hosts(SeedSource source,
                                 const SourceProfile& profile, Rng& rng,
                                 std::vector<Ipv6Addr>& out) const {
  // Visibility is computed lazily per ASN and memoized for this pass.
  std::unordered_map<std::uint32_t, bool> visible;
  auto is_visible = [&](std::uint32_t asn) {
    const auto it = visible.find(asn);
    if (it != visible.end()) return it->second;
    const bool v = as_visible(source, asn, profile);
    visible.emplace(asn, v);
    return v;
  };

  // Streaming enumeration: identical host order (and so identical RNG
  // draw order) on materialized and procedural universes.
  universe_->for_each_host([&](const HostRecord& host) {
    if (!is_visible(host.asn)) return;
    double p = 0.0;
    switch (host.kind) {
      case HostKind::kRouter: p = profile.router_p; break;
      case HostKind::kWebServer: p = profile.web_p; break;
      case HostKind::kDnsServer: p = profile.dns_p; break;
      case HostKind::kEndhost: p = profile.endhost_p; break;
    }
    if (host.kind == HostKind::kRouter &&
        (profile.router_band_lo > 0.0 || profile.router_band_hi < 1.0)) {
      const std::uint64_t h =
          v6::net::splitmix64(host.addr.hi() ^ host.addr.lo() ^ 0xBAD6E);
      const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
      if (u < profile.router_band_lo || u >= profile.router_band_hi) {
        return;
      }
    }
    if (profile.popular_only) {
      if (host.kind == HostKind::kWebServer && !host.popular) p *= 0.003;
    } else if (host.popular) {
      p *= profile.popular_boost;
    }
    if (host.churned()) p *= profile.stale_mult;
    if (p > 0 && v6::net::chance(rng, p > 1.0 ? 1.0 : p)) {
      out.push_back(host.addr);
    }
  });
}

void SeedCollector::sample_extras(SeedSource source,
                                  const SourceProfile& profile, Rng& rng,
                                  std::vector<Ipv6Addr>& out) const {
  (void)source;
  // ---- Aliased-region samples -------------------------------------------
  // Hitlist-carried aliased addresses are predominantly TGA-generated and
  // therefore *structured* (coarse subnetting plus small-counter host
  // bits), not uniform random. This structure is what lets downstream
  // TGAs mine dense patterns inside aliased space and collapse into it
  // (paper 6.1: "patterns generators exploit correlate strongly to
  // where aliases exist").
  std::vector<std::size_t> region_pool;
  {
    const auto regions_all = universe_->alias_regions();
    for (std::size_t i = 0; i < regions_all.size(); ++i) {
      if (profile.china_only) {
        const v6::asdb::AsInfo* info =
            universe_->asdb().find(regions_all[i].asn);
        if (info == nullptr || info->region != v6::asdb::Region::kChina) {
          continue;
        }
      }
      region_pool.push_back(i);
    }
  }
  const auto regions = universe_->alias_regions();
  if (!region_pool.empty() && profile.alias_samples > 0) {
    for (std::size_t i = 0; i < profile.alias_samples; ++i) {
      const std::size_t region_index =
          region_pool[v6::net::uniform_int<std::size_t>(
              rng, 0, region_pool.size() - 1)];
      const auto& region = regions[region_index];
      Ipv6Addr a = region.prefix.addr();
      // A third of the regions were mined by upstream TGAs as hot base
      // subnets (dense counter runs only); the rest appear as coarse
      // sprawl. Keeping the two shapes in *separate* regions preserves
      // tight per-/64 clusters for range-mining TGAs like 6Gen.
      if (region_index % 3 == 0) {
        const std::uint64_t counter =
            v6::net::uniform_int<std::uint64_t>(rng, 1, 1024);
        out.push_back(Ipv6Addr(a.hi(), (a.lo() & ~0xFFFFULL) | counter));
        continue;
      }
      // Coarse subnetting: vary the two nybbles just past the prefix.
      const int first_free = (region.prefix.length() + 3) / 4;
      if (first_free + 1 < v6::net::Ipv6Addr::kNybbles) {
        a = a.with_nybble(first_free,
                          static_cast<std::uint8_t>(rng() & 0xF))
                .with_nybble(first_free + 1,
                             static_cast<std::uint8_t>(rng() & 0xF));
      }
      // Small-counter host bits in the last four nybbles.
      const std::uint64_t counter =
          v6::net::uniform_int<std::uint64_t>(rng, 1, 6000);
      out.push_back(Ipv6Addr(a.hi(), (a.lo() & ~0xFFFFULL) | counter));
    }
  }

  // ---- Dense-region (AS12322 analogue) samples ---------------------------
  if (universe_->dense_region() && profile.dense_samples > 0) {
    const Prefix& dense = universe_->dense_region()->prefix;
    for (std::size_t i = 0; i < profile.dense_samples; ++i) {
      const Ipv6Addr r = v6::net::random_in_prefix(rng, dense);
      // The pattern fixes low64 to ::1 (paper 4.1).
      out.push_back(Ipv6Addr(r.hi(), 1));
    }
  }

  // ---- Junk: routed but never-active addresses ----------------------------
  // DNS lookups that point at unused space, networks that went dark,
  // traceroute artifacts. Junk is *clustered* — when a network dies it
  // leaves a whole counter run of stale addresses behind, which forms
  // exactly the kind of dense-looking pattern that misleads TGAs
  // (the paper's RQ1.b mechanism).
  const auto& announcements = universe_->routes().announcements();
  if (!announcements.empty() && profile.junk_fraction > 0) {
    const std::size_t junk =
        static_cast<std::size_t>(static_cast<double>(out.size()) *
                                 profile.junk_fraction);
    std::size_t emitted = 0;
    while (emitted < junk) {
      const auto& [prefix, asn] = announcements[v6::net::uniform_int<std::size_t>(
          rng, 0, announcements.size() - 1)];
      (void)asn;
      // A dead subnet: a plausible counter run in one /64.
      const Ipv6Addr base = v6::net::random_in_prefix(rng, prefix);
      const std::size_t run =
          v6::net::uniform_int<std::size_t>(rng, 3, 40);
      const std::uint64_t start =
          v6::net::uniform_int<std::uint64_t>(rng, 1, 64);
      for (std::size_t k = 0; k < run && emitted < junk; ++k, ++emitted) {
        out.push_back(Ipv6Addr(base.hi(), start + k));
      }
    }
  }
}

void SeedCollector::collect_addrminer(const SourceProfile& profile,
                                      Rng& rng,
                                      std::vector<Ipv6Addr>& out) const {
  // Bootstrap seeds: a hitlist-style host sample plus the structured
  // aliased residue the miner inherited from earlier runs.
  std::vector<Ipv6Addr> bootstrap;
  sample_hosts(SeedSource::kAddrMiner, profile, rng, bootstrap);
  {
    SourceProfile boot_extras;  // aliased residue only
    boot_extras.alias_samples = 15'000;
    sample_extras(SeedSource::kAddrMiner, boot_extras, rng, bootstrap);
  }
  out.insert(out.end(), bootstrap.begin(), bootstrap.end());

  // Long-term mining: DET generates, the miner probes ICMP and archives
  // every responsive address it finds — without dealiasing.
  v6::tga::Det miner;
  miner.prepare(bootstrap, v6::net::derive_seed(seed_, 0xADD4));
  v6::probe::SimTransport transport(*universe_,
                                    v6::net::derive_seed(seed_, 0xADD5));
  constexpr std::uint64_t kMinerBudget = 40'000;
  std::uint64_t generated = 0;
  while (generated < kMinerBudget) {
    const auto batch = miner.next_batch(
        static_cast<std::size_t>(std::min<std::uint64_t>(
            10'000, kMinerBudget - generated)));
    if (batch.empty()) break;
    generated += batch.size();
    for (const Ipv6Addr& addr : batch) {
      const bool active =
          transport.send(addr, v6::net::ProbeType::kIcmp) ==
          v6::net::ProbeReply::kEchoReply;
      miner.observe(addr, active);
      // The public archive holds most — not all — of what the miner ever
      // saw (deduplication windows, churn between snapshots).
      if (active && v6::net::chance(rng, 0.55)) out.push_back(addr);
    }
  }
}

std::vector<Ipv6Addr> SeedCollector::collect(SeedSource source) const {
  const SourceProfile profile = default_profile(source);
  Rng rng = v6::net::make_rng(
      seed_, /*tag=*/0x5EED0000ULL + static_cast<std::uint64_t>(source));

  std::vector<Ipv6Addr> out;

  if (const auto kind = domain_kind(source)) {
    // ---- Domain feed: synthesize the list, resolve it (ZDNS path) ------
    const std::vector<std::string> names =
        v6::dns::make_domain_list(zone(), *universe_, *kind, seed_);
    v6::dns::Resolver resolver(
        zone(), {.seed = v6::net::derive_seed(
                    seed_, static_cast<std::uint64_t>(source))});
    out = resolver.resolve_all(names);
  } else if (profile.campaign_targets > 0) {
    // ---- Traceroute feed: campaign from this vantage set ----------------
    v6::topo::VantageProfile vantage;
    vantage.band_lo = profile.router_band_lo;
    vantage.band_hi = profile.router_band_hi;
    out = topo_.campaign(profile.campaign_targets, vantage,
                         static_cast<std::uint64_t>(source));
    // Atlas-style feeds also contribute measurement endpoints.
    sample_hosts(source, profile, rng, out);
  } else if (source == SeedSource::kAddrMiner) {
    // ---- Mined hitlist: an actual TGA run over the universe -------------
    collect_addrminer(profile, rng, out);
  } else {
    // ---- Hitlist feed: direct host-space sampling -----------------------
    sample_hosts(source, profile, rng, out);
  }

  sample_extras(source, profile, rng, out);
  return out;
}

SeedDataset SeedCollector::collect_all(v6::obs::Telemetry* telemetry) const {
  // Two lanes, split by the zone (docs/ALGORITHMS.md, "Parallel
  // experiment execution"). The calling thread builds the zone and
  // resolves the eight domain feeds through it; one worker collects the
  // four sources that need no zone: the two traceroute campaigns, the
  // IPv6 Hitlist and AddrMiner's DET run. Measured, the two lanes take
  // about as long (the seeds.collect.* timers). Each source
  // writes only its own slot, and the merge below runs in
  // kAllSeedSources order, so the dataset is the serial fold's. No third
  // lane: the chain is sequential, and every extra lane keeps a glibc
  // arena of its own, raising peak RSS.
  const auto on_worker = [](SeedSource source) {
    return !domain_kind(source).has_value();
  };
  using Clock = std::chrono::steady_clock;
  const auto seconds_since = [](Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  std::array<std::vector<Ipv6Addr>, kNumSeedSources> feeds;
  // Each lane times its sources (the caller lane also the zone) into its
  // own slots; the registry sees them only after the join.
  std::array<double, kNumSeedSources> source_seconds{};
  double zone_seconds = 0.0;
  const auto collect_lane = [&](bool worker_lane) {
    if (!worker_lane) {
      const auto start = Clock::now();
      zone();
      zone_seconds = seconds_since(start);
    }
    for (const SeedSource source : kAllSeedSources) {
      if (on_worker(source) != worker_lane) continue;
      const auto slot = static_cast<std::size_t>(source);
      const auto start = Clock::now();
      feeds[slot] = collect(source);
      source_seconds[slot] = seconds_since(start);
    }
  };
  v6::runtime::WorkerGroup worker;
  if (v6::runtime::default_jobs() > 1) {
    worker.spawn([&] { collect_lane(true); });
  } else {
    collect_lane(true);
  }
  collect_lane(false);
  worker.join();

  if (telemetry != nullptr) {
    v6::obs::Registry& registry = telemetry->registry();
    registry.timer("seeds.collect.zone").record_seconds(zone_seconds);
    for (const SeedSource source : kAllSeedSources) {
      registry.timer(timer_name(source))
          .record_seconds(source_seconds[static_cast<std::size_t>(source)]);
    }
  }

  std::size_t total = 0;
  for (const auto& feed : feeds) total += feed.size();
  SeedDataset dataset;
  dataset.reserve(total);
  for (const SeedSource source : kAllSeedSources) {
    for (const Ipv6Addr& addr : feeds[static_cast<std::size_t>(source)]) {
      dataset.add(addr, source);
    }
  }
  return dataset;
}

}  // namespace v6::seeds
