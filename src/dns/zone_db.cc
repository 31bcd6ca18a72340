#include "dns/zone_db.h"

#include <algorithm>

#include "net/rng.h"

namespace v6::dns {

using v6::net::Ipv6Addr;
using v6::net::Rng;
using v6::simnet::HostKind;
using v6::simnet::HostRecord;

namespace {

constexpr std::array<std::string_view, 12> kSecondLevel = {
    "shop", "cloud", "media", "portal", "app",  "mail",
    "data", "home",  "labs",  "store",  "news", "play"};

constexpr std::array<std::string_view, 8> kTld = {
    "com", "net", "org", "io", "de", "jp", "br", "cn"};

constexpr std::array<std::string_view, 5> kSubLabels = {"www", "cdn", "api",
                                                        "mail", "static"};

/// Deterministic, human-plausible name for host `index`.
std::string make_name(Rng& rng, std::uint64_t index) {
  std::string name{kSecondLevel[rng() % kSecondLevel.size()]};
  name += std::to_string(index % 100000);
  name += '.';
  name += kTld[rng() % kTld.size()];
  return name;
}

}  // namespace

ZoneDb ZoneDb::build(const v6::simnet::Universe& universe,
                     const ZoneDbConfig& config) {
  ZoneDb zone;
  Rng rng = v6::net::make_rng(config.seed, /*tag=*/0xD0DB);

  std::vector<std::uint32_t> popular;  // indices of rankable records

  // One streaming count sizes the zone: every nameable host adds at most
  // its name and one label variant, so neither the records nor the index
  // ever grow.
  std::size_t nameable = 0;
  universe.for_each_host([&](const HostRecord& host) {
    nameable += host.kind == HostKind::kWebServer ||
                host.kind == HostKind::kDnsServer;
  });
  zone.records_.reserve(2 * nameable);
  zone.index_.reserve(2 * nameable, zone.name_at());

  // Indexes `name` at the id the next record takes, unless it is taken
  // (a rare collision). A name that is claimed here is always added.
  auto claim = [&](std::string_view name) {
    return zone.index_.insert(name, zone.records_.size(), zone.name_at())
        .second;
  };
  auto add_record = [&](DomainRecord record) -> std::uint32_t {
    const std::uint32_t id = static_cast<std::uint32_t>(zone.records_.size());
    zone.records_.push_back(std::move(record));
    return id;
  };

  // Processes one host with one-host lookahead (`next` is null for the
  // last). The lookahead exists only for the multi-record draw below;
  // everything else — including every RNG draw and its order — matches
  // the historical indexed loop bit for bit.
  auto process = [&](const HostRecord& host, std::uint64_t i,
                     const HostRecord* next) {
    const bool nameable = host.kind == HostKind::kWebServer ||
                          host.kind == HostKind::kDnsServer;
    if (!nameable) return;
    const double p = host.kind == HostKind::kWebServer
                         ? config.web_named_prob
                         : config.dns_named_prob;
    if (!v6::net::chance(rng, p)) return;

    DomainRecord record;
    record.name = make_name(rng, i);
    if (!claim(record.name)) return;
    record.asn = host.asn;
    record.dns_host = host.kind == HostKind::kDnsServer;

    if (host.popular && v6::net::chance(rng, config.popular_cdn_prob)) {
      // Popular property fronted by a CDN: the name resolves into
      // aliased space rather than the origin host.
      const auto regions = universe.alias_regions();
      if (!regions.empty()) {
        const auto& region =
            regions[v6::net::uniform_int<std::size_t>(rng, 0,
                                                      regions.size() - 1)];
        record.aaaa.push_back(
            v6::net::random_in_prefix(rng, region.prefix));
        record.asn = region.asn;
      }
    }
    if (record.aaaa.empty()) {
      if (v6::net::chance(rng, config.dangling_prob)) {
        // Dangling record: unused space next to the host's subnet.
        record.aaaa.push_back(Ipv6Addr(
            host.addr.hi(),
            host.addr.lo() ^ (0x1ULL << 60) ^
                v6::net::uniform_int<std::uint64_t>(rng, 1, 0xFFFF)));
      } else {
        record.aaaa.push_back(host.addr);
      }
    }
    // Multi-record names: an extra edge/alternate address in the same
    // network (only for origin-served names; a CDN-fronted record's
    // addresses all live in the CDN's space).
    if (record.aaaa.front() == host.addr &&
        v6::net::chance(rng, 0.12) && next != nullptr &&
        next->asn == host.asn) {
      record.aaaa.push_back(next->addr);
    }

    const bool rankable = host.popular;
    const std::uint32_t id = add_record(std::move(record));
    if (rankable) popular.push_back(id);

    // Label variants under the same zone.
    if (v6::net::chance(rng, config.extra_label_prob)) {
      DomainRecord variant;
      variant.name = std::string(kSubLabels[rng() % kSubLabels.size()]) +
                     "." + zone.records_[id].name;
      variant.aaaa = zone.records_[id].aaaa;
      variant.asn = zone.records_[id].asn;
      variant.dns_host = zone.records_[id].dns_host;
      if (claim(variant.name)) {
        const std::uint32_t vid = add_record(std::move(variant));
        if (rankable && v6::net::chance(rng, 0.3)) popular.push_back(vid);
      }
    }
  };

  // Stream the population with a one-host pending buffer: works on
  // procedural universes (no materialized span) in O(1) memory.
  bool have_pending = false;
  HostRecord pending_host;
  std::uint64_t next_index = 0;
  universe.for_each_host([&](const HostRecord& host) {
    if (have_pending) process(pending_host, next_index - 1, &host);
    pending_host = host;
    ++next_index;
    have_pending = true;
  });
  if (have_pending) process(pending_host, next_index - 1, nullptr);

  // Assign toplist ranks to popular names in a deterministic shuffle.
  std::shuffle(popular.begin(), popular.end(), rng);
  for (std::uint32_t r = 0; r < popular.size(); ++r) {
    zone.records_[popular[r]].rank = r + 1;
  }
  zone.ranked_ = std::move(popular);

  return zone;
}

const DomainRecord* ZoneDb::find(std::string_view name) const {
  const std::optional<std::uint32_t> id = index_.find(name, name_at());
  return id.has_value() ? &records_[*id] : nullptr;
}

}  // namespace v6::dns
