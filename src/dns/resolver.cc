#include "dns/resolver.h"

namespace v6::dns {

Resolver::Resolver(const ZoneDb& zone, ResolverConfig config)
    : zone_(&zone), config_(config),
      rng_(v6::net::make_rng(config.seed, /*tag=*/0x4E5)) {}

Resolver::Answer Resolver::answer(std::string_view name) {
  ++stats_.queries;
  if (const auto it = cache_.find(name); it != cache_.end()) {
    ++stats_.cache_hits;
    return it->second;
  }

  // Transient failures with retries.
  bool answered = false;
  for (int attempt = 0; attempt <= config_.retries; ++attempt) {
    ++stats_.packets;
    if (v6::net::chance(rng_, config_.timeout_prob)) continue;
    if (v6::net::chance(rng_, config_.servfail_prob)) continue;
    answered = true;
    break;
  }
  if (!answered) {
    ++stats_.failed;
    // Transient failures are NOT cached (a retry later may succeed).
    return {.rcode = RCode::kTimeout};
  }

  Answer result;
  const DomainRecord* record = zone_->find(name);
  if (record == nullptr) {
    ++stats_.nxdomain;
    result.rcode = RCode::kNxDomain;
  } else if (v6::net::chance(rng_, config_.no_aaaa_prob)) {
    ++stats_.no_aaaa;
    result.rcode = RCode::kNoAaaa;
  } else {
    ++stats_.noerror;
    result = {.rcode = RCode::kNoError, .record = record};
    stats_.addresses += record->aaaa.size();
  }
  cache_.emplace(name, result);
  return result;
}

Resolution Resolver::resolve(std::string_view name) {
  const Answer a = answer(name);
  Resolution result;
  result.rcode = a.rcode;
  if (a.record != nullptr) result.aaaa = a.record->aaaa;
  return result;
}

std::vector<v6::net::Ipv6Addr> Resolver::resolve_all(
    std::span<const std::string> names) {
  std::vector<v6::net::Ipv6Addr> out;
  out.reserve(names.size());
  cache_.reserve(cache_.size() + names.size());
  for (const std::string& name : names) {
    const Answer a = answer(name);
    if (a.record != nullptr) {
      out.insert(out.end(), a.record->aaaa.begin(), a.record->aaaa.end());
    }
  }
  return out;
}

}  // namespace v6::dns
