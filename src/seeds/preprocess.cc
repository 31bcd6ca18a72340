#include "seeds/preprocess.h"

namespace v6::seeds {

using v6::net::Ipv6Addr;
using v6::net::ProbeReply;
using v6::net::ProbeType;

ActivityMap scan_activity(std::span<const Ipv6Addr> addrs,
                          v6::probe::Scanner& scanner) {
  ActivityMap activity;
  for (const ProbeType type : v6::net::kAllProbeTypes) {
    scanner.scan(addrs, type, [&](const Ipv6Addr& addr, ProbeReply reply) {
      if (v6::net::is_hit(type, reply)) activity.merge_bit(addr, type);
    });
  }
  return activity;
}

std::vector<Ipv6Addr> filter_active_any(std::span<const Ipv6Addr> addrs,
                                        const ActivityMap& activity) {
  std::vector<Ipv6Addr> out;
  out.reserve(addrs.size());
  for (const Ipv6Addr& a : addrs) {
    if (activity.active_any(a)) out.push_back(a);
  }
  return out;
}

std::vector<Ipv6Addr> filter_active_on(std::span<const Ipv6Addr> addrs,
                                       const ActivityMap& activity,
                                       ProbeType type) {
  std::vector<Ipv6Addr> out;
  out.reserve(addrs.size());
  for (const Ipv6Addr& a : addrs) {
    if (activity.active_on(a, type)) out.push_back(a);
  }
  return out;
}

}  // namespace v6::seeds
