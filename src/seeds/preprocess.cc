#include "seeds/preprocess.h"

namespace v6::seeds {

using v6::net::Ipv6Addr;
using v6::net::ProbeType;

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
