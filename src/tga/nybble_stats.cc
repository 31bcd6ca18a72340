#include "tga/nybble_stats.h"

#include <cmath>

namespace v6::tga {

double NybbleHistogram::entropy() const {
  const std::uint32_t t = total();
  if (t == 0) return 0.0;
  double h = 0.0;
  for (const std::uint32_t c : count) {
    if (c == 0) continue;
    const double p = static_cast<double>(c) / static_cast<double>(t);
    h -= p * std::log2(p);
  }
  return h;
}

std::uint8_t NybbleHistogram::mode() const {
  int best = 0;
  for (int v = 1; v < 16; ++v) {
    if (count[static_cast<std::size_t>(v)] >
        count[static_cast<std::size_t>(best)]) {
      best = v;
    }
  }
  return static_cast<std::uint8_t>(best);
}

NybbleStats::NybbleStats(std::span<const v6::net::Ipv6Addr> addrs) {
  for (const v6::net::Ipv6Addr& a : addrs) add(a);
}

void NybbleStats::add(const v6::net::Ipv6Addr& addr) {
  for (int i = 0; i < v6::net::Ipv6Addr::kNybbles; ++i) {
    ++hist_[static_cast<std::size_t>(i)].count[addr.nybble(i)];
  }
  ++samples_;
}

}  // namespace v6::tga
