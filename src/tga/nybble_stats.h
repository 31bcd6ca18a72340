// Per-nybble value statistics over an address set: histograms and
// entropy (Entropy/IP's segment analysis).
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "net/ipv6.h"

namespace v6::tga {

/// Value histogram of one nybble position.
struct NybbleHistogram {
  std::array<std::uint32_t, 16> count{};

  std::uint32_t total() const {
    std::uint32_t t = 0;
    for (const std::uint32_t c : count) t += c;
    return t;
  }

  /// Number of distinct values observed.
  int distinct() const {
    int d = 0;
    for (const std::uint32_t c : count) d += c != 0;
    return d;
  }

  /// Shannon entropy in bits (0 for a constant nybble; max 4).
  double entropy() const;

  /// Most frequent value (lowest value wins ties).
  std::uint8_t mode() const;
};

/// Histograms for all 32 nybble positions of an address set.
class NybbleStats {
 public:
  NybbleStats() = default;
  explicit NybbleStats(std::span<const v6::net::Ipv6Addr> addrs);

  void add(const v6::net::Ipv6Addr& addr);

  const NybbleHistogram& at(int nybble) const {
    return hist_[static_cast<std::size_t>(nybble)];
  }

  std::size_t samples() const { return samples_; }

 private:
  std::array<NybbleHistogram, v6::net::Ipv6Addr::kNybbles> hist_{};
  std::size_t samples_ = 0;
};

}  // namespace v6::tga
