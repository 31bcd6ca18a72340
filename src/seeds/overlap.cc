#include "seeds/overlap.h"

#include <unordered_map>
#include <unordered_set>

namespace v6::seeds {

OverlapMatrix ip_overlap(const SeedDataset& dataset, const AddrFilter& filter) {
  OverlapMatrix m;
  std::array<std::array<std::size_t, kNumSeedSources>, kNumSeedSources>
      inter{};
  std::array<std::size_t, kNumSeedSources> shared{};

  const auto& addrs = dataset.addrs();
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    if (filter && !filter(addrs[i])) continue;
    const std::uint16_t mask = dataset.sources_of(i);
    for (int a = 0; a < kNumSeedSources; ++a) {
      if (!(mask & (1u << a))) continue;
      ++m.total[static_cast<std::size_t>(a)];
      if (mask & ~(1u << a)) ++shared[static_cast<std::size_t>(a)];
      for (int b = 0; b < kNumSeedSources; ++b) {
        if (mask & (1u << b)) {
          ++inter[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)];
        }
      }
    }
  }

  for (int a = 0; a < kNumSeedSources; ++a) {
    const std::size_t ta = m.total[static_cast<std::size_t>(a)];
    m.any_other[static_cast<std::size_t>(a)] =
        ta == 0 ? 0.0
                : static_cast<double>(shared[static_cast<std::size_t>(a)]) /
                      static_cast<double>(ta);
    for (int b = 0; b < kNumSeedSources; ++b) {
      m.cell[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] =
          ta == 0 ? 0.0
                  : static_cast<double>(
                        inter[static_cast<std::size_t>(a)]
                             [static_cast<std::size_t>(b)]) /
                        static_cast<double>(ta);
    }
  }
  return m;
}

OverlapMatrix as_overlap(const SeedDataset& dataset, const AsnResolver& asn_of,
                         const AddrFilter& filter) {
  // Build per-source AS sets, then compute set overlaps.
  std::array<std::unordered_set<std::uint32_t>, kNumSeedSources> as_sets;
  // Memoize address -> ASN: datasets routinely hold hundreds of
  // thousands of addresses mapping to a few thousand ASes.
  const auto& addrs = dataset.addrs();
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    if (filter && !filter(addrs[i])) continue;
    const auto asn = asn_of(addrs[i]);
    if (!asn) continue;
    const std::uint16_t mask = dataset.sources_of(i);
    for (int a = 0; a < kNumSeedSources; ++a) {
      if (mask & (1u << a)) as_sets[static_cast<std::size_t>(a)].insert(*asn);
    }
  }

  OverlapMatrix m;
  for (int a = 0; a < kNumSeedSources; ++a) {
    const auto& sa = as_sets[static_cast<std::size_t>(a)];
    m.total[static_cast<std::size_t>(a)] = sa.size();
    std::size_t shared = 0;
    for (const std::uint32_t asn : sa) {
      bool in_other = false;
      for (int b = 0; b < kNumSeedSources && !in_other; ++b) {
        if (b != a && as_sets[static_cast<std::size_t>(b)].contains(asn)) {
          in_other = true;
        }
      }
      if (in_other) ++shared;
    }
    m.any_other[static_cast<std::size_t>(a)] =
        sa.empty() ? 0.0
                   : static_cast<double>(shared) / static_cast<double>(sa.size());
    for (int b = 0; b < kNumSeedSources; ++b) {
      const auto& sb = as_sets[static_cast<std::size_t>(b)];
      std::size_t inter = 0;
      for (const std::uint32_t asn : sa) {
        if (sb.contains(asn)) ++inter;
      }
      m.cell[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] =
          sa.empty() ? 0.0
                     : static_cast<double>(inter) /
                           static_cast<double>(sa.size());
    }
  }
  return m;
}

}  // namespace v6::seeds
