#include "seeds/seed_dataset.h"

#include "check/contracts.h"

namespace v6::seeds {

void SeedDataset::add(const v6::net::Ipv6Addr& addr, SeedSource source) {
  const auto [i, inserted] =
      index_.insert(addr, addrs_.size(), v6::net::key_in(addrs_));
  if (inserted) {
    addrs_.push_back(addr);
    masks_.push_back(source_bit(source));
  } else {
    masks_[i] |= source_bit(source);
  }
  V6_INVARIANT_MSG(addrs_.size() == masks_.size() &&
                       addrs_.size() == index_.size(),
                   "address / mask / index stores out of sync");
}

void SeedDataset::reserve(std::size_t n) {
  addrs_.reserve(n);
  masks_.reserve(n);
  index_.reserve(n, v6::net::key_in(addrs_));
}

std::uint16_t SeedDataset::sources_of(const v6::net::Ipv6Addr& addr) const {
  const std::optional<std::uint32_t> i = find(addr);
  if (!i.has_value()) return 0;
  V6_INVARIANT(*i < masks_.size());
  return masks_[*i];
}

std::vector<v6::net::Ipv6Addr> SeedDataset::from_source(
    SeedSource source) const {
  std::vector<v6::net::Ipv6Addr> out;
  const std::uint16_t bit = source_bit(source);
  for (std::size_t i = 0; i < addrs_.size(); ++i) {
    if (masks_[i] & bit) out.push_back(addrs_[i]);
  }
  return out;
}

std::size_t SeedDataset::count(SeedSource source) const {
  std::size_t n = 0;
  const std::uint16_t bit = source_bit(source);
  for (const std::uint16_t m : masks_) {
    if (m & bit) ++n;
  }
  return n;
}

}  // namespace v6::seeds
