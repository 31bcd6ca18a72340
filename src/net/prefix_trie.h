// Hashed longest-prefix match mapping IPv6 prefixes to values.
//
// Carries the routing table (prefix -> ASN), the universe's alias
// regions, the procedural universe's per-/32 plan index, the published
// alias list and the scan blocklist. Universe::probe runs one or two
// longest matches per simulated packet, so the layout follows the
// tables those callers hold: prefixes of /32 and longer, few lengths
// per /32.
//
// Layout:
//   - every stored prefix is one slot of a flat open-addressing table
//     keyed by (network, length);
//   - each /32 that holds prefixes of length 32..128 (its anchor) keeps
//     a bitmask of those lengths, in a second flat table keyed by the
//     /32;
//   - the lengths of the prefixes shorter than /32 form one 32-bit mask.
//
// longest_match makes one probe for the address's anchor, then one
// probe per length in that anchor's mask, longest first, then one probe
// per short length, longest first. The first hit is the most specific
// stored prefix containing the address, so the match is exact. find()
// is one probe. for_each visits in (network, length) order. Both tables
// probe linearly and stay at most half full. With the simulator's
// tables (routes are /32s plus one /48; alias regions are /64, /80 and
// /96, at most three lengths per /32) most alias matches end after the
// anchor probe, and a route match takes two probes.
//
// Returned pointers stay valid until the next insert(), which may grow
// and so move the tables. Const members only read, so any number of
// threads may look up at once while no thread inserts.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "net/ipv6.h"
#include "net/prefix.h"

namespace v6::net {

/// Longest-prefix-match table. T must be copyable and
/// default-constructible.
template <typename T>
class PrefixTrie {
 public:
  PrefixTrie() : entries_(kMinCapacity), anchors_(kMinCapacity) {}

  /// Inserts (or overwrites) the value for `prefix`.
  void insert(const Prefix& prefix, T value) {
    const int len = prefix.length();
    if ((size_ + 1) * 2 > entries_.size()) grow_entries();
    Entry& entry = entries_[entry_slot(prefix.addr(), len)];
    entry.value = std::move(value);
    if (!entry.empty()) return;  // an overwrite: the later value wins
    entry.network = prefix.addr();
    entry.len = static_cast<std::uint8_t>(len);
    ++size_;

    if (len < kAnchorLen) {
      short_lengths_ |= 1U << len;
      return;
    }
    if ((anchor_count_ + 1) * 2 > anchors_.size()) grow_anchors();
    const std::uint32_t key = anchor_key(prefix.addr());
    Anchor& anchor = anchors_[anchor_slot(key)];
    if (!anchor.used) {
      anchor.key = key;
      anchor.used = true;
      ++anchor_count_;
    }
    const int bit = len - kAnchorLen;
    anchor.lengths[bit / 64] |= 1ULL << (bit % 64);
  }

  /// Longest-prefix match: returns the value of the most specific prefix
  /// containing `addr`, or nullptr if none.
  const T* longest_match(const Ipv6Addr& addr) const {
    int matched_len = -1;
    return longest_match(addr, matched_len);
  }

  /// As longest_match, but also reports the matched prefix length (-1
  /// when nothing matches).
  const T* longest_match(const Ipv6Addr& addr, int& matched_len) const {
    const Entry* hit = nullptr;
    if (const Anchor& anchor = anchors_[anchor_slot(anchor_key(addr))];
        anchor.used) {
      hit = match_lengths(addr, anchor.lengths[1], kAnchorLen + 64);
      if (hit == nullptr) {
        hit = match_lengths(addr, anchor.lengths[0], kAnchorLen);
      }
    }
    if (hit == nullptr) hit = match_lengths(addr, short_lengths_, 0);
    matched_len = hit == nullptr ? -1 : hit->len;
    return hit == nullptr ? nullptr : &hit->value;
  }

  /// Exact-prefix lookup.
  const T* find(const Prefix& prefix) const {
    const Entry& entry = entries_[entry_slot(prefix.addr(), prefix.length())];
    return entry.empty() ? nullptr : &entry.value;
  }

  /// True if any stored prefix contains `addr`.
  bool covers(const Ipv6Addr& addr) const {
    return longest_match(addr) != nullptr;
  }

  /// Number of stored prefixes.
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Visits every (prefix, value) pair in (network, length) order, so a
  /// prefix comes before every stored prefix it contains.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    std::vector<const Entry*> order;
    order.reserve(size_);
    for (const Entry& e : entries_) {
      if (!e.empty()) order.push_back(&e);
    }
    std::sort(order.begin(), order.end(), [](const Entry* a, const Entry* b) {
      return std::tie(a->network, a->len) < std::tie(b->network, b->len);
    });
    for (const Entry* e : order) fn(Prefix(e->network, e->len), e->value);
  }

 private:
  /// Prefixes of this length and longer are indexed by their /32.
  static constexpr int kAnchorLen = 32;
  static constexpr std::size_t kMinCapacity = 8;  // power of two
  static constexpr std::uint8_t kEmptyLen = 0xFF;

  struct Entry {
    Ipv6Addr network;
    T value{};
    std::uint8_t len = kEmptyLen;
    bool empty() const { return len == kEmptyLen; }
  };

  struct Anchor {
    /// Bit L-32 of word 0 marks a stored /L for L in 32..95; bit L-96 of
    /// word 1 one for L in 96..128.
    std::uint64_t lengths[2] = {0, 0};
    std::uint32_t key = 0;
    bool used = false;
  };

  static std::uint32_t anchor_key(const Ipv6Addr& addr) {
    return static_cast<std::uint32_t>(addr.hi() >> 32);
  }

  // Slot indices are the top bits of a multiplicative hash (shift =
  // 64 - log2(capacity)), which depend on every key bit.
  static std::size_t slot(std::uint64_t hash, int shift) {
    return static_cast<std::size_t>(hash >> shift);
  }

  /// Index of the slot holding (network, len), or of the empty slot
  /// where it goes.
  std::size_t entry_slot(const Ipv6Addr& network, int len) const {
    const std::size_t mask = entries_.size() - 1;
    const std::uint64_t salted_lo =
        network.lo() ^ static_cast<std::uint64_t>(len);
    const std::uint64_t hash = network.hi() * 0x9E3779B97F4A7C15ULL +
                               salted_lo * 0xC2B2AE3D27D4EB4FULL;
    for (std::size_t i = slot(hash, entry_shift_);; i = (i + 1) & mask) {
      const Entry& e = entries_[i];
      if (e.empty() || (e.len == len && e.network == network)) return i;
    }
  }

  /// Index of the anchor slot of `key`, or of the empty slot where it
  /// goes.
  std::size_t anchor_slot(std::uint32_t key) const {
    const std::size_t mask = anchors_.size() - 1;
    for (std::size_t i = slot(key * 0x9E3779B97F4A7C15ULL, anchor_shift_);;
         i = (i + 1) & mask) {
      const Anchor& a = anchors_[i];
      if (!a.used || a.key == key) return i;
    }
  }

  // Both tables double once they would pass half full.
  void grow_entries() {
    std::vector<Entry> old(entries_.size() * 2);
    old.swap(entries_);
    --entry_shift_;
    for (const Entry& e : old) {
      if (!e.empty()) entries_[entry_slot(e.network, e.len)] = e;
    }
  }

  void grow_anchors() {
    std::vector<Anchor> old(anchors_.size() * 2);
    old.swap(anchors_);
    --anchor_shift_;
    for (const Anchor& a : old) {
      if (a.used) anchors_[anchor_slot(a.key)] = a;
    }
  }

  /// Probes the lengths `base + b` for every set bit b of `mask`, longest
  /// first, and returns the first stored prefix containing `addr`.
  template <typename Mask>
  const Entry* match_lengths(const Ipv6Addr& addr, Mask mask, int base) const {
    while (mask != 0) {
      const int bit = std::bit_width(mask) - 1;
      mask ^= Mask{1} << bit;
      const int len = base + bit;
      const Entry& e = entries_[entry_slot(addr.masked(len), len)];
      if (!e.empty()) return &e;
    }
    return nullptr;
  }

  std::vector<Entry> entries_;
  std::vector<Anchor> anchors_;
  int entry_shift_ = 64 - std::countr_zero(kMinCapacity);
  int anchor_shift_ = 64 - std::countr_zero(kMinCapacity);
  std::uint32_t short_lengths_ = 0;  // bit L: a stored /L, L in 0..31
  std::size_t size_ = 0;
  std::size_t anchor_count_ = 0;
};

}  // namespace v6::net
