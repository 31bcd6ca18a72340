// AddrIndexMap: an open-addressing hash map from Ipv6Addr to a 32-bit
// index, tuned for the simulator's hottest lookup (Universe::probe runs
// one find() per probe packet).
//
// Compared with std::unordered_map<Ipv6Addr, uint32_t> it stores slots
// contiguously (no per-node allocation, one cache line per lookup in the
// common case) and probes linearly from a mixed hash. Deletion is not
// supported — the universe only ever grows (UniverseBuilder::build and
// the aging birth pass), and so do the seed dataset and activity map,
// which keeps the table tombstone-free. A user whose set shrinks
// compacts its own storage and rebuilds the table after compaction,
// clear() plus reinsertion: service::RescanScheduler does so after each
// eviction pass.
//
// prefetch() hints the cache to load the slot where a lookup would
// start, so a scan loop can issue it some probes ahead and overlap the
// table's cache misses (StreamScanner's lookahead walk, via
// simnet::Universe::prefetch). It changes nothing a lookup returns.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "check/contracts.h"
#include "net/ipv6.h"

namespace v6::net {

class AddrIndexMap {
 private:
  struct Slot {
    Ipv6Addr key;
    std::uint32_t value = 0;
    bool used = false;
  };

  static constexpr std::size_t kMinCapacity = 16;  // power of two
  static constexpr std::size_t kMaxLoadPercent = 70;

  /// First slot holding `addr`, or the empty slot where it would go.
  /// `slots` must be a non-empty power-of-two-sized table.
  template <typename Slots>
  static auto& locate(Slots& slots, const Ipv6Addr& addr) {
    V6_REQUIRE_MSG(!slots.empty() && (slots.size() & (slots.size() - 1)) == 0,
                   "table must be a non-empty power-of-two size");
    const std::size_t mask = slots.size() - 1;
    std::size_t i = Ipv6AddrHash{}(addr) & mask;
    for (;;) {
      auto& slot = slots[i];
      if (!slot.used || slot.key == addr) return slot;
      i = (i + 1) & mask;
    }
  }

  void rehash(std::size_t capacity) {
    V6_REQUIRE_MSG(capacity * kMaxLoadPercent >= size_ * 100,
                   "rehash target capacity would exceed the load limit");
    std::vector<Slot> next(capacity);
    for (const Slot& slot : slots_) {
      if (!slot.used) continue;
      Slot& target = locate(next, slot.key);
      V6_INVARIANT_MSG(!target.used, "duplicate key during rehash");
      target = slot;
    }
    slots_ = std::move(next);
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;

 public:
  AddrIndexMap() = default;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Pre-sizes the table for `n` entries (rounded so the load factor
  /// stays below kMaxLoadPercent).
  void reserve(std::size_t n) {
    std::size_t cap = kMinCapacity;
    while (cap * kMaxLoadPercent < n * 100) cap <<= 1;
    if (cap > slots_.size()) rehash(cap);
  }

  /// Inserts (addr -> value); returns false (leaving the map unchanged)
  /// if the key is already present.
  bool insert(const Ipv6Addr& addr, std::uint32_t value) {
    if (slots_.empty() || (size_ + 1) * 100 > slots_.size() * kMaxLoadPercent) {
      rehash(slots_.empty() ? kMinCapacity : slots_.size() * 2);
    }
    Slot& slot = locate(slots_, addr);
    if (slot.used) return false;
    slot.key = addr;
    slot.value = value;
    slot.used = true;
    ++size_;
    V6_ENSURE_MSG(size_ * 100 <= slots_.size() * kMaxLoadPercent,
                  "load factor above the probing bound after insert");
    return true;
  }

  /// insert(), then the value stored under `addr` (the new one, or the
  /// one already there) and whether this call inserted it.
  std::pair<std::uint32_t, bool> emplace(const Ipv6Addr& addr,
                                         std::uint32_t value) {
    if (insert(addr, value)) return {value, true};
    return {*find(addr), false};
  }

  /// Pointer to the value stored under `addr`, or nullptr.
  const std::uint32_t* find(const Ipv6Addr& addr) const {
    if (slots_.empty()) return nullptr;
    const Slot& slot = locate(slots_, addr);
    return slot.used ? &slot.value : nullptr;
  }

  bool contains(const Ipv6Addr& addr) const { return find(addr) != nullptr; }

  /// Hints the cache to load the slot where a lookup of `addr` starts.
  /// A slot is 24 bytes and can straddle two cache lines, so both its
  /// first and its last byte are touched. Does nothing on an empty table.
  void prefetch(const Ipv6Addr& addr) const {
    if (slots_.empty()) return;
    const Slot* slot = &slots_[Ipv6AddrHash{}(addr) & (slots_.size() - 1)];
    __builtin_prefetch(slot);
    __builtin_prefetch(reinterpret_cast<const char*>(slot + 1) - 1);
  }

  /// Empties the map but keeps the allocated table, so scratch maps
  /// reused across scan batches (Scanner/StreamScanner dedup) reach a
  /// steady state with no per-batch allocation.
  void clear() {
    for (Slot& slot : slots_) slot.used = false;
    size_ = 0;
  }
};

}  // namespace v6::net
