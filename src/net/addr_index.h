// Address indexes: AddrIndex, the one open-addressing core, and
// AddrIndexMap, the map built on it.
//
// AddrIndex maps a key to its position in an array its owner already
// keeps. The keys are Ipv6Addrs (Universe's host records, a scanner's
// target list, a seed dataset's addresses, which seeds::ActivityMap
// borrows, a generator's emitted set) or names (dns::ZoneDb's records,
// looked up by std::string_view). A slot is 8 bytes: the key's tag (the
// high half of its Ipv6AddrHash, or of std::hash<std::string_view> for
// a name) and its position + 1, so a zeroed slot is empty. The table
// holds neither the keys nor a pointer to them. Every
// call takes a key accessor, key_at(pos) -> the owner's key at pos, and
// the core reads a key only where a slot's tag matches the one sought:
// a hit, or rarely two keys with one tag. A miss touches its home
// slot's cache line and no key. Since nothing points into the owner,
// moving the owner or growing its array never leaves the table reading
// freed keys.
//
// A key's home slot is its tag's top bits, so a rehash finds every
// slot's new home from the tag alone: it reads no key, and it writes the
// new table in nearly the order it reads the old one. Probing is linear
// and the table at most 70% full. Deletion is not supported: the
// universe only ever grows (UniverseBuilder::build and the aging birth
// pass), and so do the seed dataset and the scanners' per-scan dedup,
// which keeps the table tombstone-free. An owner whose set shrinks
// compacts its array and rebuilds the table after compaction, clear()
// plus reinsertion: service::RescanScheduler does so after each
// eviction pass, and tga::SeedIndex after remove().
//
// AddrIndexMap keeps the map interface for users with no key array of
// their own (6Gen's /64 grouping, tga::SeedIndex::remove's doomed set):
// it stores its keys and values densely and indexes them with the same
// core, 8 bytes per slot plus 20 per entry.
//
// prefetch() hints the cache to load the slot where a lookup would
// start, so a scan loop can issue it some probes ahead and overlap the
// table's cache misses (StreamScanner's lookahead walk, via
// simnet::Universe::prefetch). It changes nothing a lookup returns.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "check/contracts.h"
#include "net/ipv6.h"

namespace v6::net {

/// The key accessor over an array of addresses: pos -> keys[pos]. Make
/// it at each call; it borrows `keys` only for that call.
inline auto key_in(std::span<const Ipv6Addr> keys) {
  return [keys](std::uint32_t pos) -> const Ipv6Addr& { return keys[pos]; };
}

class AddrIndex {
 public:
  /// One table slot; zero-initialized means empty.
  struct Slot {
    std::uint32_t tag = 0;
    std::uint32_t pos1 = 0;  // the key's position + 1
  };

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// The position stored for `key`, or nullopt. `Key` is Ipv6Addr or
  /// std::string_view, and key_at(pos) must compare equal to it.
  template <typename Key, typename KeyAt>
  std::optional<std::uint32_t> find(const Key& key,
                                    const KeyAt& key_at) const {
    if (slots_.empty()) return std::nullopt;
    const Slot& slot = locate(slots_, tag_of(key), [&](std::uint32_t pos) {
      return key_at(pos) == key;
    });
    if (slot.pos1 == 0) return std::nullopt;
    return slot.pos1 - 1;
  }

  template <typename Key, typename KeyAt>
  bool contains(const Key& key, const KeyAt& key_at) const {
    return find(key, key_at).has_value();
  }

  /// Indexes `key` at `pos` unless it is already indexed; returns the
  /// position stored for `key` and whether this call stored it.
  /// `key_at` need only reach the positions already indexed, so an owner
  /// may append `key` to its array once this returns true.
  template <typename Key, typename KeyAt>
  std::pair<std::uint32_t, bool> insert(const Key& key, std::size_t pos,
                                        const KeyAt& key_at) {
    V6_REQUIRE_MSG(pos < std::numeric_limits<std::uint32_t>::max(),
                   "position + 1 must fit a slot's 32 bits");
    if (slots_.empty() ||
        (size_ + 1) * 100 > slots_.size() * kMaxLoadPercent) {
      rehash(slots_.empty() ? kMinCapacity : slots_.size() * 2, key_at);
    }
    const std::uint32_t tag = tag_of(key);
    Slot& slot = locate(slots_, tag, [&](std::uint32_t at) {
      return key_at(at) == key;
    });
    if (slot.pos1 != 0) return {slot.pos1 - 1, false};
    slot = {tag, static_cast<std::uint32_t>(pos + 1)};
    ++size_;
    V6_ENSURE_MSG(size_ * 100 <= slots_.size() * kMaxLoadPercent,
                  "load factor above the probing bound after insert");
    return {static_cast<std::uint32_t>(pos), true};
  }

  /// Pre-sizes the table for `n` entries (rounded so the load factor
  /// stays below kMaxLoadPercent).
  template <typename KeyAt>
  void reserve(std::size_t n, const KeyAt& key_at) {
    std::size_t cap = kMinCapacity;
    while (cap * kMaxLoadPercent < n * 100) cap <<= 1;
    if (cap > slots_.size()) rehash(cap, key_at);
  }

  /// Hints the cache to load the slot where a lookup of `addr` starts.
  /// An aligned 8-byte slot never straddles a cache line. Does nothing
  /// on an empty table.
  void prefetch(const Ipv6Addr& addr) const {
    if (slots_.empty()) return;
    __builtin_prefetch(&slots_[home_of(tag_of(addr), slots_.size())]);
  }

  /// Empties the index but keeps the allocated table, so scratch indexes
  /// reused across scans (Scanner/StreamScanner dedup) reach a steady
  /// state with no per-scan allocation.
  void clear() {
    std::fill(slots_.begin(), slots_.end(), Slot{});
    size_ = 0;
  }

 private:
  static constexpr std::size_t kMinCapacity = 16;  // power of two
  static constexpr std::size_t kMaxLoadPercent = 70;

  static std::uint32_t tag_of(const Ipv6Addr& addr) {
    return static_cast<std::uint32_t>(Ipv6AddrHash{}(addr) >> 32);
  }
  static std::uint32_t tag_of(std::string_view name) {
    return static_cast<std::uint32_t>(std::hash<std::string_view>{}(name) >>
                                      32);
  }

  /// The slot where a probe for `tag` starts: the tag's top
  /// log2(capacity) bits, tag * capacity / 2^32.
  static std::size_t home_of(std::uint32_t tag, std::size_t capacity) {
    return static_cast<std::size_t>((std::uint64_t{tag} * capacity) >> 32);
  }

  /// First slot whose tag is `tag` and whose position `same_key`
  /// accepts, or the empty slot where such a key would go. `slots` must
  /// be a power-of-two-sized table of 16 to 2^32 slots.
  template <typename Slots, typename SameKey>
  static auto& locate(Slots& slots, std::uint32_t tag,
                      const SameKey& same_key) {
    V6_REQUIRE_MSG(slots.size() >= kMinCapacity &&
                       slots.size() <= (std::size_t{1} << 32) &&
                       (slots.size() & (slots.size() - 1)) == 0,
                   "table must be a power-of-two size from 16 to 2^32");
    const std::size_t mask = slots.size() - 1;
    for (std::size_t i = home_of(tag, slots.size());; i = (i + 1) & mask) {
      auto& slot = slots[i];
      if (slot.pos1 == 0 || (slot.tag == tag && same_key(slot.pos1 - 1))) {
        return slot;
      }
    }
  }

  /// Moves every slot to a table of `capacity` slots. A slot's home is
  /// the top bits of its tag, so no key is read, save where two tags
  /// agree and the duplicate check compares their keys.
  template <typename KeyAt>
  void rehash(std::size_t capacity, const KeyAt& key_at) {
    V6_REQUIRE_MSG(capacity * kMaxLoadPercent >= size_ * 100,
                   "rehash target capacity would exceed the load limit");
    std::vector<Slot> next(capacity);
    for (const Slot& slot : slots_) {
      if (slot.pos1 == 0) continue;
      Slot& target = locate(next, slot.tag, [&](std::uint32_t pos) {
        return key_at(pos) == key_at(slot.pos1 - 1);
      });
      V6_INVARIANT_MSG(target.pos1 == 0, "duplicate key during rehash");
      target = slot;
    }
    slots_ = std::move(next);
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

class AddrIndexMap {
 public:
  std::size_t size() const { return keys_.size(); }
  bool empty() const { return keys_.empty(); }

  /// Pre-sizes the table and the key and value stores for `n` entries.
  void reserve(std::size_t n) {
    index_.reserve(n, key_in(keys_));
    keys_.reserve(n);
    values_.reserve(n);
  }

  /// Inserts (addr -> value); returns false (leaving the map unchanged)
  /// if the key is already present.
  bool insert(const Ipv6Addr& addr, std::uint32_t value) {
    return emplace(addr, value).second;
  }

  /// insert(), then the value stored under `addr` (the new one, or the
  /// one already there) and whether this call inserted it.
  std::pair<std::uint32_t, bool> emplace(const Ipv6Addr& addr,
                                         std::uint32_t value) {
    const auto [pos, inserted] =
        index_.insert(addr, keys_.size(), key_in(keys_));
    if (inserted) {
      keys_.push_back(addr);
      values_.push_back(value);
    }
    return {values_[pos], inserted};
  }

  /// Pointer to the value stored under `addr`, or nullptr.
  const std::uint32_t* find(const Ipv6Addr& addr) const {
    const std::optional<std::uint32_t> pos = index_.find(addr, key_in(keys_));
    return pos.has_value() ? &values_[*pos] : nullptr;
  }

  bool contains(const Ipv6Addr& addr) const {
    return index_.contains(addr, key_in(keys_));
  }

  /// Hints the cache to load the slot where a lookup of `addr` starts.
  void prefetch(const Ipv6Addr& addr) const { index_.prefetch(addr); }

  /// Empties the map but keeps its allocations.
  void clear() {
    index_.clear();
    keys_.clear();
    values_.clear();
  }

 private:
  AddrIndex index_;
  std::vector<Ipv6Addr> keys_;
  std::vector<std::uint32_t> values_;
};

}  // namespace v6::net
