// Unit tests for AddrIndex, the open-addressing core behind
// Universe::probe and the scanners' dedup, and AddrIndexMap, the map
// built on it.
#include "net/addr_index.h"

#include <gtest/gtest.h>

#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/ipv6.h"
#include "net/rng.h"

namespace v6::net {
namespace {

Ipv6Addr addr_of(std::uint64_t hi, std::uint64_t lo) {
  return Ipv6Addr(hi, lo);
}

static_assert(sizeof(AddrIndex::Slot) == 8, "a slot is {tag, position + 1}");

/// The tag an AddrIndex slot keeps of `addr`: the high half of its
/// hash. A key's home slot is its tag's top bits, so two keys with one
/// tag share a home slot in a table of any size.
std::uint32_t tag_of(const Ipv6Addr& addr) {
  return static_cast<std::uint32_t>(Ipv6AddrHash{}(addr) >> 32);
}

/// An address other than `a` with the very same Ipv6AddrHash, so it
/// meets `a` at every table size. The hash mixes each half on its own
/// and adds the two before its final mix: take a new high half, then
/// solve the low half's mix for the sum `a` has.
Ipv6Addr same_hash_as(const Ipv6Addr& a) {
  constexpr std::uint64_t kHiMul = 0x9E3779B97F4A7C15ULL;
  constexpr std::uint64_t kLoAdd = 0xD1B54A32D192ED03ULL;
  constexpr std::uint64_t kLoMul = 0xBF58476D1CE4E5B9ULL;
  const auto mix_hi = [](std::uint64_t v) {
    v *= kHiMul;
    return v ^ (v >> 32);
  };
  const auto mix_lo = [](std::uint64_t v) {
    v = (v + kLoAdd) * kLoMul;
    return v ^ (v >> 29);
  };
  const std::uint64_t hi = a.hi() + 1;
  const std::uint64_t mixed = mix_hi(a.hi()) + mix_lo(a.lo()) - mix_hi(hi);
  // kLoMul's inverse mod 2^64: each Newton step doubles the exact low
  // bits, 3 → 96.
  std::uint64_t inverse = kLoMul;
  for (int i = 0; i < 5; ++i) inverse *= 2 - kLoMul * inverse;
  const std::uint64_t product = mixed ^ (mixed >> 29) ^ (mixed >> 58);
  return Ipv6Addr(hi, product * inverse - kLoAdd);
}

TEST(AddrIndex, TagCollisionResolvesByKey) {
  // Birthday search for two addresses with one tag, so one home slot:
  // the second one's probe meets the first one's slot, tag and all.
  std::unordered_map<std::uint32_t, Ipv6Addr> seen;
  Rng rng(2024);
  std::optional<std::pair<Ipv6Addr, Ipv6Addr>> pair;
  while (!pair.has_value()) {
    const Ipv6Addr addr = addr_of(rng(), rng());
    const auto [it, fresh] = seen.emplace(tag_of(addr), addr);
    if (!fresh && it->second != addr) pair.emplace(it->second, addr);
  }
  const auto [a, b] = *pair;
  const Ipv6Addr c = same_hash_as(a);
  ASSERT_EQ(tag_of(a), tag_of(b));
  ASSERT_EQ(Ipv6AddrHash{}(c), Ipv6AddrHash{}(a));
  ASSERT_NE(c, a);
  ASSERT_NE(c, b);

  std::vector<Ipv6Addr> keys;
  AddrIndex index;
  for (const Ipv6Addr& addr : {a, b}) {
    EXPECT_EQ(index.insert(addr, keys.size(), key_in(keys)),
              std::make_pair(static_cast<std::uint32_t>(keys.size()), true));
    keys.push_back(addr);
  }
  EXPECT_EQ(index.find(a, key_in(keys)), 0u);
  EXPECT_EQ(index.find(b, key_in(keys)), 1u);
  EXPECT_EQ(index.find(c, key_in(keys)), std::nullopt);
  EXPECT_EQ(index.insert(b, keys.size(), key_in(keys)),
            std::make_pair(1u, false));
  EXPECT_EQ(index.size(), 2u);
}

TEST(AddrIndexMap, StartsEmpty) {
  AddrIndexMap map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.find(addr_of(1, 2)), nullptr);
  EXPECT_FALSE(map.contains(addr_of(1, 2)));
}

TEST(AddrIndexMap, InsertThenFind) {
  AddrIndexMap map;
  EXPECT_TRUE(map.insert(addr_of(0x2001, 0x1), 7));
  EXPECT_TRUE(map.insert(addr_of(0x2001, 0x2), 8));
  ASSERT_NE(map.find(addr_of(0x2001, 0x1)), nullptr);
  EXPECT_EQ(*map.find(addr_of(0x2001, 0x1)), 7u);
  ASSERT_NE(map.find(addr_of(0x2001, 0x2)), nullptr);
  EXPECT_EQ(*map.find(addr_of(0x2001, 0x2)), 8u);
  EXPECT_EQ(map.find(addr_of(0x2001, 0x3)), nullptr);
  EXPECT_EQ(map.size(), 2u);
}

TEST(AddrIndexMap, DuplicateInsertKeepsFirstValue) {
  AddrIndexMap map;
  EXPECT_TRUE(map.insert(addr_of(5, 5), 1));
  EXPECT_FALSE(map.insert(addr_of(5, 5), 2));
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(*map.find(addr_of(5, 5)), 1u);
}

TEST(AddrIndexMap, EmplaceReturnsTheStoredValue) {
  AddrIndexMap map;
  EXPECT_EQ(map.emplace(addr_of(5, 5), 1), std::make_pair(1u, true));
  EXPECT_EQ(map.emplace(addr_of(5, 5), 2), std::make_pair(1u, false));
  EXPECT_EQ(map.emplace(addr_of(5, 6), 3), std::make_pair(3u, true));
  EXPECT_EQ(map.size(), 2u);
}

TEST(AddrIndexMap, GrowsPastInitialCapacity) {
  AddrIndexMap map;
  constexpr std::uint32_t kN = 10'000;
  Rng rng(42);
  std::vector<Ipv6Addr> keys;
  keys.reserve(kN);
  for (std::uint32_t i = 0; i < kN; ++i) {
    keys.push_back(addr_of(rng(), rng()));
    map.insert(keys.back(), i);
  }
  for (std::uint32_t i = 0; i < kN; ++i) {
    ASSERT_NE(map.find(keys[i]), nullptr) << "key " << i;
    EXPECT_EQ(*map.find(keys[i]), i);
  }
}

TEST(AddrIndexMap, ReservePreservesContents) {
  AddrIndexMap map;
  for (std::uint32_t i = 0; i < 50; ++i) {
    map.insert(addr_of(i, ~static_cast<std::uint64_t>(i)), i);
  }
  map.reserve(100'000);
  EXPECT_EQ(map.size(), 50u);
  for (std::uint32_t i = 0; i < 50; ++i) {
    ASSERT_NE(map.find(addr_of(i, ~static_cast<std::uint64_t>(i))), nullptr);
    EXPECT_EQ(*map.find(addr_of(i, ~static_cast<std::uint64_t>(i))), i);
  }
}

TEST(AddrIndexMap, PrefetchIsAHint) {
  // On an empty map prefetch() must not index the empty slot vector,
  // and no prefetch may change a lookup. A build with
  // -D_GLIBCXX_ASSERTIONS aborts here without the guard; ASan alone does
  // not, since a prefetch reads no memory.
  AddrIndex index;
  index.prefetch(addr_of(1, 2));
  EXPECT_TRUE(index.empty());
  AddrIndexMap map;
  map.prefetch(addr_of(1, 2));
  EXPECT_EQ(map.find(addr_of(1, 2)), nullptr);
  EXPECT_TRUE(map.empty());

  Rng rng(11);
  std::vector<Ipv6Addr> keys;
  for (std::uint32_t i = 0; i < 100; ++i) {  // rehashes past kMinCapacity
    keys.push_back(addr_of(rng(), rng()));
    map.prefetch(keys.back());
    map.insert(keys.back(), i);
  }
  const auto expect_lookups = [&] {
    for (std::uint32_t i = 0; i < keys.size(); ++i) {
      const Ipv6Addr missing = addr_of(rng(), rng());
      map.prefetch(keys[i]);
      map.prefetch(missing);
      ASSERT_NE(map.find(keys[i]), nullptr) << "key " << i;
      EXPECT_EQ(*map.find(keys[i]), i);
      EXPECT_EQ(map.find(missing), nullptr);
    }
    EXPECT_EQ(map.size(), keys.size());
  };
  expect_lookups();
  map.reserve(10'000);  // one more rehash, to a larger table
  expect_lookups();
}

TEST(AddrIndexMap, MatchesUnorderedMapOnRandomWorkload) {
  // The map, and the core over an owner's key array, against
  // std::unordered_map. The owner's vector moves to a new buffer on
  // every append, so an index that kept a pointer to its keys would
  // read freed memory (ASan) or stale keys.
  AddrIndexMap map;
  AddrIndex index;
  std::vector<Ipv6Addr> owner;
  std::unordered_map<Ipv6Addr, std::uint32_t, Ipv6AddrHash> reference;
  Rng rng(7);
  for (std::uint32_t i = 0; i < 5'000; ++i) {
    // Small keyspace forces duplicate inserts and near-miss lookups.
    const Ipv6Addr key = addr_of(rng() % 64, rng() % 64);
    const bool fresh = reference.emplace(key, i).second;
    EXPECT_EQ(map.insert(key, i), fresh);
    const auto [pos, inserted] =
        index.insert(key, owner.size(), key_in(owner));
    EXPECT_EQ(inserted, fresh);
    if (inserted) {
      owner.push_back(key);
      owner.shrink_to_fit();
    }
    ASSERT_LT(pos, owner.size());
    EXPECT_EQ(owner[pos], key);

    const Ipv6Addr probe = addr_of(rng() % 64, rng() % 64);
    const auto it = reference.find(probe);
    const std::uint32_t* found = map.find(probe);
    const std::optional<std::uint32_t> at = index.find(probe, key_in(owner));
    if (it == reference.end()) {
      EXPECT_EQ(found, nullptr);
      EXPECT_EQ(at, std::nullopt);
    } else {
      ASSERT_NE(found, nullptr);
      EXPECT_EQ(*found, it->second);
      ASSERT_TRUE(at.has_value());
      EXPECT_EQ(owner[*at], probe);
    }
  }
  EXPECT_EQ(map.size(), reference.size());
  EXPECT_EQ(index.size(), reference.size());
  EXPECT_EQ(owner.size(), reference.size());
}

}  // namespace
}  // namespace v6::net
