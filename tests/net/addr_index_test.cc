// Unit tests for AddrIndexMap, the open-addressing map behind
// Universe::probe.
#include "net/addr_index.h"

#include <gtest/gtest.h>

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
  AddrIndexMap map;
  std::unordered_map<Ipv6Addr, std::uint32_t, Ipv6AddrHash> reference;
  Rng rng(7);
  for (std::uint32_t i = 0; i < 5'000; ++i) {
    // Small keyspace forces duplicate inserts and near-miss lookups.
    const Ipv6Addr key = addr_of(rng() % 64, rng() % 64);
    EXPECT_EQ(map.insert(key, i), reference.emplace(key, i).second);
    const Ipv6Addr probe = addr_of(rng() % 64, rng() % 64);
    const auto it = reference.find(probe);
    const std::uint32_t* found = map.find(probe);
    if (it == reference.end()) {
      EXPECT_EQ(found, nullptr);
    } else {
      ASSERT_NE(found, nullptr);
      EXPECT_EQ(*found, it->second);
    }
  }
  EXPECT_EQ(map.size(), reference.size());
}

}  // namespace
}  // namespace v6::net
