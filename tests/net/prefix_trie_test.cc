#include "net/prefix_trie.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "net/rng.h"

namespace v6::net {
namespace {

TEST(PrefixTrie, EmptyMatchesNothing) {
  PrefixTrie<int> trie;
  EXPECT_TRUE(trie.empty());
  EXPECT_EQ(trie.longest_match(Ipv6Addr::must_parse("2001:db8::1")), nullptr);
  EXPECT_FALSE(trie.covers(Ipv6Addr()));
}

TEST(PrefixTrie, ExactAndLongestMatch) {
  PrefixTrie<int> trie;
  trie.insert(Prefix::must_parse("2001:db8::/32"), 1);
  trie.insert(Prefix::must_parse("2001:db8:1::/48"), 2);

  EXPECT_EQ(*trie.longest_match(Ipv6Addr::must_parse("2001:db8::1")), 1);
  EXPECT_EQ(*trie.longest_match(Ipv6Addr::must_parse("2001:db8:1::1")), 2);
  EXPECT_EQ(trie.longest_match(Ipv6Addr::must_parse("2001:db9::1")), nullptr);

  EXPECT_EQ(*trie.find(Prefix::must_parse("2001:db8::/32")), 1);
  EXPECT_EQ(trie.find(Prefix::must_parse("2001:db8::/33")), nullptr);
}

TEST(PrefixTrie, MatchedLengthReported) {
  PrefixTrie<int> trie;
  trie.insert(Prefix::must_parse("2001::/16"), 1);
  trie.insert(Prefix::must_parse("2001:db8::/32"), 2);
  int len = -1;
  ASSERT_NE(trie.longest_match(Ipv6Addr::must_parse("2001:db8::1"), len),
            nullptr);
  EXPECT_EQ(len, 32);
  ASSERT_NE(trie.longest_match(Ipv6Addr::must_parse("2001:1::1"), len),
            nullptr);
  EXPECT_EQ(len, 16);
}

TEST(PrefixTrie, DefaultRouteMatchesEverything) {
  PrefixTrie<int> trie;
  trie.insert(Prefix::must_parse("::/0"), 42);
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(*trie.longest_match(Ipv6Addr(rng(), rng())), 42);
  }
}

TEST(PrefixTrie, OverwriteKeepsSize) {
  PrefixTrie<int> trie;
  trie.insert(Prefix::must_parse("2001::/16"), 1);
  trie.insert(Prefix::must_parse("2001::/16"), 2);
  EXPECT_EQ(trie.size(), 1u);
  EXPECT_EQ(*trie.find(Prefix::must_parse("2001::/16")), 2);
}

TEST(PrefixTrie, HostRoute) {
  PrefixTrie<int> trie;
  trie.insert(Prefix::must_parse("2001:db8::1/128"), 7);
  EXPECT_EQ(*trie.longest_match(Ipv6Addr::must_parse("2001:db8::1")), 7);
  EXPECT_EQ(trie.longest_match(Ipv6Addr::must_parse("2001:db8::2")), nullptr);
}

TEST(PrefixTrie, ForEachVisitsAllInsertions) {
  PrefixTrie<int> trie;
  const std::vector<std::pair<const char*, int>> entries = {
      {"2001:db8::/32", 1},
      {"2001:db8:1::/48", 2},
      {"fe80::/10", 3},
      {"::/0", 4},
      {"2600:9000::/28", 5},
      {"2001:db8::/40", 6},
  };
  for (const auto& [text, value] : entries) {
    trie.insert(Prefix::must_parse(text), value);
  }
  std::vector<std::pair<Prefix, int>> seen;
  trie.for_each([&](const Prefix& p, const int& v) { seen.emplace_back(p, v); });
  ASSERT_EQ(seen.size(), entries.size());
  for (const auto& [text, value] : entries) {
    const Prefix p = Prefix::must_parse(text);
    const auto it = std::find_if(seen.begin(), seen.end(), [&](const auto& e) {
      return e.first == p;
    });
    ASSERT_NE(it, seen.end()) << text;
    EXPECT_EQ(it->second, value) << text;
  }
  // Documented order: by network, then length, so a prefix comes
  // before every prefix it contains.
  const std::vector<const char*> order = {
      "::/0", "2001:db8::/32", "2001:db8::/40",
      "2001:db8:1::/48", "2600:9000::/28", "fe80::/10",
  };
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(seen[i].first, Prefix::must_parse(order[i])) << i;
  }
}

/// Property test: the trie agrees with a brute-force longest-prefix scan
/// across random prefix sets and random probes.
TEST(PrefixTrie, AgreesWithBruteForce) {
  Rng rng(101);
  for (int round = 0; round < 20; ++round) {
    PrefixTrie<int> trie;
    std::vector<std::pair<Prefix, int>> prefixes;
    for (int i = 0; i < 200; ++i) {
      const Prefix p(Ipv6Addr(rng(), rng()), static_cast<int>(rng() % 129));
      // Skip duplicates: insert() overwrites, brute force must mirror it.
      const auto dup =
          std::find_if(prefixes.begin(), prefixes.end(),
                       [&](const auto& e) { return e.first == p; });
      if (dup != prefixes.end()) {
        dup->second = i;
      } else {
        prefixes.emplace_back(p, i);
      }
      trie.insert(p, i);
    }
    for (int probe = 0; probe < 200; ++probe) {
      // Half the probes target stored prefixes to guarantee matches.
      Ipv6Addr addr(rng(), rng());
      if (probe % 2 == 0) {
        const Prefix& base = prefixes[probe % prefixes.size()].first;
        addr = random_in_prefix(rng, base);
      }
      const int* got = trie.longest_match(addr);
      // Brute force.
      const std::pair<Prefix, int>* best = nullptr;
      for (const auto& entry : prefixes) {
        if (!entry.first.contains(addr)) continue;
        if (best == nullptr ||
            entry.first.length() > best->first.length()) {
          best = &entry;
        }
      }
      if (best == nullptr) {
        EXPECT_EQ(got, nullptr);
      } else {
        ASSERT_NE(got, nullptr);
        EXPECT_EQ(*got, best->second);
      }
    }
  }
}

}  // namespace
}  // namespace v6::net
