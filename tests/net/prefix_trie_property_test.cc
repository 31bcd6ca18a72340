// Property battery for net::PrefixTrie against a brute-force linear
// oracle: for random (and adversarially structured) prefix sets, the
// trie's longest_match / find / covers must agree with a direct scan of
// every inserted prefix. The trie is now on the probe hot path of the
// procedural universe (one walk per packet) and carries the alias and
// routing tables, so a silent mismatch would corrupt scan ground truth
// rather than crash.
#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "net/ipv6.h"
#include "net/prefix.h"
#include "net/prefix_trie.h"
#include "net/rng.h"

namespace v6::net {
namespace {

/// Brute-force reference: linear scan, most-specific containing prefix
/// wins; a re-inserted prefix overwrites its value (trie semantics).
class LinearOracle {
 public:
  void insert(const Prefix& prefix, int value) {
    for (auto& [p, v] : entries_) {
      if (p == prefix) {
        v = value;
        return;
      }
    }
    entries_.emplace_back(prefix, value);
  }

  std::optional<int> longest_match(const Ipv6Addr& addr,
                                   int* matched_len = nullptr) const {
    std::optional<int> best;
    int best_len = -1;
    for (const auto& [p, v] : entries_) {
      if (p.contains(addr) && p.length() > best_len) {
        best = v;
        best_len = p.length();
      }
    }
    if (best && matched_len != nullptr) *matched_len = best_len;
    return best;
  }

  std::optional<int> find(const Prefix& prefix) const {
    for (const auto& [p, v] : entries_) {
      if (p == prefix) return v;
    }
    return std::nullopt;
  }

  std::size_t size() const { return entries_.size(); }

 private:
  std::vector<std::pair<Prefix, int>> entries_;
};

void expect_agree(const PrefixTrie<int>& trie, const LinearOracle& oracle,
                  const Ipv6Addr& addr) {
  int trie_len = -1;
  int oracle_len = -1;
  const int* got = trie.longest_match(addr, trie_len);
  const std::optional<int> want = oracle.longest_match(addr, &oracle_len);
  ASSERT_EQ(got != nullptr, want.has_value()) << "coverage divergence";
  if (got != nullptr) {
    EXPECT_EQ(*got, *want);
    EXPECT_EQ(trie_len, oracle_len);
  }
  EXPECT_EQ(trie.covers(addr), want.has_value());
}

/// Addresses that stress the boundaries of `prefix`: first and last
/// address inside, and the first address just outside either edge.
std::vector<Ipv6Addr> boundary_addrs(const Prefix& prefix) {
  std::vector<Ipv6Addr> out;
  const Ipv6Addr base = prefix.addr();
  out.push_back(base);
  const int len = prefix.length();
  if (len == 0) return out;
  // Last address inside: set all host bits (len is 1..128 here).
  std::uint64_t hi = base.hi();
  std::uint64_t lo = base.lo();
  if (len < 64) {
    hi |= ~0ULL >> len;
    lo = ~0ULL;
  } else if (len == 64) {
    lo = ~0ULL;
  } else if (len < 128) {
    lo |= ~0ULL >> (len - 64);
  }
  out.push_back(Ipv6Addr(hi, lo));
  // Flip the last prefix bit: the adjacent sibling block.
  if (len <= 64) {
    out.push_back(Ipv6Addr(base.hi() ^ (1ULL << (64 - len)), base.lo()));
  } else {
    out.push_back(Ipv6Addr(base.hi(), base.lo() ^ (1ULL << (128 - len))));
  }
  return out;
}

TEST(PrefixTriePropertyTest, RandomSetsAgreeWithOracle) {
  Rng rng = make_rng(0xBEEF, /*tag=*/1);
  for (int round = 0; round < 30; ++round) {
    PrefixTrie<int> trie;
    LinearOracle oracle;
    std::vector<Prefix> inserted;

    const int n = uniform_int(rng, 1, 60);
    for (int i = 0; i < n; ++i) {
      // Clustered bases force nesting and adjacency: a few shared /24
      // roots, random length (full 0..128 span), value = i.
      const std::uint64_t root =
          static_cast<std::uint64_t>(uniform_int(rng, 0, 3)) << 40;
      const Ipv6Addr base(0x2000'0000'0000'0000ULL | root | rng(),
                          rng());
      const int len = uniform_int(rng, 0, 128);
      const Prefix p(base, len);  // constructor masks host bits
      trie.insert(p, i);
      oracle.insert(p, i);
      inserted.push_back(p);
    }
    ASSERT_EQ(trie.size(), oracle.size());

    for (const Prefix& p : inserted) {
      const std::optional<int> want = oracle.find(p);
      const int* got = trie.find(p);
      ASSERT_NE(got, nullptr);
      EXPECT_EQ(*got, *want);
      for (const Ipv6Addr& addr : boundary_addrs(p)) {
        expect_agree(trie, oracle, addr);
      }
    }
    for (int i = 0; i < 200; ++i) {
      expect_agree(trie, oracle, Ipv6Addr(rng(), rng()));
    }
  }
}

TEST(PrefixTriePropertyTest, NestedChainResolvesMostSpecific) {
  PrefixTrie<int> trie;
  LinearOracle oracle;
  // A full nesting chain /0, /1, ..., /128 over one address: every
  // length, so the chain crosses the /32, /64 and /96 boundaries.
  const Ipv6Addr target = Ipv6Addr::must_parse("2001:db8:cafe:1::42");
  for (int len = 0; len <= 128; ++len) {
    const Prefix p(target, len);
    trie.insert(p, len);
    oracle.insert(p, len);
  }
  int matched = -1;
  ASSERT_NE(trie.longest_match(target, matched), nullptr);
  EXPECT_EQ(matched, 128);
  EXPECT_EQ(*trie.longest_match(target), 128);
  // Off-chain addresses fall back to the deepest still-containing level.
  for (int len = 1; len <= 128; ++len) {
    for (const Ipv6Addr& addr : boundary_addrs(Prefix(target, len))) {
      expect_agree(trie, oracle, addr);
    }
  }
}

TEST(PrefixTriePropertyTest, AdjacentSiblingsDoNotBleed) {
  PrefixTrie<int> trie;
  LinearOracle oracle;
  // 2001:db8::/33 and 2001:db8:8000::/33 tile 2001:db8::/32 exactly.
  const Prefix left = Prefix::must_parse("2001:db8::/33");
  const Prefix right = Prefix::must_parse("2001:db8:8000::/33");
  trie.insert(left, 1);
  oracle.insert(left, 1);
  trie.insert(right, 2);
  oracle.insert(right, 2);

  EXPECT_EQ(*trie.longest_match(Ipv6Addr::must_parse("2001:db8::1")), 1);
  EXPECT_EQ(*trie.longest_match(Ipv6Addr::must_parse("2001:db8:8000::1")), 2);
  EXPECT_EQ(trie.longest_match(Ipv6Addr::must_parse("2001:db9::1")), nullptr);
  Rng rng = make_rng(0xBEEF, /*tag=*/2);
  for (int i = 0; i < 500; ++i) {
    const Ipv6Addr addr(0x2001'0db8'0000'0000ULL | (rng() >> 32), rng());
    expect_agree(trie, oracle, addr);
  }
}

TEST(PrefixTriePropertyTest, DefaultRouteAndHostRouteExtremes) {
  PrefixTrie<int> trie;
  LinearOracle oracle;
  const Prefix all = Prefix::must_parse("::/0");
  const Ipv6Addr host = Ipv6Addr::must_parse("2001:db8::7");
  const Prefix host_route(host, 128);
  trie.insert(all, 1);
  oracle.insert(all, 1);
  trie.insert(host_route, 2);
  oracle.insert(host_route, 2);

  EXPECT_EQ(*trie.longest_match(host), 2);
  EXPECT_EQ(*trie.longest_match(Ipv6Addr::must_parse("2001:db8::8")), 1);
  EXPECT_EQ(*trie.longest_match(Ipv6Addr()), 1);
  Rng rng = make_rng(0xBEEF, /*tag=*/3);
  for (int i = 0; i < 300; ++i) {
    expect_agree(trie, oracle, Ipv6Addr(rng(), rng()));
  }
}

TEST(PrefixTriePropertyTest, OverwriteSemanticsMatchOracle) {
  PrefixTrie<int> trie;
  LinearOracle oracle;
  Rng rng = make_rng(0xBEEF, /*tag=*/4);
  // Insert from a tiny prefix pool so duplicates are frequent.
  std::vector<Prefix> pool;
  for (int i = 0; i < 8; ++i) {
    pool.push_back(Prefix(Ipv6Addr(0x2000ULL << 48 | rng(), 0),
                          uniform_int(rng, 16, 64)));
  }
  for (int i = 0; i < 200; ++i) {
    const Prefix& p = pool[uniform_int<std::size_t>(rng, 0, pool.size() - 1)];
    trie.insert(p, i);
    oracle.insert(p, i);
  }
  ASSERT_EQ(trie.size(), oracle.size());
  for (const Prefix& p : pool) {
    const int* got = trie.find(p);
    const std::optional<int> want = oracle.find(p);
    ASSERT_EQ(got != nullptr, want.has_value());
    if (got != nullptr) {
      EXPECT_EQ(*got, *want);
    }
    for (const Ipv6Addr& addr : boundary_addrs(p)) {
      expect_agree(trie, oracle, addr);
    }
  }
}

}  // namespace
}  // namespace v6::net
