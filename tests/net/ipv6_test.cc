#include "net/ipv6.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <unordered_set>

#include "net/rng.h"

namespace v6::net {
namespace {

TEST(Ipv6Addr, DefaultIsUnspecified) {
  const Ipv6Addr a;
  EXPECT_EQ(a.hi(), 0u);
  EXPECT_EQ(a.lo(), 0u);
  EXPECT_EQ(a.to_string(), "::");
}

TEST(Ipv6Addr, ParseFullForm) {
  const auto a = Ipv6Addr::parse("2001:0db8:85a3:0000:0000:8a2e:0370:7334");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->hi(), 0x20010db885a30000ULL);
  EXPECT_EQ(a->lo(), 0x00008a2e03707334ULL);
}

TEST(Ipv6Addr, ParseCompressedMiddle) {
  const auto a = Ipv6Addr::parse("2001:db8::1");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->hi(), 0x20010db800000000ULL);
  EXPECT_EQ(a->lo(), 1u);
}

TEST(Ipv6Addr, ParseCompressedFront) {
  const auto a = Ipv6Addr::parse("::1");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->hi(), 0u);
  EXPECT_EQ(a->lo(), 1u);
}

TEST(Ipv6Addr, ParseCompressedBack) {
  const auto a = Ipv6Addr::parse("fe80::");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->hi(), 0xfe80000000000000ULL);
  EXPECT_EQ(a->lo(), 0u);
}

TEST(Ipv6Addr, ParseAllZero) {
  const auto a = Ipv6Addr::parse("::");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(*a, Ipv6Addr());
}

TEST(Ipv6Addr, ParseUpperCase) {
  const auto a = Ipv6Addr::parse("2001:DB8::ABCD");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->lo(), 0xABCDu);
}

TEST(Ipv6Addr, ParseStripsZoneSuffix) {
  const auto a = Ipv6Addr::parse("fe80::1%eth0");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->lo(), 1u);
}

// A std::string parameter prints by value, so the discovered ctest names
// read `Rejects/"g::1"` on every build. (A struct holding a const char*
// printed its raw bytes: the literal's ASLR-randomized address.)
class Ipv6ParseRejects : public ::testing::TestWithParam<std::string> {};

TEST_P(Ipv6ParseRejects, Rejects) {
  EXPECT_FALSE(Ipv6Addr::parse(GetParam()).has_value()) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, Ipv6ParseRejects,
    ::testing::Values("", ":", ":::",
                      "1:2:3:4:5:6:7",          // too few groups
                      "1:2:3:4:5:6:7:8:9",      // too many groups
                      "1::2::3",                // two gaps
                      "12345::",                // >4 digits
                      "g::1",                   // bad hex
                      "1:2:3:4:5:6:7:",         // trailing colon
                      "2001:db8",               // incomplete
                      "1:2:3:4:5:6:7:8:",       // trailing colon
                      "hello"));

TEST(Ipv6Addr, MustParseThrowsOnBadInput) {
  EXPECT_THROW(Ipv6Addr::must_parse("nope"), std::invalid_argument);
  EXPECT_NO_THROW(Ipv6Addr::must_parse("::1"));
}

TEST(Ipv6Addr, ToStringCompressesLongestRun) {
  EXPECT_EQ(Ipv6Addr::must_parse("2001:0:0:1:0:0:0:1").to_string(),
            "2001:0:0:1::1");
  EXPECT_EQ(Ipv6Addr::must_parse("2001:db8:0:0:1:0:0:1").to_string(),
            "2001:db8::1:0:0:1");
}

TEST(Ipv6Addr, ToStringNoCompressionOfSingleZero) {
  EXPECT_EQ(Ipv6Addr::must_parse("2001:0:1:1:1:1:1:1").to_string(),
            "2001:0:1:1:1:1:1:1");
}

TEST(Ipv6Addr, ToFullString) {
  EXPECT_EQ(Ipv6Addr::must_parse("2001:db8::1").to_full_string(),
            "2001:0db8:0000:0000:0000:0000:0000:0001");
}

TEST(Ipv6Addr, RoundTripRandomAddresses) {
  Rng rng(123);
  for (int i = 0; i < 2000; ++i) {
    const Ipv6Addr a(rng(), rng());
    const auto parsed = Ipv6Addr::parse(a.to_string());
    ASSERT_TRUE(parsed.has_value()) << a.to_string();
    EXPECT_EQ(*parsed, a) << a.to_string();
    const auto parsed_full = Ipv6Addr::parse(a.to_full_string());
    ASSERT_TRUE(parsed_full.has_value());
    EXPECT_EQ(*parsed_full, a);
  }
}

TEST(Ipv6Addr, NybbleIndexing) {
  const Ipv6Addr a = Ipv6Addr::must_parse("0123:4567:89ab:cdef:0123:4567:89ab:cdef");
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(a.nybble(i), i) << i;
    EXPECT_EQ(a.nybble(16 + i), i) << i;
  }
}

TEST(Ipv6Addr, WithNybbleRoundTrip) {
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const Ipv6Addr a(rng(), rng());
    const int pos = static_cast<int>(rng() % 32);
    const std::uint8_t v = static_cast<std::uint8_t>(rng() & 0xF);
    const Ipv6Addr b = a.with_nybble(pos, v);
    EXPECT_EQ(b.nybble(pos), v);
    for (int other = 0; other < 32; ++other) {
      if (other != pos) {
        EXPECT_EQ(b.nybble(other), a.nybble(other));
      }
    }
  }
}

TEST(Ipv6Addr, BitIndexing) {
  const Ipv6Addr a(0x8000000000000000ULL, 1);
  EXPECT_TRUE(a.bit(0));
  EXPECT_FALSE(a.bit(1));
  EXPECT_TRUE(a.bit(127));
  EXPECT_FALSE(a.bit(126));
}

TEST(Ipv6Addr, MaskedClearsHostBits) {
  const Ipv6Addr a = Ipv6Addr::must_parse("2001:db8:ffff:ffff:ffff:ffff:ffff:ffff");
  EXPECT_EQ(a.masked(32), Ipv6Addr::must_parse("2001:db8::"));
  EXPECT_EQ(a.masked(64), Ipv6Addr::must_parse("2001:db8:ffff:ffff::"));
  EXPECT_EQ(a.masked(96),
            Ipv6Addr::must_parse("2001:db8:ffff:ffff:ffff:ffff::"));
  EXPECT_EQ(a.masked(128), a);
  EXPECT_EQ(a.masked(0), Ipv6Addr());
}

TEST(Ipv6Addr, MaskedIsIdempotent) {
  Rng rng(9);
  for (int trial = 0; trial < 300; ++trial) {
    const Ipv6Addr a(rng(), rng());
    const int len = static_cast<int>(rng() % 129);
    EXPECT_EQ(a.masked(len).masked(len), a.masked(len));
  }
}

TEST(Ipv6Addr, OrderingIsLexicographicOnBytes) {
  EXPECT_LT(Ipv6Addr::must_parse("2001::"), Ipv6Addr::must_parse("2002::"));
  EXPECT_LT(Ipv6Addr::must_parse("2001::1"), Ipv6Addr::must_parse("2001::2"));
  EXPECT_LT(Ipv6Addr::must_parse("::ffff"), Ipv6Addr::must_parse("1::"));
}

TEST(Ipv6Addr, HashSpreadsOverBuckets) {
  // Sequential addresses (the common counter pattern) must not collide.
  std::unordered_set<std::size_t> hashes;
  const Ipv6Addr base = Ipv6Addr::must_parse("2001:db8::");
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    hashes.insert(Ipv6AddrHash{}(Ipv6Addr(base.hi(), i)));
  }
  EXPECT_GT(hashes.size(), 9'990u);
}

}  // namespace
}  // namespace v6::net
