// Deterministic random number utilities.
//
// Every stochastic component in the library takes an explicit seed; no
// global RNG state exists. SplitMix64 is used to derive independent
// sub-seeds so that component A consuming more randomness never perturbs
// component B.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <random>

#include "net/ipv6.h"
#include "net/prefix.h"

namespace v6::net {

/// SplitMix64 step: maps a seed to a well-mixed 64-bit value. Useful for
/// deriving independent sub-seeds from (seed, index) pairs.
constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Derives a sub-seed for component `tag` from a master seed.
constexpr std::uint64_t derive_seed(std::uint64_t master, std::uint64_t tag) {
  return splitmix64(master ^ splitmix64(tag));
}

namespace detail {

/// Inverts y = x ^ (x >> k). Each iteration recovers k more high bits;
/// ceil(64 / k) + 1 rounds reach the fixpoint for any k >= 1.
constexpr std::uint64_t unxorshift(std::uint64_t y, int k) {
  std::uint64_t x = y;
  for (int recovered = k; recovered < 64; recovered += k) x = y ^ (x >> k);
  return x;
}

/// Multiplicative inverse of an odd 64-bit constant mod 2^64 via Newton
/// iteration (x *= 2 - a*x doubles the number of correct low bits; a is
/// its own inverse mod 2^3, so five rounds exceed 64 bits).
constexpr std::uint64_t mul_inverse(std::uint64_t a) {
  std::uint64_t x = a;
  for (int i = 0; i < 5; ++i) x *= 2 - a * x;
  return x;
}

}  // namespace detail

/// Exact inverse of splitmix64 — every step of the finalizer (additive
/// constant, xorshift, odd multiply) is a bijection on 64 bits. The
/// procedural universe leans on this: host addresses are *derived* from
/// dense per-subnet indices, and the probe path recovers the index from
/// an arbitrary address in O(1) instead of consulting a stored table.
constexpr std::uint64_t splitmix64_inv(std::uint64_t z) {
  z = detail::unxorshift(z, 31);
  z *= detail::mul_inverse(0x94D049BB133111EBULL);
  z = detail::unxorshift(z, 27);
  z *= detail::mul_inverse(0xBF58476D1CE4E5B9ULL);
  z = detail::unxorshift(z, 30);
  return z - 0x9E3779B97F4A7C15ULL;
}

static_assert(splitmix64_inv(splitmix64(0)) == 0);
static_assert(splitmix64_inv(splitmix64(42)) == 42);
static_assert(splitmix64_inv(splitmix64(0xFFFFFFFFFFFFFFFFULL)) ==
              0xFFFFFFFFFFFFFFFFULL);
static_assert(splitmix64(splitmix64_inv(0xDEADBEEFCAFEF00DULL)) ==
              0xDEADBEEFCAFEF00DULL);

/// The RNG engine used across the library.
using Rng = std::mt19937_64;

/// Makes an engine from a master seed and a component tag.
inline Rng make_rng(std::uint64_t master, std::uint64_t tag = 0) {
  return Rng(derive_seed(master, tag));
}

/// std::mt19937_64(seed) for engines that draw only a few values: the
/// same sequence, without seeding and twisting all 312 state words up
/// front. After seeding, output j < 156 of the standard engine is
/// temper(x[j + 156] ^ twist(x[j], x[j + 1])) over the seeded words x,
/// so the first 156 draws need the seeding recurrence only as far as
/// word j + 156. Draw 157 on hands over to a real std::mt19937_64(seed)
/// advanced by 156. The standard fixes both the seeding and the
/// generation algorithm, so the sequence is portable. Seeding a full
/// engine and drawing once costs ~2 µs; construction here seeds 157
/// words and each draw one more. Use Rng for long-lived streams.
class LazyMt64 {
 public:
  using result_type = std::uint64_t;

  explicit LazyMt64(std::uint64_t seed) : seed_(seed) {
    head_[0] = seed;
    for (std::size_t i = 1; i < head_.size(); ++i) {
      head_[i] = next_seeded(head_[i - 1], i);
    }
    far_ = head_[kShift - 1];
  }

  static constexpr result_type min() { return Rng::min(); }
  static constexpr result_type max() { return Rng::max(); }

  result_type operator()() {
    if (drawn_ < kLazyDraws) return lazy_next();
    if (!tail_.has_value()) {
      tail_.emplace(seed_);
      tail_->discard(kLazyDraws);
    }
    return (*tail_)();
  }

 private:
  static constexpr std::size_t kShift = Rng::shift_size;  // m = 156
  static constexpr std::size_t kLazyDraws = Rng::state_size - kShift;

  static constexpr std::uint64_t next_seeded(std::uint64_t prev,
                                             std::size_t i) {
    return Rng::initialization_multiplier *
               (prev ^ (prev >> (Rng::word_size - 2))) +
           i;
  }

  result_type lazy_next() {
    far_ = next_seeded(far_, drawn_ + kShift);
    constexpr std::uint64_t kUpper = ~std::uint64_t{0} << Rng::mask_bits;
    const std::uint64_t y =
        (head_[drawn_] & kUpper) | (head_[drawn_ + 1] & ~kUpper);
    std::uint64_t z = far_ ^ (y >> 1) ^ ((y & 1) ? Rng::xor_mask : 0);
    ++drawn_;
    z ^= (z >> Rng::tempering_u) & Rng::tempering_d;
    z ^= (z << Rng::tempering_s) & Rng::tempering_b;
    z ^= (z << Rng::tempering_t) & Rng::tempering_c;
    return z ^ (z >> Rng::tempering_l);
  }

  std::uint64_t seed_;
  std::size_t drawn_ = 0;
  /// Seeded words 0..156, filled by the constructor.
  std::array<std::uint64_t, kShift + 1> head_;
  /// Seeded word drawn_ + 155: the last one the recurrence reached.
  std::uint64_t far_ = 0;
  std::optional<Rng> tail_;
};

/// A counter-based SplitMix64 URBG: draw k is splitmix64(seed + k).
/// Construction is two stores (no 624-word mt19937 table), which is what
/// the streaming scanner's stateless transport needs — it builds a fresh
/// engine per probe from a (seed, addr, type, attempt) hash so every
/// reply is a pure function of the probe, independent of ordering and
/// sharding.
/// Statistically much weaker than mt19937_64 over long streams; only use
/// it where a handful of draws per seed is the pattern.
class SplitMixRng {
 public:
  using result_type = std::uint64_t;

  explicit constexpr SplitMixRng(std::uint64_t seed) : state_(seed) {}

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  constexpr result_type operator()() { return splitmix64(state_++); }

 private:
  std::uint64_t state_;
};

/// Uniform integer in [lo, hi] inclusive. Generic over the engine (same
/// contract as uniform01): instantiated with Rng it is byte-identical to
/// the historical Rng-only overload, so every legacy stream — and every
/// golden pinned to one — is untouched; instantiated with SplitMixRng it
/// powers the procedural universe's counter-keyed derivation streams.
template <typename Int, typename Urbg>
Int uniform_int(Urbg& rng, Int lo, Int hi) {
  return std::uniform_int_distribution<Int>(lo, hi)(rng);
}

/// Uniform double in [0, 1). Generic over the engine so the simulator's
/// reply model works identically from the sequential Rng stream and the
/// per-probe SplitMixRng engines.
template <typename Urbg>
double uniform01(Urbg& rng) {
  return std::uniform_real_distribution<double>(0.0, 1.0)(rng);
}

/// Bernoulli draw (generic over the engine, like uniform01).
template <typename Urbg>
bool chance(Urbg& rng, double p) {
  return uniform01(rng) < p;
}

/// A uniformly random address inside `prefix` (host bits randomized).
template <typename Urbg>
Ipv6Addr random_in_prefix(Urbg& rng, const Prefix& prefix) {
  const std::uint64_t r_hi = rng();
  const std::uint64_t r_lo = rng();
  const int len = prefix.length();
  std::uint64_t hi = prefix.addr().hi();
  std::uint64_t lo = prefix.addr().lo();
  if (len < 64) {
    const std::uint64_t host_mask = len == 0 ? ~0ULL : ~0ULL >> len;
    hi |= r_hi & host_mask;
    lo = r_lo;
  } else if (len < 128) {
    const std::uint64_t host_mask = ~0ULL >> (len - 64);
    lo |= r_lo & host_mask;
  }
  return Ipv6Addr(hi, lo);
}

}  // namespace v6::net
