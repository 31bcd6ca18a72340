// Exactness oracle for DET's and 6Hit's region selection. Both pick the
// region for their next chunk as an argmax over every region: DET by UCB
// score, 6Hit (on its greedy draws) by Q-value, the lowest region index
// winning a tie. The generators answer that argmax without scanning all
// regions; this file keeps test-only copies of the linear-scan
// generators as oracles, drives each pair with identical seeds and
// identical observe() feedback, and asserts that every batch is equal.
//
// The oracles also keep their own address -> region map of pending
// feedback, so they pin the generators' route table (emit() and
// take_route() in TargetGeneratorBase): feedback for an address observed
// already, never emitted, or emitted before a 6Hit tree rebuild must
// change nothing. 6Scan and 6Sense have no oracle; a twin that hears no
// such feedback stands in for one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/rng.h"
#include "tga/det.h"
#include "tga/max_tournament.h"
#include "tga/six_hit.h"
#include "tga/six_scan.h"
#include "tga/six_sense.h"
#include "tga/space_tree.h"
#include "testutil/fixtures.h"

namespace v6::tga {
namespace {

using v6::net::Ipv6Addr;

// ---- Oracles: DET and 6Hit with a linear scan per selection ------------

class LinearDet final : public TargetGeneratorBase {
 public:
  explicit LinearDet(const Det::Options& options) : options_(options) {}

  std::string_view name() const override { return "DET"; }
  bool is_online() const override { return true; }

  std::vector<Ipv6Addr> next_batch(std::size_t n) override {
    std::vector<Ipv6Addr> out;
    out.reserve(n);
    if (regions_.empty()) return out;
    std::size_t consecutive_failures = 0;
    while (out.size() < n && consecutive_failures < regions_.size() + 8) {
      std::size_t best = 0;
      double best_score = -2.0;
      for (std::size_t i = 0; i < regions_.size(); ++i) {
        const double s = score(regions_[i]);
        if (s > best_score) {
          best_score = s;
          best = i;
        }
      }
      Region& region = regions_[best];
      if (region.dead) break;
      std::uint64_t taken = 0;
      while (taken < options_.chunk && out.size() < n) {
        auto addr = region.cursor.next();
        if (!addr) {
          if (!region.cursor.extend()) region.dead = true;
          break;
        }
        ++region.emitted;
        ++total_emitted_;
        if (emit(*addr, out)) {
          pending_.emplace(*addr, static_cast<std::uint32_t>(best));
          ++taken;
        }
      }
      consecutive_failures = taken == 0 ? consecutive_failures + 1 : 0;
    }
    return out;
  }

  void observe(const Ipv6Addr& addr, bool active) override {
    const auto it = pending_.find(addr);
    if (it == pending_.end()) return;
    if (active) regions_[it->second].seed_mass += options_.hit_weight;
    pending_.erase(it);
  }

 protected:
  void reset_model() override {
    regions_.clear();
    pending_.clear();
    total_emitted_ = 0;
    SpaceTree tree(seeds(), {.policy = SplitPolicy::kMinEntropy,
                             .max_leaf_seeds = options_.max_leaf_seeds,
                             .max_free = options_.max_free});
    for (const TreeRegion& r : tree.regions()) {
      Region region;
      region.cursor = RegionCursor(r.base, r.free);
      region.seed_mass = static_cast<double>(r.seed_count);
      regions_.push_back(std::move(region));
    }
  }

 private:
  struct Region {
    RegionCursor cursor;
    double seed_mass = 0.0;
    std::uint64_t emitted = 0;
    bool dead = false;
  };

  double score(const Region& r) const {
    if (r.dead) return -1.0;
    const double exploit =
        r.seed_mass / static_cast<double>(r.emitted + 16);
    const double explore =
        options_.exploration *
        std::sqrt(std::log(static_cast<double>(total_emitted_ + 2)) /
                  static_cast<double>(r.emitted + 1));
    return exploit + explore;
  }

  Det::Options options_;
  std::vector<Region> regions_;
  std::unordered_map<Ipv6Addr, std::uint32_t> pending_;
  std::uint64_t total_emitted_ = 0;
};

class LinearSixHit final : public TargetGeneratorBase {
 public:
  explicit LinearSixHit(const SixHit::Options& options) : options_(options) {}

  std::string_view name() const override { return "6Hit"; }
  bool is_online() const override { return true; }

  bool absorb_seeds(std::span<const Ipv6Addr> added) override {
    if (absorb_into_index(added) == 0) return true;
    rebuild();
    return true;
  }

  std::vector<Ipv6Addr> next_batch(std::size_t n) override {
    std::vector<Ipv6Addr> out;
    out.reserve(n);
    if (regions_.empty()) return out;
    if (hits_since_rebuild_ >= options_.rebuild_after_hits) rebuild();
    std::size_t consecutive_failures = 0;
    while (out.size() < n && consecutive_failures < regions_.size() + 8) {
      std::size_t pick;
      if (v6::net::chance(rng_, options_.epsilon)) {
        pick = v6::net::uniform_int<std::size_t>(rng_, 0, regions_.size() - 1);
      } else {
        pick = 0;
        double best = -1.0;
        for (std::size_t i = 0; i < regions_.size(); ++i) {
          if (regions_[i].dead) continue;
          if (regions_[i].q > best) {
            best = regions_[i].q;
            pick = i;
          }
        }
      }
      Region& region = regions_[pick];
      if (region.dead) {
        ++consecutive_failures;
        continue;
      }
      std::uint64_t taken = 0;
      while (taken < options_.chunk && out.size() < n) {
        auto addr = region.cursor.next();
        if (!addr) {
          if (!region.cursor.extend()) {
            region.dead = true;
          } else {
            region.q *= 0.5;
          }
          break;
        }
        if (emit(*addr, out)) {
          pending_.emplace(*addr, static_cast<std::uint32_t>(pick));
          ++taken;
        }
      }
      consecutive_failures = taken == 0 ? consecutive_failures + 1 : 0;
    }
    return out;
  }

  void observe(const Ipv6Addr& addr, bool active) override {
    const auto it = pending_.find(addr);
    if (it == pending_.end()) return;
    Region& region = regions_[it->second];
    const double reward = active ? 1.0 : 0.0;
    region.q += options_.learning_rate * (reward - region.q);
    if (active) {
      discovered_.push_back(addr);
      ++hits_since_rebuild_;
    }
    pending_.erase(it);
  }

 protected:
  void reset_model() override {
    pending_.clear();
    discovered_.clear();
    hits_since_rebuild_ = 0;
    build_tree(seeds());
  }

 private:
  struct Region {
    RegionCursor cursor;
    double q = 0.0;
    bool dead = false;
  };

  void rebuild() {
    std::vector<Ipv6Addr> combined(seeds().begin(), seeds().end());
    combined.insert(combined.end(), discovered_.begin(), discovered_.end());
    pending_.clear();
    build_tree(combined);
    hits_since_rebuild_ = 0;
  }

  void build_tree(std::span<const Ipv6Addr> from) {
    regions_.clear();
    SpaceTree tree(from, {.policy = SplitPolicy::kLeftmost,
                          .max_leaf_seeds = options_.max_leaf_seeds,
                          .max_free = options_.max_free});
    double max_density = 0.0;
    for (const TreeRegion& r : tree.regions()) {
      max_density = std::max(max_density, r.density);
    }
    for (const TreeRegion& r : tree.regions()) {
      Region region;
      region.cursor = RegionCursor(r.base, r.free);
      region.q =
          0.2 + (max_density > 0 ? 0.3 * r.density / max_density : 0.0);
      regions_.push_back(std::move(region));
    }
  }

  SixHit::Options options_;
  std::vector<Region> regions_;
  std::unordered_map<Ipv6Addr, std::uint32_t> pending_;
  std::vector<Ipv6Addr> discovered_;
  std::uint64_t hits_since_rebuild_ = 0;
};

// ---- Harness -------------------------------------------------------------

using Feedback = std::function<bool(const Ipv6Addr&)>;

/// Ground-truth ICMP activity in the shared small universe.
bool universe_active(const Ipv6Addr& addr) {
  const auto& universe = v6::testutil::small_universe();
  return universe.is_aliased(addr) ||
         universe.host_active(addr, v6::net::ProbeType::kIcmp);
}

/// A pseudo-random one-in-five hit rate keyed on the address alone.
bool hashed_active(const Ipv6Addr& addr) {
  return v6::net::splitmix64(addr.hi() ^ v6::net::splitmix64(addr.lo())) %
             5 ==
         0;
}

bool never_active(const Ipv6Addr&) { return false; }

bool always_active(const Ipv6Addr&) { return true; }

/// Addresses no generator emits from `seeds`: two seeds and an address
/// outside 2001::/16, where every test seed lives.
std::vector<Ipv6Addr> never_emitted(std::span<const Ipv6Addr> seeds) {
  return {seeds[0], seeds[1], Ipv6Addr(0x3fff000000000000ULL, 1)};
}

/// One generator under test next to its oracle, fed the same calls.
struct Pair {
  std::unique_ptr<TargetGenerator> fast;
  std::unique_ptr<TargetGenerator> oracle;

  static Pair det(const Det::Options& options) {
    return {std::make_unique<Det>(options),
            std::make_unique<LinearDet>(options)};
  }
  static Pair six_hit(const SixHit::Options& options) {
    return {std::make_unique<SixHit>(options),
            std::make_unique<LinearSixHit>(options)};
  }

  void prepare(std::span<const Ipv6Addr> seeds, std::uint64_t rng_seed) {
    fast->prepare(seeds, rng_seed);
    oracle->prepare(seeds, rng_seed);
  }

  void absorb(std::span<const Ipv6Addr> added) {
    ASSERT_EQ(fast->absorb_seeds(added), oracle->absorb_seeds(added));
  }

  /// Requests `n` addresses from both and expects equal batches. Returns
  /// the batch, or nullopt when the two differ.
  std::optional<std::vector<Ipv6Addr>> next(std::size_t n,
                                            std::size_t round = 0) {
    auto got = fast->next_batch(n);
    const auto want = oracle->next_batch(n);
    const auto [g, w] =
        std::mismatch(got.begin(), got.end(), want.begin(), want.end());
    EXPECT_TRUE(g == got.end() && w == want.end())
        << fast->name() << " round " << round << ": batches of "
        << got.size() << " and " << want.size() << " first differ at "
        << (g - got.begin()) << " ("
        << (g == got.end() ? "end" : g->to_string()) << " vs "
        << (w == want.end() ? "end" : w->to_string()) << ")";
    if (got != want) return std::nullopt;
    return got;
  }

  /// Feeds `active` back to both for each of `addrs`.
  void observe(std::span<const Ipv6Addr> addrs, const Feedback& active) {
    for (const Ipv6Addr& addr : addrs) {
      const bool hit = active(addr);
      fast->observe(addr, hit);
      oracle->observe(addr, hit);
    }
  }

  /// Requests each size in turn, asserts the two batches are equal, then
  /// feeds `active` back to both. Returns the total generated.
  std::size_t run(const std::vector<std::size_t>& sizes,
                  const Feedback& active) {
    std::size_t generated = 0;
    for (std::size_t round = 0; round < sizes.size(); ++round) {
      const auto batch = next(sizes[round], round);
      if (!batch.has_value()) return generated;
      observe(*batch, active);
      generated += batch->size();
    }
    return generated;
  }

  /// run(), but after each batch's feedback both also hear it again, all
  /// active, and hear about addresses they never emitted: every batch
  /// must still match the oracle's.
  void run_with_stray_feedback(const std::vector<std::size_t>& sizes,
                               std::span<const Ipv6Addr> seeds) {
    for (std::size_t round = 0; round < sizes.size(); ++round) {
      const auto batch = next(sizes[round], round);
      if (!batch.has_value()) return;
      observe(*batch, hashed_active);
      observe(*batch, always_active);
      observe(never_emitted(seeds), always_active);
    }
  }
};

std::vector<std::size_t> mixed_sizes(std::size_t rounds) {
  // Odd sizes end batches mid-chunk, so a selection's leftover budget
  // carries into the next batch.
  static constexpr std::size_t kSizes[] = {1, 7, 500, 31, 2048, 333, 64, 1000};
  std::vector<std::size_t> sizes;
  for (std::size_t i = 0; i < rounds; ++i) {
    sizes.push_back(kSizes[i % std::size(kSizes)]);
  }
  return sizes;
}

/// `n` hosts of the small universe drawn at random with `rng_seed`.
std::vector<Ipv6Addr> sampled_seeds(std::size_t n, std::uint64_t rng_seed) {
  const auto hosts = v6::testutil::small_universe().hosts();
  v6::net::Rng rng(rng_seed);
  std::vector<Ipv6Addr> seeds;
  seeds.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    seeds.push_back(
        hosts[v6::net::uniform_int<std::size_t>(rng, 0, hosts.size() - 1)]
            .addr);
  }
  return seeds;
}

/// `prefixes` /64s holding the same `per_prefix` interface ids each: with
/// small leaves every region has the same seed count, so initial scores
/// tie exactly and only the index orders them.
std::vector<Ipv6Addr> tied_seeds(std::uint64_t prefixes,
                                 std::uint64_t per_prefix) {
  std::vector<Ipv6Addr> seeds;
  for (std::uint64_t p = 0; p < prefixes; ++p) {
    for (std::uint64_t h = 1; h <= per_prefix; ++h) {
      seeds.emplace_back(0x20010db800000000ULL | (p << 8), h * 0x11);
    }
  }
  return seeds;
}

/// Pairs of seeds one nybble apart under distinct /124s: each leaf's
/// region spans 16 addresses, drains within one chunk and must widen.
std::vector<Ipv6Addr> tight_seeds(std::uint64_t groups) {
  std::vector<Ipv6Addr> seeds;
  for (std::uint64_t g = 0; g < groups; ++g) {
    const std::uint64_t hi = 0x2001db8000000000ULL | (g * 0x9E3779B9ULL >> 8);
    seeds.emplace_back(hi, (g << 8) | 0x3);
    seeds.emplace_back(hi, (g << 8) | 0x9);
  }
  return seeds;
}

// ---- DET -----------------------------------------------------------------

TEST(DetSelection, MatchesLinearScanOnUniverseSamples) {
  for (const std::uint64_t rng_seed : {1u, 2u, 3u, 4u, 5u}) {
    SCOPED_TRACE(rng_seed);
    Pair pair = Pair::det({});
    pair.prepare(sampled_seeds(4000, rng_seed), rng_seed);
    const auto sizes = mixed_sizes(48);
    EXPECT_EQ(pair.run(sizes, universe_active),
              std::accumulate(sizes.begin(), sizes.end(), std::size_t{0}));
  }
}

TEST(DetSelection, LowestIndexWinsExactTies) {
  for (const std::uint32_t leaf : {1u, 2u, 4u}) {
    SCOPED_TRACE(leaf);
    for (const Feedback& active : {Feedback(never_active),
                                   Feedback(hashed_active)}) {
      Pair pair = Pair::det({.max_leaf_seeds = leaf});
      pair.prepare(tied_seeds(700, 4), 9);
      pair.run(mixed_sizes(16), active);
    }
  }
}

TEST(DetSelection, RoundedAndCrossGroupTiesPickLowestIndex) {
  // With no exploration bonus, regions of different emitted counts tie
  // whenever their exploit terms coincide (1/16 == 3/48). With a huge
  // bonus, every exploit term is lost to rounding and a whole group ties.
  // Either way the best region is not the first one a group offers.
  for (const double exploration : {0.0, 1e17}) {
    SCOPED_TRACE(exploration);
    for (const Feedback& active : {Feedback(never_active),
                                   Feedback(hashed_active)}) {
      Pair pair = Pair::det({.max_leaf_seeds = 4, .exploration = exploration});
      pair.prepare(sampled_seeds(600, 31), 31);
      pair.run(mixed_sizes(40), active);
    }
  }
}

TEST(DetSelection, DrainingAndWideningRegionsMatch) {
  Pair pair = Pair::det({.max_leaf_seeds = 2, .max_free = 1});
  pair.prepare(tight_seeds(400), 3);
  pair.run(mixed_sizes(24), hashed_active);
}

TEST(DetSelection, SmallChunksAndHeavyHitsMatch) {
  Pair pair = Pair::det({.chunk = 3, .exploration = 0.05, .hit_weight = 9.0});
  pair.prepare(sampled_seeds(2000, 11), 11);
  pair.run(mixed_sizes(16), hashed_active);
}

TEST(DetSelection, RepeatedAndUnknownFeedbackIsIgnored) {
  Pair pair = Pair::det({});
  const auto seeds = sampled_seeds(3000, 41);
  pair.prepare(seeds, 41);
  pair.run_with_stray_feedback(mixed_sizes(16), seeds);
}

TEST(DetSelection, ExhaustedModelYieldsEmptyBatches) {
  Pair pair = Pair::det({});
  pair.prepare({}, 1);
  EXPECT_EQ(pair.run({0, 1, 100}, hashed_active), 0u);
  pair.prepare(tied_seeds(10, 2), 1);
  EXPECT_EQ(pair.run({0}, hashed_active), 0u);
}

// ---- 6Hit ----------------------------------------------------------------

TEST(SixHitSelection, MatchesLinearScanOnUniverseSamples) {
  for (const std::uint64_t rng_seed : {1u, 2u, 3u, 4u, 5u}) {
    SCOPED_TRACE(rng_seed);
    Pair pair = Pair::six_hit({});
    pair.prepare(sampled_seeds(4000, rng_seed), rng_seed);
    const auto sizes = mixed_sizes(48);
    EXPECT_EQ(pair.run(sizes, universe_active),
              std::accumulate(sizes.begin(), sizes.end(), std::size_t{0}));
  }
}

TEST(SixHitSelection, LowestIndexWinsExactTies) {
  for (const double epsilon : {0.0, 0.3}) {
    SCOPED_TRACE(epsilon);
    for (const Feedback& active : {Feedback(never_active),
                                   Feedback(hashed_active)}) {
      Pair pair = Pair::six_hit({.max_leaf_seeds = 2, .epsilon = epsilon});
      pair.prepare(tied_seeds(700, 4), 9);
      pair.run(mixed_sizes(16), active);
    }
  }
}

TEST(SixHitSelection, DrainingWideningAndRebuildsMatch) {
  // Small regions drain and widen (the 0.5x discount); a low rebuild
  // threshold recreates the tree several times mid-run.
  Pair pair = Pair::six_hit(
      {.max_leaf_seeds = 2, .max_free = 1, .rebuild_after_hits = 300});
  pair.prepare(tight_seeds(400), 3);
  pair.run(mixed_sizes(24), hashed_active);
}

TEST(SixHitSelection, AbsorbedSeedsRebuildTheSameWay) {
  Pair pair = Pair::six_hit({});
  pair.prepare(sampled_seeds(3000, 21), 21);
  pair.run(mixed_sizes(8), universe_active);
  pair.absorb(sampled_seeds(1000, 22));
  pair.run(mixed_sizes(8), universe_active);
  pair.absorb(sampled_seeds(10, 21));  // nothing new
  pair.run(mixed_sizes(8), universe_active);
}

TEST(SixHitSelection, RepeatedAndUnknownFeedbackIsIgnored) {
  Pair pair = Pair::six_hit({});
  const auto seeds = sampled_seeds(3000, 43);
  pair.prepare(seeds, 43);
  pair.run_with_stray_feedback(mixed_sizes(16), seeds);
}

TEST(SixHitSelection, FeedbackFromBeforeARebuildIsDropped) {
  // Region indices name a tree's leaves, so a rebuild drops every route
  // not yet taken: feedback held back across one must change nothing.
  Pair pair = Pair::six_hit({.rebuild_after_hits = 40});
  pair.prepare(sampled_seeds(3000, 47), 47);
  const auto held = pair.next(500);
  ASSERT_TRUE(held.has_value());
  const std::span<const Ipv6Addr> first(held->data(), 250);
  const std::span<const Ipv6Addr> rest(held->data() + 250, held->size() - 250);
  pair.observe(first, always_active);  // 250 hits: the next batch rebuilds
  const auto rebuilt = pair.next(200, 1);
  ASSERT_TRUE(rebuilt.has_value());
  pair.observe(rest, always_active);
  pair.observe(*rebuilt, hashed_active);
  ASSERT_TRUE(pair.next(300, 2).has_value());

  // A seed delta rebuilds the tree too.
  const auto before_absorb = pair.next(400, 3);
  ASSERT_TRUE(before_absorb.has_value());
  pair.absorb(sampled_seeds(500, 48));
  pair.observe(*before_absorb, always_active);
  pair.run(mixed_sizes(8), hashed_active);
}

TEST(SixHitSelection, ExhaustedModelYieldsEmptyBatches) {
  Pair pair = Pair::six_hit({});
  pair.prepare({}, 1);
  EXPECT_EQ(pair.run({0, 1, 100}, hashed_active), 0u);
  pair.prepare(tied_seeds(10, 2), 1);
  EXPECT_EQ(pair.run({0}, hashed_active), 0u);
}

// ---- 6Scan and 6Sense: stray feedback against a twin --------------------

/// Drives two generators of one kind with the same seeds, batches and
/// feedback, except that `noisy` also hears each batch again, all
/// active, and addresses it never emitted. Its route table must ignore
/// both, so every batch must equal its twin's.
template <typename Generator>
void expect_stray_feedback_ignored(std::span<const Ipv6Addr> seeds) {
  Generator noisy;
  Generator quiet;
  noisy.prepare(seeds, 5);
  quiet.prepare(seeds, 5);
  const auto sizes = mixed_sizes(16);
  for (std::size_t round = 0; round < sizes.size(); ++round) {
    const auto batch = noisy.next_batch(sizes[round]);
    ASSERT_EQ(batch, quiet.next_batch(sizes[round])) << "round " << round;
    for (const Ipv6Addr& addr : batch) {
      const bool hit = hashed_active(addr);
      noisy.observe(addr, hit);
      quiet.observe(addr, hit);
    }
    for (const Ipv6Addr& addr : batch) noisy.observe(addr, true);
    for (const Ipv6Addr& addr : never_emitted(seeds)) noisy.observe(addr, true);
  }
}

TEST(SixScanSelection, RepeatedAndUnknownFeedbackIsIgnored) {
  expect_stray_feedback_ignored<SixScan>(sampled_seeds(3000, 51));
}

TEST(SixSenseSelection, RepeatedAndUnknownFeedbackIsIgnored) {
  expect_stray_feedback_ignored<SixSense>(sampled_seeds(3000, 53));
}

#if defined(V6_CONTRACTS)
/// Files kNoRoute as a feedback route, which emit() must refuse: it is
/// what take_route() reads as "no route".
class NoRouteFiler final : public TargetGeneratorBase {
 public:
  std::string_view name() const override { return "NoRouteFiler"; }
  std::vector<Ipv6Addr> next_batch(std::size_t) override {
    std::vector<Ipv6Addr> out;
    emit(Ipv6Addr(0x3fff000000000000ULL, 1), out, kNoRoute);
    return out;
  }

 protected:
  void reset_model() override {}
};

TEST(RouteTableDeathTest, NoRouteCannotBeFiled) {
  NoRouteFiler generator;
  generator.prepare({}, 1);
  EXPECT_DEATH(generator.next_batch(1), "kNoRoute cannot be a feedback route");
}
#endif

// ---- 6Hit's tournament tree on its own ----------------------------------

/// The linear scan the tree replaces: strict `>`, so the lowest index
/// wins a tie and index 0 wins when nothing beats kOut.
std::size_t linear_argmax(const std::vector<double>& keys) {
  std::size_t pick = 0;
  double best = MaxTournament::kOut;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (keys[i] > best) {
      best = keys[i];
      pick = i;
    }
  }
  return pick;
}

TEST(MaxTournamentTree, MatchesLinearArgmaxUnderUpdates) {
  v6::net::Rng rng(17);
  for (const std::size_t n : {1u, 2u, 3u, 5u, 64u, 1000u, 1025u}) {
    SCOPED_TRACE(n);
    // Keys from a small set, a quarter of them out: ties everywhere.
    const auto draw = [&rng] {
      const auto v = v6::net::uniform_int<int>(rng, 0, 7);
      return v < 2 ? MaxTournament::kOut : 0.125 * v;
    };
    std::vector<double> keys(n);
    for (double& key : keys) key = draw();
    MaxTournament tree;
    tree.assign(n, [&keys](std::size_t i) { return keys[i]; });
    ASSERT_EQ(tree.winner(), linear_argmax(keys));
    for (int step = 0; step < 3000; ++step) {
      const auto i = v6::net::uniform_int<std::size_t>(rng, 0, n - 1);
      keys[i] = draw();
      tree.set(i, keys[i]);
      ASSERT_EQ(tree.winner(), linear_argmax(keys)) << "step " << step;
    }
  }
}

TEST(MaxTournamentTree, NoContenderMeansIndexZero) {
  MaxTournament tree;
  EXPECT_EQ(tree.winner(), 0u);
  tree.assign(0, [](std::size_t) { return 1.0; });
  EXPECT_EQ(tree.winner(), 0u);
  tree.assign(6, [](std::size_t i) { return 0.1 * static_cast<double>(i); });
  EXPECT_EQ(tree.winner(), 5u);
  for (std::size_t i = 6; i-- > 0;) tree.set(i, MaxTournament::kOut);
  EXPECT_EQ(tree.winner(), 0u);
  tree.set(3, 0.0);
  EXPECT_EQ(tree.winner(), 3u);
}

}  // namespace
}  // namespace v6::tga
