// Tests for the incremental TGA roster (src/service/incremental_tga.h):
// which deltas fold in place (6Hit's absorb_seeds) vs force a full
// retrain (removals, models without incremental support), the merged
// seed-ledger bookkeeping, the emitted-set preservation that makes the
// incremental path worth having — an absorbed delta must not cause the
// generator to re-emit candidates it already produced — and that the
// parallel roster drives each generator exactly as a standalone one.
#include "service/incremental_tga.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "net/ipv6.h"
#include "net/rng.h"
#include "simnet/universe.h"
#include "testutil/fixtures.h"
#include "tga/registry.h"

namespace {

using v6::net::Ipv6Addr;
using v6::service::IncrementalRoster;
using v6::service::SeedDelta;
using v6::tga::TgaKind;

/// A deterministic slice of the shared universe's hosts: realistic
/// prefix structure, no synthetic-address corner cases.
std::vector<Ipv6Addr> universe_seeds(std::size_t skip, std::size_t count) {
  const auto& hosts = v6::testutil::small_universe().hosts();
  std::vector<Ipv6Addr> seeds;
  seeds.reserve(count);
  for (std::size_t i = skip; i < hosts.size() && seeds.size() < count; ++i) {
    seeds.push_back(hosts[i].addr);
  }
  return seeds;
}

IncrementalRoster one_arm(TgaKind kind) {
  const TgaKind kinds[] = {kind};
  return IncrementalRoster(kinds, /*seed=*/7);
}

TEST(IncrementalTga, SixHitAbsorbsAdditionOnlyDeltas) {
  IncrementalRoster tga = one_arm(TgaKind::kSixHit);
  tga.prepare(universe_seeds(0, 200));

  SeedDelta delta;
  delta.added = universe_seeds(200, 40);
  tga.ingest(delta);

  EXPECT_EQ(tga.incremental_updates(), 1u);
  EXPECT_EQ(tga.full_rebuilds(), 0u);
  EXPECT_EQ(tga.seeds().size(), 240u);
}

TEST(IncrementalTga, ModelsWithoutIncrementalSupportFallBackToRebuild) {
  IncrementalRoster tga = one_arm(TgaKind::kDet);
  tga.prepare(universe_seeds(0, 200));

  SeedDelta delta;
  delta.added = universe_seeds(200, 40);
  tga.ingest(delta);

  EXPECT_EQ(tga.incremental_updates(), 0u);
  EXPECT_EQ(tga.full_rebuilds(), 1u);
  EXPECT_EQ(tga.seeds().size(), 240u);
}

TEST(IncrementalTga, RemovalsAlwaysForceARebuild) {
  IncrementalRoster tga = one_arm(TgaKind::kSixHit);
  const std::vector<Ipv6Addr> seeds = universe_seeds(0, 200);
  tga.prepare(seeds);

  SeedDelta delta;
  delta.removed = {seeds[0], seeds[1]};
  delta.added = universe_seeds(200, 10);  // rides along in the retrain
  tga.ingest(delta);

  EXPECT_EQ(tga.incremental_updates(), 0u);
  EXPECT_EQ(tga.full_rebuilds(), 1u);
  EXPECT_EQ(tga.seeds().size(), 208u);
  const auto merged = tga.seeds();
  EXPECT_EQ(std::find(merged.begin(), merged.end(), seeds[0]), merged.end());
}

TEST(IncrementalTga, DuplicateAdditionsAndUnknownRemovalsAreNoOps) {
  IncrementalRoster tga = one_arm(TgaKind::kSixHit);
  const std::vector<Ipv6Addr> seeds = universe_seeds(0, 200);
  tga.prepare(seeds);

  SeedDelta delta;
  delta.added = {seeds[3], seeds[4]};               // already known
  delta.removed = {universe_seeds(500, 1).front()};  // never a seed
  tga.ingest(delta);

  EXPECT_EQ(tga.incremental_updates(), 0u);
  EXPECT_EQ(tga.full_rebuilds(), 0u);
  EXPECT_EQ(tga.seeds().size(), 200u);

  tga.ingest(SeedDelta{});  // literally empty
  EXPECT_EQ(tga.incremental_updates(), 0u);
  EXPECT_EQ(tga.full_rebuilds(), 0u);

  // A new address listed twice in one delta is merged once.
  const Ipv6Addr fresh = universe_seeds(200, 1).front();
  SeedDelta twice;
  twice.added = {fresh, fresh};
  tga.ingest(twice);
  EXPECT_EQ(tga.incremental_updates(), 1u);
  EXPECT_EQ(tga.full_rebuilds(), 0u);
  EXPECT_EQ(tga.seeds().size(), 201u);
}

TEST(IncrementalTga, PrepareResetsTheIngestStatistics) {
  IncrementalRoster tga = one_arm(TgaKind::kSixHit);
  tga.prepare(universe_seeds(0, 200));
  SeedDelta delta;
  delta.added = universe_seeds(200, 20);
  tga.ingest(delta);
  ASSERT_EQ(tga.incremental_updates(), 1u);

  tga.prepare(universe_seeds(0, 100));
  EXPECT_EQ(tga.incremental_updates(), 0u);
  EXPECT_EQ(tga.full_rebuilds(), 0u);
  EXPECT_EQ(tga.seeds().size(), 100u);
}

// The point of absorb_seeds: the emitted set survives the delta, so
// candidates generated before the ingest are never produced again
// after it. (A full retrain wipes the emitted set — that is exactly
// the re-probing waste the incremental path avoids.)
TEST(IncrementalTga, AbsorbedDeltasDoNotCauseReEmission) {
  IncrementalRoster tga = one_arm(TgaKind::kSixHit);
  tga.prepare(universe_seeds(0, 200));

  const std::vector<Ipv6Addr> before = tga.generator(0).next_batch(500);
  ASSERT_FALSE(before.empty());

  SeedDelta delta;
  delta.added = universe_seeds(200, 40);
  tga.ingest(delta);
  ASSERT_EQ(tga.incremental_updates(), 1u);

  const std::vector<Ipv6Addr> after = tga.generator(0).next_batch(500);
  const std::unordered_set<Ipv6Addr, v6::net::Ipv6AddrHash> seen(
      before.begin(), before.end());
  for (const Ipv6Addr& addr : after) {
    EXPECT_FALSE(seen.contains(addr))
        << "re-emitted a candidate from before the ingest";
  }
}

// The roster retrains its arms in parallel over one shared ledger,
// claiming the longest retrains first. Each arm must still see exactly
// the calls a standalone generator of its kind would: prepare() on the
// merged seeds, absorb_seeds() of the new addresses where the model
// accepts them, and a full prepare() from the filtered ledger after a
// removal — all with derive_seed(seed, 0x76A0 + arm). Equal next_batch()
// output after every step shows it, for the paper's roster and for the
// reversed one, whose claim order moves 6Graph and DET from other slots.
TEST(IncrementalTga, RosterMatchesStandaloneGenerators) {
  constexpr std::uint64_t kSeed = 42;
  const std::vector<TgaKind> paper(v6::tga::kAllTgas.begin(),
                                   v6::tga::kAllTgas.end());
  const std::vector<TgaKind> reversed(paper.rbegin(), paper.rend());
  for (const std::vector<TgaKind>& kinds : {paper, reversed}) {
    SCOPED_TRACE("roster led by " +
                 std::string(v6::tga::to_string(kinds.front())));
    IncrementalRoster roster(kinds, kSeed);

    std::vector<std::unique_ptr<v6::tga::TargetGenerator>> standalone;
    std::vector<std::uint64_t> rng_seeds;
    for (std::size_t arm = 0; arm < kinds.size(); ++arm) {
      standalone.push_back(v6::tga::make_generator(kinds[arm]));
      rng_seeds.push_back(v6::net::derive_seed(kSeed, 0x76A0 + arm));
    }
    const auto expect_same_batches = [&](const char* step) {
      for (std::size_t arm = 0; arm < kinds.size(); ++arm) {
        const std::vector<Ipv6Addr> want = standalone[arm]->next_batch(1000);
        EXPECT_FALSE(want.empty()) << step << ": " << standalone[arm]->name();
        EXPECT_EQ(roster.generator(arm).next_batch(1000), want)
            << step << ": " << standalone[arm]->name();
      }
    };

    std::vector<Ipv6Addr> ledger = universe_seeds(0, 300);
    roster.prepare(ledger);
    for (std::size_t arm = 0; arm < kinds.size(); ++arm) {
      standalone[arm]->prepare(ledger, rng_seeds[arm]);
    }
    expect_same_batches("prepare");

    SeedDelta additions;
    additions.added = universe_seeds(300, 40);
    roster.ingest(additions);
    ledger.insert(ledger.end(), additions.added.begin(), additions.added.end());
    for (std::size_t arm = 0; arm < kinds.size(); ++arm) {
      if (!standalone[arm]->absorb_seeds(additions.added)) {
        standalone[arm]->prepare(ledger, rng_seeds[arm]);
      }
    }
    EXPECT_EQ(roster.incremental_updates(), 1u);  // 6Hit
    EXPECT_EQ(roster.full_rebuilds(), 7u);
    expect_same_batches("addition-only delta");

    SeedDelta removal;
    removal.removed = {ledger[5]};
    roster.ingest(removal);
    ledger.erase(ledger.begin() + 5);
    for (std::size_t arm = 0; arm < kinds.size(); ++arm) {
      standalone[arm]->prepare(ledger, rng_seeds[arm]);
    }
    EXPECT_EQ(roster.incremental_updates(), 1u);
    EXPECT_EQ(roster.full_rebuilds(), 15u);
    ASSERT_TRUE(std::equal(ledger.begin(), ledger.end(), roster.seeds().begin(),
                           roster.seeds().end()));
    expect_same_batches("removal delta");
  }
}

}  // namespace
