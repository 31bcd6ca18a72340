// Tests for the combined multi-TGA scan (paper §4.2).
#include "experiment/combined.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <string>

#include "experiment/pipeline.h"
#include "experiment/workbench.h"
#include "net/rng.h"
#include "tga/registry.h"

namespace v6::experiment {
namespace {

using v6::net::Ipv6Addr;
using v6::net::splitmix64;

/// run_three()'s outcomes at budget 15,000 and batch 5,000: see
/// OutcomesArePinned.
constexpr std::uint64_t kPinnedCombinedDigest = 0x309163627bc89be6ULL;

Workbench& combined_bench() {
  static Workbench* bench = [] {
    WorkbenchConfig config;
    config.seed = 61;
    config.universe.seed = 61;
    config.universe.num_ases = 150;
    config.universe.host_scale = 0.1;
    config.universe.dense_region_prefix_len = 54;
    return new Workbench(config);
  }();
  return *bench;
}

CombinedResult run_three(std::uint64_t budget = 15'000, int shards = 0) {
  // The generators borrow the index, so it outlives them.
  const v6::tga::SeedIndex seeds(combined_bench().all_active());
  auto a = v6::tga::make_generator(v6::tga::TgaKind::kSixTree);
  auto b = v6::tga::make_generator(v6::tga::TgaKind::kDet);
  auto c = v6::tga::make_generator(v6::tga::TgaKind::kSixGen);
  std::vector<v6::tga::TargetGenerator*> generators = {a.get(), b.get(),
                                                       c.get()};
  return run_combined(combined_bench().universe(), generators, seeds,
                      combined_bench().alias_list(),
                      PipelineConfig{}
                          .with_budget(budget)
                          .with_batch_size(5'000)
                          .with_shards(shards));
}

TEST(CombinedScan, EveryGeneratorConsumesItsBudget) {
  const auto result = run_three();
  ASSERT_EQ(result.per_generator.size(), 3u);
  for (const auto& outcome : result.per_generator) {
    EXPECT_EQ(outcome.generated, 15'000u);
  }
  EXPECT_EQ(result.proposals, 45'000u);
}

TEST(CombinedScan, UnionIsTheUnionOfAttributedHits) {
  const auto result = run_three();
  std::unordered_set<Ipv6Addr> expected;
  for (const auto& outcome : result.per_generator) {
    expected.insert(outcome.hit_set.begin(), outcome.hit_set.end());
  }
  EXPECT_EQ(result.union_hits, expected);
  EXPECT_FALSE(result.union_hits.empty());
}

TEST(CombinedScan, DedupSavesProbes) {
  const auto result = run_three();
  // Generators overlap, so the unique scan list is smaller than the sum
  // of proposals (the point of the paper's combined methodology).
  EXPECT_LT(result.unique_scanned, result.proposals);
  EXPECT_GT(result.unique_scanned, 0u);
}

TEST(CombinedScan, AttributedOutcomesAreConsistent) {
  const auto result = run_three();
  for (const auto& outcome : result.per_generator) {
    EXPECT_EQ(outcome.responsive,
              outcome.hits() + outcome.aliases + outcome.dense_filtered);
    EXPECT_LE(outcome.ases(), std::max<std::uint64_t>(outcome.hits(), 1));
  }
}

TEST(CombinedScan, Deterministic) {
  const auto a = run_three();
  const auto b = run_three();
  EXPECT_EQ(a.union_hits, b.union_hits);
  EXPECT_EQ(a.packets, b.packets);
  for (std::size_t i = 0; i < a.per_generator.size(); ++i) {
    EXPECT_EQ(a.per_generator[i].hits(), b.per_generator[i].hits());
  }
}

std::uint64_t fold(std::uint64_t digest, std::uint64_t value) {
  return splitmix64(digest ^ value);
}

/// Folds a hit set in address order, so the digest reads no hash order.
std::uint64_t fold_hits(std::uint64_t digest,
                        const std::unordered_set<Ipv6Addr>& hits) {
  std::vector<Ipv6Addr> sorted(hits.begin(), hits.end());
  std::sort(sorted.begin(), sorted.end());
  digest = fold(digest, sorted.size());
  for (const Ipv6Addr& addr : sorted) {
    digest = fold(fold(digest, addr.hi()), addr.lo());
  }
  return digest;
}

std::uint64_t fold_ases(std::uint64_t digest,
                        const std::unordered_set<std::uint32_t>& ases) {
  std::vector<std::uint32_t> sorted(ases.begin(), ases.end());
  std::sort(sorted.begin(), sorted.end());
  digest = fold(digest, sorted.size());
  for (const std::uint32_t asn : sorted) digest = fold(digest, asn);
  return digest;
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64 "ULL", v);
  return buf;
}

/// Every generator's counts, packets, virtual seconds, hits and ASes,
/// then the union and the scan totals.
std::uint64_t outcome_digest(const CombinedResult& result) {
  std::uint64_t digest = fold(0, result.per_generator.size());
  for (const auto& outcome : result.per_generator) {
    for (const std::uint64_t field :
         {outcome.generated, outcome.unique_generated, outcome.responsive,
          outcome.aliases, outcome.dense_filtered, outcome.packets,
          std::bit_cast<std::uint64_t>(outcome.virtual_seconds)}) {
      digest = fold(digest, field);
    }
    digest = fold_ases(fold_hits(digest, outcome.hit_set), outcome.as_set);
  }
  digest = fold_ases(fold_hits(digest, result.union_hits), result.union_ases);
  for (const std::uint64_t total :
       {result.proposals, result.unique_scanned, result.packets}) {
    digest = fold(digest, total);
  }
  return digest;
}

// The other CombinedScan tests check relations between outcomes; this
// one holds the outcomes themselves. It moves only on an intentional
// behavior change; the failure message prints the new value to paste
// above.
TEST(CombinedScan, OutcomesArePinned) {
  const std::uint64_t digest = outcome_digest(run_three());
  EXPECT_EQ(digest, kPinnedCombinedDigest)
      << "combined outcomes moved; new digest " << hex(digest);
}

// `shards` reaches run_combined through its ScanRig. Without faults the
// streaming engine's replies, feedback order and virtual time do not
// depend on the shard count, so neither may any combined outcome.
TEST(CombinedScan, StreamingOutcomesAreShardCountInvariant) {
  const CombinedResult one = run_three(15'000, /*shards=*/1);
  EXPECT_FALSE(one.union_hits.empty());
  EXPECT_EQ(outcome_digest(one), outcome_digest(run_three(15'000, 3)));
}

TEST(CombinedScan, CheaperThanSeparateScans) {
  const auto combined = run_three();
  // The same three generators run separately through the pipeline.
  std::uint64_t separate_packets = 0;
  for (const auto kind : {v6::tga::TgaKind::kSixTree, v6::tga::TgaKind::kDet,
                          v6::tga::TgaKind::kSixGen}) {
    auto generator = v6::tga::make_generator(kind);
    PipelineConfig config;
    config.budget = 15'000;
    config.batch_size = 5'000;
    const auto outcome = run_tga(combined_bench().universe(), *generator,
                                 combined_bench().all_active(),
                                 combined_bench().alias_list(), config);
    separate_packets += outcome.packets;
  }
  EXPECT_LT(combined.packets, separate_packets);
}

}  // namespace
}  // namespace v6::experiment
