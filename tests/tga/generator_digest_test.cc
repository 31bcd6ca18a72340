// Pins the exact output of every generator: one splitmix64 digest per
// TGA over a fixed generate/observe loop on the shared small universe.
// Any change to which candidates a generator emits, or in what order,
// moves its digest — the goldens only cover DET, 6Tree and 6Scan, so this
// is what holds the other generators still through refactors.
//
// A digest moves only on an intentional behavior change; the failure
// message prints the new value to paste into kPinned. The same digests
// hold when all nine generators borrow one SeedIndex and run in
// lockstep, so sharing its membership table and trees changes nothing.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "net/rng.h"
#include "tga/registry.h"
#include "tga/seed_index.h"
#include "testutil/fixtures.h"

namespace v6::tga {
namespace {

using v6::net::Ipv6Addr;
using v6::net::splitmix64;

struct Pinned {
  TgaKind kind;
  std::uint64_t digest;
};

constexpr Pinned kPinned[] = {
    {TgaKind::kSixSense, 0xa194b29fa0154da7ULL},
    {TgaKind::kDet, 0x17709d0a69a4b75dULL},
    {TgaKind::kSixTree, 0xc03c53eb5c125626ULL},
    {TgaKind::kSixScan, 0xeb12b4fe42e9362cULL},
    {TgaKind::kSixGraph, 0x7875cf64f30b3d54ULL},
    {TgaKind::kSixGen, 0x5625c5f0f4d63bb6ULL},
    {TgaKind::kSixHit, 0xd004523dc5f2a773ULL},
    {TgaKind::kEntropyIp, 0x087d8c1417150781ULL},
    {TgaKind::kSixForest, 0x05eb393ef423d07bULL},
};

std::vector<Ipv6Addr> stride_seeds(std::size_t n) {
  const auto hosts = v6::testutil::small_universe().hosts();
  std::vector<Ipv6Addr> seeds;
  const std::size_t stride = std::max<std::size_t>(1, hosts.size() / n);
  for (std::size_t i = 0; i < hosts.size() && seeds.size() < n; i += stride) {
    seeds.push_back(hosts[i].addr);
  }
  return seeds;
}

struct Loop {
  std::uint64_t digest = 0;
  std::size_t hits = 0;
};

constexpr int kRounds = 8;

/// One round: next_batch(1500), each address folded into the digest and
/// then observed with ground-truth ICMP activity (no loss draw, so the
/// feedback is a pure function of the address).
void run_round(TargetGenerator& generator, Loop& loop) {
  const auto& universe = v6::testutil::small_universe();
  const auto batch = generator.next_batch(1500);
  loop.digest = splitmix64(loop.digest ^ batch.size());
  for (const Ipv6Addr& addr : batch) {
    loop.digest = splitmix64(splitmix64(loop.digest ^ addr.hi()) ^ addr.lo());
    const bool active = universe.is_aliased(addr) ||
                        universe.host_active(addr, v6::net::ProbeType::kIcmp);
    loop.hits += active ? 1 : 0;
    generator.observe(addr, active);
  }
}

/// kRounds rounds of a generator prepared on its own.
Loop run_loop(TgaKind kind) {
  auto generator = make_generator(kind);
  generator->prepare(stride_seeds(3000), 42);
  Loop loop;
  for (int round = 0; round < kRounds; ++round) run_round(*generator, loop);
  return loop;
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64 "ULL", v);
  return buf;
}

void PrintTo(const Pinned& pinned, std::ostream* os) {
  *os << to_string(pinned.kind) << " " << hex(pinned.digest);
}

class GeneratorDigest : public ::testing::TestWithParam<Pinned> {};

TEST_P(GeneratorDigest, MatchesPinnedLoop) {
  const Pinned pinned = GetParam();
  const Loop loop = run_loop(pinned.kind);
  // Without hits the online models' feedback paths would go unpinned.
  EXPECT_GT(loop.hits, 0u) << to_string(pinned.kind);
  EXPECT_EQ(loop.digest, pinned.digest)
      << to_string(pinned.kind) << " output moved; new digest "
      << hex(loop.digest);
}

// Every generator borrows one index over the same seeds, and each round
// runs one batch of every kind in kPinned order, so each generator's
// batches interleave with the others' on the shared trees and table.
TEST(GeneratorDigestShared, AllKindsOnOneIndexMatchPinnedLoops) {
  const std::vector<Ipv6Addr> seeds = stride_seeds(3000);
  const SeedIndex index(seeds);
  std::vector<std::unique_ptr<TargetGenerator>> generators;
  for (const Pinned& pinned : kPinned) {
    generators.push_back(make_generator(pinned.kind));
    generators.back()->prepare_shared(index, 42);
  }
  // One leftmost tree (6Tree, 6Scan, 6Hit), one min-entropy tree (DET,
  // 6Graph); 6Sense and 6Forest split subsets of the seeds themselves.
  EXPECT_EQ(index.builds(), 2u);
  std::vector<Loop> loops(generators.size());
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t k = 0; k < generators.size(); ++k) {
      run_round(*generators[k], loops[k]);
    }
  }
  for (std::size_t k = 0; k < generators.size(); ++k) {
    const TgaKind kind = kPinned[k].kind;
    EXPECT_GT(loops[k].hits, 0u) << to_string(kind);
    EXPECT_EQ(loops[k].digest, kPinned[k].digest)
        << to_string(kind) << " output moved on a shared index; digest "
        << hex(loops[k].digest);
  }
}

INSTANTIATE_TEST_SUITE_P(AllTgas, GeneratorDigest,
                         ::testing::ValuesIn(kPinned), [](const auto& info) {
                           std::string name{to_string(info.param.kind)};
                           std::erase_if(name, [](char c) {
                             return !std::isalnum(c);
                           });
                           return name;
                         });

}  // namespace
}  // namespace v6::tga
