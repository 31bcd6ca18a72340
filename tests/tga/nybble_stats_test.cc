#include "tga/nybble_stats.h"

#include <gtest/gtest.h>

#include <cmath>

namespace v6::tga {
namespace {

TEST(NybbleHistogram, EntropyOfConstantIsZero) {
  NybbleHistogram h;
  h.count[5] = 100;
  EXPECT_DOUBLE_EQ(h.entropy(), 0.0);
  EXPECT_EQ(h.distinct(), 1);
  EXPECT_EQ(h.mode(), 5);
}

TEST(NybbleHistogram, EntropyOfUniformIsFourBits) {
  NybbleHistogram h;
  for (auto& c : h.count) c = 10;
  EXPECT_NEAR(h.entropy(), 4.0, 1e-9);
  EXPECT_EQ(h.distinct(), 16);
}

TEST(NybbleHistogram, EntropyOfFairCoinIsOneBit) {
  NybbleHistogram h;
  h.count[0] = 50;
  h.count[1] = 50;
  EXPECT_NEAR(h.entropy(), 1.0, 1e-9);
}

TEST(NybbleHistogram, EmptyHistogram) {
  const NybbleHistogram h;
  EXPECT_EQ(h.total(), 0u);
  EXPECT_DOUBLE_EQ(h.entropy(), 0.0);
}

}  // namespace
}  // namespace v6::tga
