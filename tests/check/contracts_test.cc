// Tests for the contracts layer (src/check/contracts.h). The suite is
// built in every preset: under the sanitizer presets V6_CONTRACTS is
// defined and the death tests check the abort path and diagnostic text;
// in the default build the macros must compile to nothing and must not
// evaluate their conditions.
#include "check/contracts.h"

#include <gtest/gtest.h>

namespace {

TEST(Contracts, PassingChecksAreSilent) {
  V6_REQUIRE(1 + 1 == 2);
  V6_REQUIRE_MSG(true, "fine");
  V6_ENSURE(2 > 1);
  V6_ENSURE_MSG(true, "fine");
  V6_INVARIANT(true);
  V6_INVARIANT_MSG(true, "fine");
  SUCCEED();
}

#if defined(V6_CONTRACTS)

using ContractsDeathTest = ::testing::Test;

TEST(ContractsDeathTest, RequireAbortsWithKindFileAndExpression) {
  EXPECT_DEATH(V6_REQUIRE(1 == 2),
               "precondition violated at .*contracts_test\\.cc.*1 == 2");
}

TEST(ContractsDeathTest, MessageFormsIncludeTheMessage) {
  EXPECT_DEATH(V6_REQUIRE_MSG(false, "needs p0 < p1"), "needs p0 < p1");
  EXPECT_DEATH(V6_ENSURE_MSG(false, "result out of range"),
               "postcondition.*result out of range");
  EXPECT_DEATH(V6_INVARIANT_MSG(false, "heap corrupt"),
               "invariant.*heap corrupt");
}

#else

TEST(Contracts, DisabledChecksDoNotEvaluateConditions) {
  int evaluations = 0;
  auto touch = [&evaluations] {
    ++evaluations;
    return false;
  };
  V6_REQUIRE(touch());
  V6_REQUIRE_MSG(touch(), "ignored");
  V6_ENSURE(touch());
  V6_ENSURE_MSG(touch(), "ignored");
  V6_INVARIANT(touch());
  V6_INVARIANT_MSG(touch(), "ignored");
  (void)touch;
  EXPECT_EQ(evaluations, 0);
}

#endif

}  // namespace
