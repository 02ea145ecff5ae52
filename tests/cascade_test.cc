// Cascades of P1/R1 (Section 3.2, Eqs. 7-8 and 14-16) through the fused
// entry points: CascadeAnalysis for a step list, CascadeSum for the depth-k
// partial sum Pk (levels = log2 of the extent is the total aggregation
// S^m of Eq. 15), and CascadeAnalysis over every dimension's total
// aggregation for the grand total S(A) (Eq. 16).

#include "haar/cascade.h"

#include <gtest/gtest.h>

#include "cube/shape.h"
#include "cube/synthetic.h"
#include "haar/fused.h"
#include "haar/transform.h"
#include "util/rng.h"

namespace vecube {
namespace {

Tensor RandomCube(const std::vector<uint32_t>& extents, uint64_t seed) {
  auto shape = CubeShape::Make(extents);
  EXPECT_TRUE(shape.ok());
  Rng rng(seed);
  auto cube = UniformIntegerCube(*shape, &rng, -20, 20);
  EXPECT_TRUE(cube.ok());
  return std::move(cube).value();
}

// The total-aggregation steps of every dimension in `dims` (Eqs. 15-16).
std::vector<CascadeStep> TotalSteps(const Tensor& in,
                                    const std::vector<uint32_t>& dims) {
  std::vector<CascadeStep> steps;
  for (const uint32_t m : dims) {
    for (uint32_t e = in.extent(m); e > 1; e /= 2) {
      steps.push_back(CascadeStep{m, StepKind::kPartial});
    }
  }
  return steps;
}

std::vector<uint32_t> AllDims(const Tensor& in) {
  std::vector<uint32_t> all(in.ndim());
  for (uint32_t m = 0; m < in.ndim(); ++m) all[m] = m;
  return all;
}

TEST(CascadeTest, ApplyEmptyCascadeIsIdentity) {
  const Tensor in = RandomCube({4, 4}, 1);
  auto out = CascadeAnalysis(in, {});
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->ApproxEquals(in, 0.0));
}

TEST(CascadeTest, ApplyCascadeMatchesManual) {
  const Tensor in = RandomCube({4, 4}, 2);
  auto manual = PartialSum(in, 0);
  manual = PartialResidual(*manual, 1);
  auto cascade = CascadeAnalysis(in, {CascadeStep{0, StepKind::kPartial},
                                   CascadeStep{1, StepKind::kResidual}});
  ASSERT_TRUE(cascade.ok());
  EXPECT_TRUE(cascade->ApproxEquals(*manual, 0.0));
}

TEST(CascadeTest, SeparabilityAcrossDims) {
  // Eq. 14: P^m and P^n commute across dimensions (also with residuals).
  const Tensor in = RandomCube({8, 4}, 3);
  auto a = CascadeAnalysis(in, {CascadeStep{0, StepKind::kPartial},
                             CascadeStep{1, StepKind::kResidual}});
  auto b = CascadeAnalysis(in, {CascadeStep{1, StepKind::kResidual},
                             CascadeStep{0, StepKind::kPartial}});
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(a->ApproxEquals(*b, 0.0));
}

TEST(CascadeTest, DistributivityTelescopes) {
  // Eq. 8: Pk = P1 applied k times == the depth-k CascadeSum.
  const Tensor in = RandomCube({16}, 4);
  auto p1 = PartialSum(in, 0);
  auto p2 = PartialSum(*p1, 0);
  auto p3 = PartialSum(*p2, 0);
  auto pk = CascadeSum(in, 0, 3);
  ASSERT_TRUE(pk.ok());
  EXPECT_TRUE(pk->ApproxEquals(*p3, 0.0));
}

TEST(CascadeTest, PartialSumKZeroIsIdentity) {
  const Tensor in = RandomCube({8}, 5);
  auto pk = CascadeSum(in, 0, 0);
  ASSERT_TRUE(pk.ok());
  EXPECT_TRUE(pk->ApproxEquals(in, 0.0));
}

TEST(CascadeTest, PartialSumKTooDeepRejected) {
  const Tensor in = RandomCube({8}, 5);
  EXPECT_TRUE(CascadeSum(in, 0, 4).status().IsFailedPrecondition());
}

TEST(CascadeTest, TotalAggregateSumsDim) {
  const Tensor in = RandomCube({8, 4}, 6);
  auto total = CascadeSum(in, 0, 3);
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(total->extents(), (std::vector<uint32_t>{1, 4}));
  // Column sums.
  for (uint32_t j = 0; j < 4; ++j) {
    double expected = 0.0;
    for (uint32_t i = 0; i < 8; ++i) expected += in.At({i, j});
    EXPECT_DOUBLE_EQ(total->At({0, j}), expected);
  }
}

TEST(CascadeTest, TotalAggregateOfExtentOneIsIdentity) {
  const Tensor in = RandomCube({1, 4}, 7);
  auto total = CascadeAnalysis(in, TotalSteps(in, {0}));
  ASSERT_TRUE(total.ok());
  EXPECT_TRUE(total->ApproxEquals(in, 0.0));
}

TEST(CascadeTest, AggregateDimsOrderIndependent) {
  const Tensor in = RandomCube({4, 8, 2}, 8);
  auto a = CascadeAnalysis(in, TotalSteps(in, {0, 2}));
  auto b = CascadeAnalysis(in, TotalSteps(in, {2, 0}));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(a->ApproxEquals(*b, 0.0));
}

TEST(CascadeTest, GrandTotalMatchesTensorTotal) {
  const Tensor in = RandomCube({4, 4, 4}, 10);
  auto total = CascadeAnalysis(in, TotalSteps(in, AllDims(in)));
  ASSERT_TRUE(total.ok());
  EXPECT_DOUBLE_EQ((*total)[0], in.Total());
}

TEST(CascadeTest, TotalAggregationOpCount) {
  // Cascading P along a dim of extent n costs Vol/2 + Vol/4 + ... =
  // Vol - Vol/n operations.
  const Tensor in = RandomCube({16, 4}, 11);
  OpCounter ops;
  auto total = CascadeSum(in, 0, 4, &ops);
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(ops.adds, 64u - 4u);
}

TEST(CascadeTest, FullCubeAggregationOpCount) {
  // Generating the grand total costs Vol(A) - 1 adds regardless of the
  // dimension order (telescoping).
  const Tensor in = RandomCube({8, 8}, 12);
  OpCounter ops;
  auto total = CascadeAnalysis(in, TotalSteps(in, AllDims(in)), &ops);
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(ops.adds, 63u);
}

}  // namespace
}  // namespace vecube
