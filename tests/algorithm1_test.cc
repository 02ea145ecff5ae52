#include "select/algorithm1.h"

#include <gtest/gtest.h>

#include <limits>

#include "core/basis.h"
#include "core/graph.h"
#include "oracle/tilings.h"
#include "select/pair_cost.h"
#include "util/rng.h"

namespace vecube {
namespace {

CubeShape Shape(std::vector<uint32_t> extents) {
  auto s = CubeShape::Make(std::move(extents));
  EXPECT_TRUE(s.ok());
  return *s;
}

TEST(Algorithm1Test, ReturnsNonRedundantBasis) {
  const CubeShape shape = Shape({4, 4});
  Rng rng(1);
  auto pop = RandomViewPopulation(shape, &rng);
  auto selection = SelectMinCostBasis(shape, *pop);
  ASSERT_TRUE(selection.ok());
  EXPECT_TRUE(IsNonRedundantBasis(selection->basis, shape));
}

TEST(Algorithm1Test, PredictedCostMatchesPairModel) {
  const CubeShape shape = Shape({4, 4});
  Rng rng(2);
  auto pop = RandomViewPopulation(shape, &rng);
  auto selection = SelectMinCostBasis(shape, *pop);
  ASSERT_TRUE(selection.ok());
  EXPECT_NEAR(selection->predicted_cost,
              PopulationPairCost(selection->basis, *pop, shape), 1e-9);
}

TEST(Algorithm1Test, OptimalOverAllGuillotineTilings) {
  for (const auto& extents :
       {std::vector<uint32_t>{4}, std::vector<uint32_t>{8},
        std::vector<uint32_t>{2, 2}, std::vector<uint32_t>{4, 2}}) {
    const CubeShape shape = Shape(extents);
    for (uint64_t seed : {11u, 12u, 13u}) {
      Rng rng(seed);
      auto pop = RandomViewPopulation(shape, &rng);
      auto selection = SelectMinCostBasis(shape, *pop);
      ASSERT_TRUE(selection.ok());

      std::vector<std::vector<ElementId>> tilings;
      EnumerateTilings(ElementId::Root(shape.ndim()), shape, &tilings);
      double best = std::numeric_limits<double>::infinity();
      for (const auto& tiling : tilings) {
        best = std::min(best, PopulationPairCost(tiling, *pop, shape));
      }
      EXPECT_NEAR(selection->predicted_cost, best, 1e-9)
          << shape.ToString() << " seed " << seed;
    }
  }
}

TEST(Algorithm1Test, NeverWorseThanCubeOrWavelet) {
  // "the view element method is guaranteed [to] have a lower processing
  // cost than these methods since the view element graph is a superset".
  const CubeShape shape = Shape({4, 4, 4});
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(seed);
    auto pop = RandomViewPopulation(shape, &rng);
    auto selection = SelectMinCostBasis(shape, *pop);
    ASSERT_TRUE(selection.ok());
    const double cube_cost =
        PopulationPairCost(CubeOnlySet(shape), *pop, shape);
    const double wavelet_cost =
        PopulationPairCost(WaveletBasisSet(shape), *pop, shape);
    EXPECT_LE(selection->predicted_cost, cube_cost + 1e-9);
    EXPECT_LE(selection->predicted_cost, wavelet_cost + 1e-9);
  }
}

TEST(Algorithm1Test, SingleHotViewGetsMaterialized) {
  // If one aggregated view takes all the traffic, the optimal basis makes
  // it free (the view is in the selected set).
  const CubeShape shape = Shape({8, 8});
  auto hot = ElementId::AggregatedView(0b01, shape);
  auto pop = FixedPopulation({{*hot, 1.0}}, shape);
  auto selection = SelectMinCostBasis(shape, *pop);
  ASSERT_TRUE(selection.ok());
  EXPECT_NE(std::find(selection->basis.begin(), selection->basis.end(), *hot),
            selection->basis.end());
  EXPECT_DOUBLE_EQ(selection->predicted_cost, 0.0);
}

TEST(Algorithm1Test, RootOnlyWorkloadKeepsCube) {
  const CubeShape shape = Shape({4, 4});
  auto pop = FixedPopulation({{ElementId::Root(2), 1.0}}, shape);
  auto selection = SelectMinCostBasis(shape, *pop);
  ASSERT_TRUE(selection.ok());
  ASSERT_EQ(selection->basis.size(), 1u);
  EXPECT_TRUE(selection->basis[0].IsRoot());
  EXPECT_DOUBLE_EQ(selection->predicted_cost, 0.0);
}

TEST(Algorithm1Test, GeneralElementQueriesSupported) {
  // The population may contain arbitrary view elements, not only views.
  const CubeShape shape = Shape({4, 4});
  auto intermediate = ElementId::Intermediate({1, 1}, shape);
  auto residual = ElementId::Make({{1, 1}, {0, 0}}, shape);
  auto pop = FixedPopulation({{*intermediate, 0.7}, {*residual, 0.3}}, shape);
  auto selection = SelectMinCostBasis(shape, *pop);
  ASSERT_TRUE(selection.ok());
  EXPECT_TRUE(IsNonRedundantBasis(selection->basis, shape));
}

TEST(Algorithm1Test, RejectsOversizedGraphs) {
  // d=8, n=16 has 31^8 ~ 8.5e11 elements: far beyond the dense DP.
  const CubeShape shape = Shape(std::vector<uint32_t>(8, 16));
  Rng rng(5);
  auto pop = RandomViewPopulation(shape, &rng);
  const auto selection = SelectMinCostBasis(shape, *pop);
  ASSERT_FALSE(selection.ok());
  EXPECT_EQ(selection.status().code(), StatusCode::kInvalidArgument);
}

TEST(Algorithm1Test, RejectsPopulationOfAnotherShape) {
  // A level-3 view fits 8x8 but not 4x4, whose cascades are 2 levels deep:
  // the DP must reject it rather than shift its interval by a negative gap.
  const CubeShape big = Shape({8, 8});
  auto view = ElementId::AggregatedView(0b01, big);
  ASSERT_TRUE(view.ok());
  auto pop = FixedPopulation({{*view, 1.0}}, big);
  ASSERT_TRUE(pop.ok());
  const CubeShape small = Shape({4, 4});
  auto selection = SelectMinCostBasis(small, *pop);
  ASSERT_FALSE(selection.ok());
  EXPECT_EQ(selection.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(
      internal::MinTilingCosts(small, *pop, {ElementId::Root(2)}).ok());
}

TEST(Algorithm1Test, DeterministicForSamePopulation) {
  const CubeShape shape = Shape({4, 4});
  Rng rng(9);
  auto pop = RandomViewPopulation(shape, &rng);
  auto a = SelectMinCostBasis(shape, *pop);
  auto b = SelectMinCostBasis(shape, *pop);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->basis, b->basis);
  EXPECT_DOUBLE_EQ(a->predicted_cost, b->predicted_cost);
}

}  // namespace
}  // namespace vecube
