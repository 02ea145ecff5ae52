// Exhaustive oracle: on a 1-D cube of extent 8 the view element graph has
// 15 elements and exactly 26 guillotine tilings (all non-redundant bases,
// since d = 1 admits no non-guillotine covers). Every basis is checked
// end-to-end: structural properties, exact reconstruction of all 15
// elements, measured work == Procedure-3 cost, and Algorithm 1 returning
// the true minimum over the enumerated bases for several populations —
// including populations over intermediate and residual elements.

#include <gtest/gtest.h>

#include <limits>

#include "core/assembly.h"
#include "core/basis.h"
#include "core/computer.h"
#include "core/graph.h"
#include "cube/synthetic.h"
#include "oracle/procedure3.h"
#include "oracle/tilings.h"
#include "select/algorithm1.h"
#include "select/pair_cost.h"
#include "util/rng.h"

namespace vecube {
namespace {

class Oracle1D : public ::testing::Test {
 protected:
  void SetUp() override {
    auto shape = CubeShape::Make({8});
    ASSERT_TRUE(shape.ok());
    shape_ = *shape;
    Rng rng(11);
    auto cube = UniformIntegerCube(shape_, &rng, -7, 7);
    ASSERT_TRUE(cube.ok());
    cube_ = std::move(cube).value();
    EnumerateTilings(ElementId::Root(1), shape_, &tilings_);
  }

  CubeShape shape_;
  Tensor cube_;
  std::vector<std::vector<ElementId>> tilings_;
};

TEST_F(Oracle1D, TwentySixTilings) {
  // t(8) = 1 + t(4)^2, t(4) = 1 + t(2)^2, t(2) = 1 + 1 = 2 -> 26.
  EXPECT_EQ(tilings_.size(), 26u);
}

TEST_F(Oracle1D, EveryTilingIsANonRedundantBasis) {
  for (const auto& tiling : tilings_) {
    EXPECT_TRUE(IsNonRedundantBasis(tiling, shape_));
    EXPECT_EQ(StorageVolume(tiling, shape_), 8u);
  }
}

TEST_F(Oracle1D, EveryBasisReconstructsEveryElementAtPlannedCost) {
  ElementComputer computer(shape_, &cube_);
  ViewElementGraph graph(shape_);
  for (const auto& tiling : tilings_) {
    auto store = computer.Materialize(tiling);
    ASSERT_TRUE(store.ok());
    AssemblyEngine engine(&*store);
    auto calc = Procedure3Calculator::Make(shape_, tiling);
    ASSERT_TRUE(calc.ok());
    graph.ForEachElement([&](const ElementId& id) {
      auto expected = computer.Compute(id);
      OpCounter ops;
      auto got = engine.Assemble(id, &ops);
      ASSERT_TRUE(got.ok());
      EXPECT_TRUE(got->ApproxEquals(*expected, 0.0)) << id.ToString();
      EXPECT_EQ(ops.adds, calc->Cost(id)) << id.ToString();
      EXPECT_EQ(engine.PlanCost(id), calc->Cost(id)) << id.ToString();
    });
  }
}

TEST_F(Oracle1D, Algorithm1IsExactlyOptimalOverAllBases) {
  // Several populations: views only, intermediates, residuals, mixtures.
  ViewElementGraph graph(shape_);
  std::vector<QueryPopulation> populations;
  {
    Rng rng(21);
    for (uint64_t seed = 0; seed < 5; ++seed) {
      auto pop = RandomViewPopulation(shape_, &rng);
      ASSERT_TRUE(pop.ok());
      populations.push_back(*pop);
    }
    auto p2 = ElementId::Intermediate({2}, shape_);
    auto r = ElementId::Make({{1, 1}}, shape_);
    auto deep = ElementId::Make({{3, 5}}, shape_);
    auto mixed = FixedPopulation(
        {{*p2, 0.5}, {*r, 0.3}, {*deep, 0.2}}, shape_);
    ASSERT_TRUE(mixed.ok());
    populations.push_back(*mixed);
  }
  for (const QueryPopulation& population : populations) {
    auto selection = SelectMinCostBasis(shape_, population);
    ASSERT_TRUE(selection.ok());
    double best = std::numeric_limits<double>::infinity();
    for (const auto& tiling : tilings_) {
      best = std::min(best, PopulationPairCost(tiling, population, shape_));
    }
    EXPECT_NEAR(selection->predicted_cost, best, 1e-9);
  }
}

TEST_F(Oracle1D, PairModelUpperBoundsTreeModelOnEveryBasis) {
  // The documented relationship between the two accountings (DESIGN.md):
  // the Procedure-3 tree cost never exceeds the Eq.-27 pair cost.
  Rng rng(31);
  auto population = RandomViewPopulation(shape_, &rng);
  ASSERT_TRUE(population.ok());
  for (const auto& tiling : tilings_) {
    auto calc = Procedure3Calculator::Make(shape_, tiling);
    ASSERT_TRUE(calc.ok());
    const double tree = calc->TotalCost(*population);
    const double pair = PopulationPairCost(tiling, *population, shape_);
    EXPECT_LE(tree, pair + 1e-9);
  }
}

}  // namespace
}  // namespace vecube
