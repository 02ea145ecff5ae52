#include "core/planner.h"

#include <gtest/gtest.h>

#include "core/assembly.h"
#include "core/basis.h"
#include "core/computer.h"
#include "cube/synthetic.h"
#include "select/algorithm2.h"
#include "util/rng.h"

namespace vecube {
namespace {

CubeShape Shape(std::vector<uint32_t> extents) {
  auto s = CubeShape::Make(std::move(extents));
  EXPECT_TRUE(s.ok());
  return *s;
}

TEST(Procedure3Test, StoredElementIsFree) {
  const CubeShape shape = Shape({4, 4});
  auto planner = Procedure3Planner::Make(shape, CubeOnlySet(shape));
  ASSERT_TRUE(planner.ok());
  EXPECT_EQ(planner->Cost(ElementId::Root(2)), 0u);
}

TEST(Procedure3Test, AggregationCostFromCube) {
  const CubeShape shape = Shape({8, 8});
  auto planner = Procedure3Planner::Make(shape, CubeOnlySet(shape));
  auto view = ElementId::AggregatedView(0b11, shape);
  EXPECT_EQ(planner->Cost(*view), 63u);  // Vol(A) - 1
}

TEST(Procedure3Test, SynthesisWhenNoAncestor) {
  const CubeShape shape = Shape({4, 4});
  const ElementId root = ElementId::Root(2);
  auto p = root.Child(0, StepKind::kPartial, shape);
  auto r = root.Child(0, StepKind::kResidual, shape);
  auto planner = Procedure3Planner::Make(shape, {*p, *r});
  ASSERT_TRUE(planner.ok());
  // Root: one synthesis stage, Vol(root) ops.
  EXPECT_EQ(planner->Cost(root), 16u);
}

TEST(Procedure3Test, UnreachableIsInfinite) {
  const CubeShape shape = Shape({4, 4});
  auto p = ElementId::Root(2).Child(0, StepKind::kPartial, shape);
  auto planner = Procedure3Planner::Make(shape, {*p});
  EXPECT_EQ(planner->Cost(ElementId::Root(2)), kInfiniteCost);
  // But descendants of the stored element are fine.
  auto pp = p->Child(0, StepKind::kPartial, shape);
  EXPECT_EQ(planner->Cost(*pp), 4u);  // vol 8 -> vol 4
}

TEST(Procedure3Test, MatchesAssemblyEnginePlanOnRandomBases)  {
  // A planner over a hypothetical set must cost every element exactly as
  // the engine's own planner over the materialized set
  // does, over several stored sets.
  const CubeShape shape = Shape({4, 4});
  Rng rng(3);
  auto cube = UniformIntegerCube(shape, &rng);
  ElementComputer computer(shape, &*cube);

  const std::vector<std::vector<ElementId>> sets = {
      CubeOnlySet(shape),
      WaveletBasisSet(shape),
      GaussianPyramidSet(shape),
      ViewHierarchySet(shape),
  };
  ViewElementGraph graph(shape);
  for (const auto& set : sets) {
    auto store = computer.Materialize(set);
    ASSERT_TRUE(store.ok());
    AssemblyEngine engine(&*store);
    auto planner = Procedure3Planner::Make(shape, set);
    ASSERT_TRUE(planner.ok());
    graph.ForEachElement([&](const ElementId& id) {
      EXPECT_EQ(planner->Cost(id), engine.PlanCost(id)) << id.ToString();
    });
  }
}

TEST(Procedure3Test, TotalCostWeightsByFrequency) {
  const CubeShape shape = Shape({4, 4});
  auto v1 = ElementId::AggregatedView(1, shape);  // cost 16-4 = 12
  auto v3 = ElementId::AggregatedView(3, shape);  // cost 16-1 = 15
  auto pop = FixedPopulation({{*v1, 0.25}, {*v3, 0.75}}, shape);
  auto total = TotalProcessingCost(shape, CubeOnlySet(shape), *pop);
  ASSERT_TRUE(total.ok());
  EXPECT_DOUBLE_EQ(*total, 0.25 * 12 + 0.75 * 15);
}

TEST(Procedure3Test, TotalCostInfiniteWhenAnyQueryUnreachable) {
  const CubeShape shape = Shape({4, 4});
  auto p = ElementId::Root(2).Child(0, StepKind::kPartial, shape);
  auto pop = FixedPopulation({{ElementId::Root(2), 1.0}}, shape);
  auto total = TotalProcessingCost(shape, {*p}, *pop);
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(*total, static_cast<double>(kInfiniteCost));
}

TEST(Procedure3Test, RedundantElementsReduceCost) {
  const CubeShape shape = Shape({8, 8});
  auto view = ElementId::AggregatedView(0b01, shape);
  auto pop = FixedPopulation({{*view, 1.0}}, shape);

  auto base = TotalProcessingCost(shape, CubeOnlySet(shape), *pop);
  std::vector<ElementId> with_view = CubeOnlySet(shape);
  with_view.push_back(*view);
  auto better = TotalProcessingCost(shape, with_view, *pop);
  EXPECT_GT(*base, 0.0);
  EXPECT_DOUBLE_EQ(*better, 0.0);
}

TEST(Procedure3Test, IntermediateAncestorBeatsRoot) {
  // Storing the half-aggregated intermediate makes deeper aggregates
  // cheaper than recomputing from the cube.
  const CubeShape shape = Shape({16});
  auto p2 = ElementId::Intermediate({2}, shape);  // vol 4
  std::vector<ElementId> set = CubeOnlySet(shape);
  set.push_back(*p2);
  auto planner = Procedure3Planner::Make(shape, set);
  auto p4 = ElementId::Intermediate({4}, shape);  // vol 1
  EXPECT_EQ(planner->Cost(*p4), 3u);  // 4 - 1, not 16 - 1
}

TEST(Procedure3Test, ValidatesSelectedIds) {
  const CubeShape shape = Shape({4});
  auto planner = Procedure3Planner::Make(shape, {ElementId::Root(2)});
  ASSERT_FALSE(planner.ok());
  EXPECT_TRUE(planner.status().IsInvalidArgument());
}

}  // namespace
}  // namespace vecube
