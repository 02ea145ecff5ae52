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

// The tie-breaks decide which elements the recorded plans read, hence
// UsedElements, Algorithm 2's RemoveObsolete and its golden outputs.

TEST(Procedure3Test, AggregationKeptOnTieWithSynthesis) {
  // n = (2@0, 1@0), Vol 2. Aggregating from its stored ancestor (0@0, 1@0)
  // costs 8 - 2 = 6. Splitting along dimension 1 costs 2 + 1 + 3 = 6 as
  // well: its P child aggregates from (1@0, 2@0), its R child from
  // (0@0, 2@1). Aggregation is kept.
  const CubeShape shape = Shape({4, 4});
  const std::vector<ElementId> set = {*ElementId::Make({{0, 0}, {1, 0}}, shape),
                                      *ElementId::Make({{0, 0}, {2, 1}}, shape),
                                      *ElementId::Make({{1, 0}, {2, 0}}, shape)};
  auto planner = Procedure3Planner::Make(shape, set);
  ASSERT_TRUE(planner.ok());
  const ElementId n = *ElementId::Make({{2, 0}, {1, 0}}, shape);
  EXPECT_EQ(planner->Cost(n.ChildUnchecked(1, StepKind::kPartial)), 1u);
  EXPECT_EQ(planner->Cost(n.ChildUnchecked(1, StepKind::kResidual)), 3u);
  EXPECT_EQ(planner->Cost(n), 6u);
  EXPECT_EQ(planner->Plan(n).choice, Procedure3Planner::Choice::kAggregate);
  auto used = planner->UsedElements({n});
  ASSERT_TRUE(used.ok());
  EXPECT_EQ(*used, std::vector<ElementId>{set[0]});
}

TEST(Procedure3Test, BoundSplitKeptWhenDeepPassTies) {
  // n = (1@0, 1@1), Vol 4, has no stored ancestor. The aggregation-only
  // bound prices the split along dimension 1 at 4 + 2 + 0 = 6: its P child
  // aggregates from (0@0, 2@2), its R child is stored. Along dimension 0
  // the bound is infinite, as the P child (2@0, 1@1) has no stored
  // ancestor, but synthesizing that child from its two stored children
  // costs 2, so the deep pass prices dimension 0 at 4 + 2 + 0 = 6 too. The
  // bound's dimension 1 is kept.
  const CubeShape shape = Shape({4, 4});
  const std::vector<ElementId> set = {*ElementId::Make({{0, 0}, {2, 2}}, shape),
                                      *ElementId::Make({{1, 0}, {2, 3}}, shape),
                                      *ElementId::Make({{2, 0}, {2, 2}}, shape),
                                      *ElementId::Make({{2, 0}, {2, 3}}, shape),
                                      *ElementId::Make({{2, 1}, {1, 1}}, shape)};
  auto planner = Procedure3Planner::Make(shape, set);
  ASSERT_TRUE(planner.ok());
  const ElementId n = *ElementId::Make({{1, 0}, {1, 1}}, shape);
  EXPECT_EQ(planner->Cost(n), 6u);
  EXPECT_EQ(planner->Cost(n.ChildUnchecked(0, StepKind::kPartial)), 2u);
  const Procedure3Planner::Node node = planner->Plan(n);
  EXPECT_EQ(node.choice, Procedure3Planner::Choice::kSynthesize);
  EXPECT_EQ(node.split_dim, 1u);
  auto used = planner->UsedElements({n});
  ASSERT_TRUE(used.ok());
  EXPECT_EQ(*used, (std::vector<ElementId>{set[0], set[1]}));
}

TEST(Procedure3Test, LowestDimensionWinsDeepTie) {
  // The four quadrants of a 4x4 cube: splitting the root along either
  // dimension costs 16 + 8 + 8 = 32, and no split has a finite
  // aggregation-only bound. The lowest dimension wins.
  const CubeShape shape = Shape({4, 4});
  std::vector<ElementId> set;
  for (const uint32_t a : {0u, 1u}) {
    for (const uint32_t b : {0u, 1u}) {
      set.push_back(*ElementId::Make({{1, a}, {1, b}}, shape));
    }
  }
  auto planner = Procedure3Planner::Make(shape, set);
  ASSERT_TRUE(planner.ok());
  const ElementId root = ElementId::Root(2);
  EXPECT_EQ(planner->Cost(root), 32u);
  const Procedure3Planner::Node node = planner->Plan(root);
  EXPECT_EQ(node.choice, Procedure3Planner::Choice::kSynthesize);
  EXPECT_EQ(node.split_dim, 0u);
}

TEST(Procedure3Test, ValidatesSelectedIds) {
  const CubeShape shape = Shape({4});
  auto planner = Procedure3Planner::Make(shape, {ElementId::Root(2)});
  ASSERT_FALSE(planner.ok());
  EXPECT_TRUE(planner.status().IsInvalidArgument());
}

}  // namespace
}  // namespace vecube
