// High-dimensionality stress tests: a 16-dimensional cube of extent 2 per
// dimension has N_ve = 3^16 ~ 43M — beyond the dense memo tables — so
// these exercise the hash-map planning fallback, plus the combinatorics
// at the dimensional limit.

#include <gtest/gtest.h>

#include "core/assembly.h"
#include "core/basis.h"
#include "core/computer.h"
#include "core/freq_rect.h"
#include "core/graph.h"
#include "core/planner.h"
#include "cube/synthetic.h"
#include "util/rng.h"

namespace vecube {
namespace {

class HighDimFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    auto shape = CubeShape::MakeSquare(16, 2);
    ASSERT_TRUE(shape.ok());
    shape_ = *shape;
    Rng rng(77);
    auto cube = UniformIntegerCube(shape_, &rng, -5, 5);
    ASSERT_TRUE(cube.ok());
    cube_ = std::move(cube).value();
  }

  CubeShape shape_;
  Tensor cube_;
};

TEST_F(HighDimFixture, GraphCensus) {
  ViewElementGraph graph(shape_);
  uint64_t expected = 1;
  for (int i = 0; i < 16; ++i) expected *= 3;
  EXPECT_EQ(graph.NumElements(), expected);       // 3^16
  EXPECT_EQ(graph.NumAggregatedViews(), 65536u);  // 2^16
  EXPECT_EQ(graph.NumIntermediate(), 65536u);     // 2^16 (levels 0/1)
}

TEST_F(HighDimFixture, HashFallbackPlansAndAssembles) {
  // With extent 2, every aggregated view is also an element reachable in
  // one P per dimension. Store the cube only; plan and execute a few
  // deep aggregations through the hash-map memo path.
  ElementComputer computer(shape_, &cube_);
  auto store = computer.Materialize(CubeOnlySet(shape_));
  ASSERT_TRUE(store.ok());
  AssemblyEngine engine(&*store);

  for (uint32_t mask : {0x0001u, 0x00FFu, 0xFFFFu, 0x5555u}) {
    auto view = ElementId::AggregatedView(mask, shape_);
    ASSERT_TRUE(view.ok());
    const uint64_t plan = engine.PlanCost(*view);
    ASSERT_NE(plan, kInfiniteCost);
    OpCounter ops;
    auto out = engine.Assemble(*view, &ops);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(ops.adds, plan);
    // Aggregation from the cube costs Vol(A) - Vol(view).
    EXPECT_EQ(plan, shape_.volume() - view->DataVolume(shape_));
  }
}

TEST_F(HighDimFixture, RedundantStoreOnHashPath) {
  // Cube, two views and one single-cell residual (the grand total's R
  // sibling along dimension 3): aggregation, synthesis and the planner's
  // finer-relative prune all run on the hash-map memo words.
  std::vector<DimCode> codes(16, DimCode{1, 0});
  codes[3] = DimCode{1, 1};
  const ElementId residual = *ElementId::Make(codes, shape_);
  const ElementId root = ElementId::Root(16);
  const std::vector<ElementId> set = {
      root, *ElementId::AggregatedView(0x00FF, shape_),
      *ElementId::AggregatedView(0xFFFF, shape_), residual};
  ElementComputer computer(shape_, &cube_);
  auto store = computer.Materialize(set);
  ASSERT_TRUE(store.ok());
  AssemblyEngine engine(&*store);

  std::vector<ElementId> targets = {
      residual, *root.Child(3, StepKind::kPartial, shape_)};
  for (uint32_t mask : {0x0001u, 0x00FFu, 0x01FFu, 0xFFF7u, 0xFFFEu}) {
    targets.push_back(*ElementId::AggregatedView(mask, shape_));
  }
  for (const ElementId& target : targets) {
    const uint64_t plan = engine.PlanCost(target);
    ASSERT_NE(plan, kInfiniteCost) << target.ToString();
    OpCounter ops;
    auto out = engine.Assemble(target, &ops);
    ASSERT_TRUE(out.ok()) << target.ToString();
    EXPECT_EQ(ops.adds, plan) << target.ToString();
    EXPECT_TRUE(out->ApproxEquals(*computer.Compute(target), 0.0))
        << target.ToString();
  }
  // A stored view is free, and aggregating it one step costs its volume
  // less the result's.
  EXPECT_EQ(engine.PlanCost(*ElementId::AggregatedView(0x00FF, shape_)), 0u);
  EXPECT_EQ(engine.PlanCost(*ElementId::AggregatedView(0x01FF, shape_)),
            (uint64_t{1} << 8) - (uint64_t{1} << 7));
  // View 0xFFF7 (two cells along dimension 3) is one synthesis stage over
  // the grand total and the stored residual.
  EXPECT_EQ(engine.PlanCost(*ElementId::AggregatedView(0xFFF7, shape_)), 2u);
}

TEST_F(HighDimFixture, GrandTotalExact) {
  ElementComputer computer(shape_, &cube_);
  auto store = computer.Materialize(CubeOnlySet(shape_));
  AssemblyEngine engine(&*store);
  auto total = engine.AssembleView(0xFFFF);
  ASSERT_TRUE(total.ok());
  EXPECT_DOUBLE_EQ((*total)[0], cube_.Total());
}

TEST_F(HighDimFixture, SiblingBasisReconstructs) {
  // Split along dimension 7; reconstruct the cube from the two halves via
  // the hash-map planner.
  const ElementId root = ElementId::Root(16);
  auto p = root.Child(7, StepKind::kPartial, shape_);
  auto r = root.Child(7, StepKind::kResidual, shape_);
  ElementComputer computer(shape_, &cube_);
  auto store = computer.Materialize({*p, *r});
  ASSERT_TRUE(store.ok());
  AssemblyEngine engine(&*store);
  auto back = engine.Assemble(root);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->ApproxEquals(cube_, 0.0));
}

TEST_F(HighDimFixture, WaveletBasisNonExpansive) {
  const auto basis = WaveletBasisSet(shape_);
  // Joint split of 16 binary dims: 2^16 - 1 details + 1 total.
  EXPECT_EQ(basis.size(), 65536u);
  EXPECT_EQ(StorageVolume(basis, shape_), shape_.volume());
  // The full O(n^2) disjointness check is infeasible at 65536 elements;
  // Σ volumes == Vol(A) plus spot-checked pairwise disjointness covers it
  // (overlap anywhere would force the volume sum above Vol(A) for a
  // cover, and these are all distinct single-cell leaves + the total).
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    const auto& a = basis[static_cast<size_t>(rng.UniformU64(basis.size()))];
    const auto& b = basis[static_cast<size_t>(rng.UniformU64(basis.size()))];
    if (a == b) continue;
    EXPECT_EQ(OverlapCells(a, b, shape_), 0u);
  }
}

// kMaxDims is the one dimension cap: element ids hold 16 codes inline, so
// CubeShape rejects any wider cube and no engine needs an arity guard of
// its own. The fixture above plans and assembles at the cap.

// A 17-dimensional store used to overflow the engine's fixed-size arrays
// (stack smash at PlanCost/Execute's std::array copy). Such a store can
// no longer be built: its shape is refused, so no engine ever sees it.
// The same construction one dimension narrower drives every entry point
// the regression went through.
TEST(DimensionLimitTest, SeventeenDimStoreRejectedByAssemblyEngine) {
  auto wide = CubeShape::Make(std::vector<uint32_t>(17, 2));
  ASSERT_FALSE(wide.ok());
  EXPECT_TRUE(wide.status().IsInvalidArgument());

  auto shape = CubeShape::Make(std::vector<uint32_t>(kMaxDims, 2));
  ASSERT_TRUE(shape.ok());
  Rng rng(11);
  auto cube = UniformIntegerCube(*shape, &rng, -3, 3);
  ASSERT_TRUE(cube.ok());
  ElementComputer computer(*shape, &*cube);
  auto store = computer.Materialize(CubeOnlySet(*shape));
  ASSERT_TRUE(store.ok());

  AssemblyEngine engine(&*store);
  const ElementId root = ElementId::Root(kMaxDims);
  EXPECT_EQ(engine.PlanCost(root), 0u);

  auto assembled = engine.Assemble(root);
  ASSERT_TRUE(assembled.ok());
  EXPECT_TRUE(assembled->ApproxEquals(*cube, 0.0));

  auto batch = engine.AssembleBatch({root});
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), 1u);
  EXPECT_TRUE((*batch)[0].ApproxEquals(*cube, 0.0));

  auto view = engine.AssembleView((1u << kMaxDims) - 1);
  ASSERT_TRUE(view.ok());
  EXPECT_DOUBLE_EQ((*view)[0], cube->Total());
}

TEST(DimensionLimitTest, TwentyFiveDimsRejectedByShape) {
  EXPECT_FALSE(CubeShape::Make(std::vector<uint32_t>(25, 2)).ok());
}

TEST(DimensionLimitTest, SeventeenDimsRejectedByShape) {
  for (auto shape : {CubeShape::Make(std::vector<uint32_t>(17, 2)),
                     CubeShape::MakeSquare(17, 1),
                     CubeShape::MakePadded(std::vector<uint32_t>(17, 3))}) {
    ASSERT_FALSE(shape.ok());
    EXPECT_TRUE(shape.status().IsInvalidArgument());
  }
  EXPECT_TRUE(CubeShape::MakeSquare(kMaxDims, 1).ok());
}

}  // namespace
}  // namespace vecube
