// Tests of the src/verify invariant checker: it must stay silent on every
// legal workload and provably fire on injected corruption.

#include "verify/invariants.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "api/session.h"
#include "core/assembly.h"
#include "core/computer.h"
#include "core/element_id.h"
#include "core/store.h"
#include "cube/shape.h"
#include "cube/synthetic.h"
#include "cube/tensor.h"
#include "util/rng.h"

namespace vecube {
namespace {

struct Fixture {
  CubeShape shape;
  Tensor cube;
};

Fixture MakeFixture(std::vector<uint32_t> extents, uint64_t seed) {
  auto shape = CubeShape::Make(std::move(extents));
  EXPECT_TRUE(shape.ok());
  Rng rng(seed);
  auto cube = UniformIntegerCube(*shape, &rng, 0, 20);
  EXPECT_TRUE(cube.ok());
  return Fixture{*shape, std::move(cube).value()};
}

// ---------------------------------------------------------------------------
// Clean paths: the checker passes on tier-1-style workloads.

TEST(InvariantCheckerTest, PassesOnRootOnlyStore) {
  Fixture f = MakeFixture({4, 4, 4}, 11);
  ElementStore store(f.shape);
  ASSERT_TRUE(store.Put(ElementId::Root(3), f.cube).ok());
  InvariantChecker checker(f.shape);
  EXPECT_TRUE(checker.CheckAll(store, f.cube).ok());
  EXPECT_EQ(checker.report().violations, 0u);
  EXPECT_GT(checker.report().checks_run, 0u);
}

TEST(InvariantCheckerTest, PassesOnMaterializedPyramid) {
  Fixture f = MakeFixture({8, 4}, 12);
  ElementComputer computer(f.shape, &f.cube);
  std::vector<ElementId> set;
  // Children of the root along dim 0 plus the root: a non-expansive split.
  auto p = ElementId::Root(2).Child(0, StepKind::kPartial, f.shape);
  auto r = ElementId::Root(2).Child(0, StepKind::kResidual, f.shape);
  ASSERT_TRUE(p.ok() && r.ok());
  set.push_back(*p);
  set.push_back(*r);
  auto store = computer.Materialize(set);
  ASSERT_TRUE(store.ok());
  InvariantChecker checker(f.shape);
  EXPECT_TRUE(checker.CheckAll(*store, f.cube).ok());
  EXPECT_EQ(checker.report().violations, 0u);
}

TEST(InvariantCheckerTest, SessionWithVerificationServesWorkload) {
  Fixture f = MakeFixture({8, 8}, 13);
  OlapSession::Options options;
  options.verify_invariants = true;
  auto session = OlapSession::FromCube(f.shape, f.cube, options);
  ASSERT_TRUE(session.ok());
  ASSERT_NE((*session)->invariant_checker(), nullptr);

  auto hot = ElementId::AggregatedView(0b01, f.shape);
  auto pop = FixedPopulation({{*hot, 1.0}}, f.shape);
  ASSERT_TRUE((*session)->DeclareWorkload(*pop).ok());
  ASSERT_TRUE((*session)->Optimize().ok());
  for (uint32_t mask = 0; mask < 4; ++mask) {
    EXPECT_TRUE((*session)->ViewByMask(mask).ok());
  }
  EXPECT_TRUE((*session)->AddFact({1, 2}, 5.0).ok());
  EXPECT_TRUE((*session)->AddFact({7, 0}, -2.5).ok());

  const InvariantReport& report = (*session)->invariant_checker()->report();
  EXPECT_EQ(report.violations, 0u);
  EXPECT_GT(report.checks_run, 4u);
}

TEST(InvariantCheckerTest, SessionWithoutVerificationHasNoChecker) {
  Fixture f = MakeFixture({4, 4}, 14);
  OlapSession::Options options;
  options.verify_invariants = false;
  auto session = OlapSession::FromCube(f.shape, f.cube, options);
  ASSERT_TRUE(session.ok());
  EXPECT_EQ((*session)->invariant_checker(), nullptr);
}

TEST(InvariantCheckerTest, HaarAndSplitChecksPassOnRandomCube) {
  Fixture f = MakeFixture({16, 8}, 15);
  InvariantChecker checker(f.shape);
  EXPECT_TRUE(checker.CheckHaarRoundTrip(f.cube).ok());
  EXPECT_TRUE(checker.CheckNonExpansiveSplit(f.cube).ok());
  EXPECT_EQ(checker.report().violations, 0u);
}

// ---------------------------------------------------------------------------
// Injected corruption: every class of violation must fire.

TEST(InvariantCheckerTest, FiresOnExtentsDisagreeingWithGeometry) {
  Fixture f = MakeFixture({4, 4}, 21);
  ElementStore store(f.shape);
  // (k=3, o=5) along dim 0 is a valid id of an [8, 4] cube but exceeds
  // K_0 = 2 here: it has no data extents, so Put refuses it.
  auto wide = CubeShape::Make({8, 4});
  ASSERT_TRUE(wide.ok());
  auto deep = ElementId::Make({{3, 5}, {0, 0}}, *wide);
  ASSERT_TRUE(deep.ok());
  auto one = Tensor::Zeros({1, 4});
  ASSERT_TRUE(one.ok());
  EXPECT_TRUE(store.Put(*deep, *one).IsInvalidArgument());

  // What does rot in place is a resident tensor replaced behind Put's
  // back: (k=1, o=1) must hold 2 x 4 cells.
  auto r = ElementId::Make({{1, 1}, {0, 0}}, f.shape);
  ASSERT_TRUE(r.ok());
  auto data = Tensor::Zeros({2, 4});
  ASSERT_TRUE(data.ok());
  ASSERT_TRUE(store.Put(*r, *data).ok());
  auto slot = store.GetMutable(*r);
  ASSERT_TRUE(slot.ok());
  auto wrong = Tensor::Zeros({4, 2});
  ASSERT_TRUE(wrong.ok());
  **slot = *wrong;

  InvariantChecker checker(f.shape);
  Status st = checker.CheckElementBounds(store);
  EXPECT_TRUE(st.IsInternal());
  EXPECT_EQ(checker.report().violations, 1u);
  ASSERT_FALSE(checker.report().messages.empty());
  EXPECT_NE(checker.report().messages[0].find("disagree"), std::string::npos);
}

TEST(InvariantCheckerTest, FiresOnCorruptedRootData) {
  Fixture f = MakeFixture({4, 4}, 22);
  ElementStore store(f.shape);
  ASSERT_TRUE(store.Put(ElementId::Root(2), f.cube).ok());
  auto cell = store.GetMutable(ElementId::Root(2));
  ASSERT_TRUE(cell.ok());
  (**cell)[3] += 1.0;  // silent bit-rot in the materialized root

  InvariantChecker checker(f.shape);
  EXPECT_TRUE(checker.CheckStoreConsistency(store, f.cube).IsInternal());
  EXPECT_GE(checker.report().violations, 1u);
}

TEST(InvariantCheckerTest, FiresOnCorruptedChildViaReconstruction) {
  Fixture f = MakeFixture({8, 4}, 23);
  ElementComputer computer(f.shape, &f.cube);
  auto p = ElementId::Root(2).Child(0, StepKind::kPartial, f.shape);
  auto r = ElementId::Root(2).Child(0, StepKind::kResidual, f.shape);
  ASSERT_TRUE(p.ok() && r.ok());
  auto store = computer.Materialize({*p, *r});
  ASSERT_TRUE(store.ok());
  auto cell = store->GetMutable(*p);
  ASSERT_TRUE(cell.ok());
  (**cell)[0] += 0.5;  // corrupt the partial child

  InvariantChecker checker(f.shape);
  // The (k,o) geometry is still fine; reconstruction is what breaks.
  EXPECT_TRUE(checker.CheckElementBounds(*store).ok());
  EXPECT_TRUE(checker.CheckPerfectReconstruction(*store, f.cube).IsInternal());
  EXPECT_GE(checker.report().violations, 1u);
}

TEST(InvariantCheckerTest, FiresOnMismatchedPlanCost) {
  Fixture f = MakeFixture({4, 4}, 24);
  ElementStore store(f.shape);
  ASSERT_TRUE(store.Put(ElementId::Root(2), f.cube).ok());
  AssemblyEngine engine(&store);
  auto view = ElementId::AggregatedView(0b11, f.shape);
  ASSERT_TRUE(view.ok());
  const uint64_t plan = engine.PlanCost(*view);
  ASSERT_NE(plan, kInfiniteCost);

  InvariantChecker checker(f.shape);
  EXPECT_TRUE(checker.CheckOpCount(plan, plan).ok());
  Status st = checker.CheckOpCount(plan, plan + 1);
  EXPECT_TRUE(st.IsInternal());
  EXPECT_EQ(checker.report().violations, 1u);
  EXPECT_NE(st.message().find("Procedure-3"), std::string::npos);
}

TEST(InvariantCheckerTest, FiresOnHaarViolationInSyntheticTensor) {
  // A tensor is just numbers — the Haar identity can't fail on real data.
  // Drive the check with a NaN cell, which breaks every comparison and
  // must be reported rather than silently accepted.
  auto shape = CubeShape::Make({4});
  ASSERT_TRUE(shape.ok());
  auto t = Tensor::FromData({4}, {1.0, 2.0, std::nan(""), 4.0});
  ASSERT_TRUE(t.ok());
  InvariantChecker checker(*shape);
  EXPECT_TRUE(checker.CheckHaarRoundTrip(*t).IsInternal());
}

TEST(InvariantCheckerTest, ReportAccumulatesAndResets) {
  Fixture f = MakeFixture({4, 4}, 25);
  InvariantChecker checker(f.shape);
  EXPECT_TRUE(checker.CheckOpCount(1, 2).IsInternal());
  EXPECT_TRUE(checker.CheckOpCount(3, 4).IsInternal());
  EXPECT_EQ(checker.report().violations, 2u);
  EXPECT_EQ(checker.report().messages.size(), 2u);
  checker.ResetReport();
  EXPECT_EQ(checker.report().violations, 0u);
  EXPECT_TRUE(checker.report().messages.empty());
}

}  // namespace
}  // namespace vecube
