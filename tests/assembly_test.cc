#include "core/assembly.h"

#include <gtest/gtest.h>

#include <cstring>

#include "core/basis.h"
#include "core/computer.h"
#include "core/graph.h"
#include "cube/synthetic.h"
#include "util/rng.h"
#include "util/thread_pool.h"

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
  auto cube = UniformIntegerCube(*shape, &rng, -9, 9);
  EXPECT_TRUE(cube.ok());
  return Fixture{*shape, std::move(cube).value()};
}

ElementStore MaterializeSet(Fixture* f, const std::vector<ElementId>& set) {
  ElementComputer computer(f->shape, &f->cube);
  auto store = computer.Materialize(set);
  EXPECT_TRUE(store.ok());
  return std::move(store).value();
}

TEST(AssemblyTest, StoredElementIsFree) {
  Fixture f = MakeFixture({4, 4}, 1);
  ElementStore store = MaterializeSet(&f, CubeOnlySet(f.shape));
  AssemblyEngine engine(&store);
  EXPECT_EQ(engine.PlanCost(ElementId::Root(2)), 0u);
  OpCounter ops;
  auto out = engine.Assemble(ElementId::Root(2), &ops);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(ops.adds, 0u);
  EXPECT_TRUE(out->ApproxEquals(f.cube, 0.0));
}

TEST(AssemblyTest, AggregateFromRoot) {
  Fixture f = MakeFixture({8, 4}, 2);
  ElementStore store = MaterializeSet(&f, CubeOnlySet(f.shape));
  AssemblyEngine engine(&store);
  auto view = ElementId::AggregatedView(0b01, f.shape);
  // Direct computation for reference.
  ElementComputer computer(f.shape, &f.cube);
  auto expected = computer.Compute(*view);

  OpCounter ops;
  auto out = engine.Assemble(*view, &ops);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->ApproxEquals(*expected, 0.0));
  // Aggregation cascade costs Vol(root) - Vol(view).
  EXPECT_EQ(ops.adds, 32u - 4u);
  EXPECT_EQ(engine.PlanCost(*view), 28u);
}

TEST(AssemblyTest, MeasuredOpsEqualPlanCost) {
  Fixture f = MakeFixture({4, 4}, 3);
  // A non-trivial basis: split dim 0, split the residual along dim 1.
  const ElementId root = ElementId::Root(2);
  auto p = root.Child(0, StepKind::kPartial, f.shape);
  auto r = root.Child(0, StepKind::kResidual, f.shape);
  auto rp = r->Child(1, StepKind::kPartial, f.shape);
  auto rr = r->Child(1, StepKind::kResidual, f.shape);
  ElementStore store = MaterializeSet(&f, {*p, *rp, *rr});
  AssemblyEngine engine(&store);

  ViewElementGraph graph(f.shape);
  std::vector<ElementId> all;
  graph.ForEachElement([&](const ElementId& id) { all.push_back(id); });
  for (const ElementId& target : all) {
    const uint64_t plan = engine.PlanCost(target);
    ASSERT_NE(plan, kInfiniteCost) << target.ToString();
    OpCounter ops;
    auto out = engine.Assemble(target, &ops);
    ASSERT_TRUE(out.ok()) << target.ToString();
    EXPECT_EQ(ops.adds, plan) << target.ToString();
  }
}

TEST(AssemblyTest, EveryElementAssemblesFromWaveletBasis) {
  Fixture f = MakeFixture({4, 4}, 4);
  ElementStore store = MaterializeSet(&f, WaveletBasisSet(f.shape));
  AssemblyEngine engine(&store);
  ElementComputer computer(f.shape, &f.cube);

  ViewElementGraph graph(f.shape);
  graph.ForEachElement([&](const ElementId& id) {
    auto expected = computer.Compute(id);
    auto out = engine.Assemble(id);
    ASSERT_TRUE(out.ok()) << id.ToString();
    EXPECT_TRUE(out->ApproxEquals(*expected, 1e-9)) << id.ToString();
  });
}

TEST(AssemblyTest, SynthesisReconstructsRootFromSiblings) {
  Fixture f = MakeFixture({8, 2}, 5);
  const ElementId root = ElementId::Root(2);
  auto p = root.Child(0, StepKind::kPartial, f.shape);
  auto r = root.Child(0, StepKind::kResidual, f.shape);
  ElementStore store = MaterializeSet(&f, {*p, *r});
  AssemblyEngine engine(&store);
  OpCounter ops;
  auto out = engine.Assemble(root, &ops);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->ApproxEquals(f.cube, 0.0));
  // One synthesis stage: Vol(root) ops.
  EXPECT_EQ(ops.adds, 16u);
}

TEST(AssemblyTest, IncompleteStoreReportsIncomplete) {
  Fixture f = MakeFixture({4, 4}, 6);
  const ElementId root = ElementId::Root(2);
  auto p = root.Child(0, StepKind::kPartial, f.shape);
  ElementStore store = MaterializeSet(&f, {*p});  // missing the residual half
  AssemblyEngine engine(&store);
  EXPECT_EQ(engine.PlanCost(root), kInfiniteCost);
  auto out = engine.Assemble(root);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsIncomplete());
  // Targets inside the stored element still work.
  auto pp = p->Child(0, StepKind::kPartial, f.shape);
  EXPECT_TRUE(engine.Assemble(*pp).ok());
}

// An empty store reaches nothing: every node plans to kInfiniteCost, and
// the prune's scan over stored elements finds no finer relative.
TEST(AssemblyTest, EmptyStoreIsUnreachable) {
  const CubeShape shape = *CubeShape::Make({4, 4});
  ElementStore store(shape);
  AssemblyEngine engine(&store);
  ViewElementGraph graph(shape);
  graph.ForEachElement([&](const ElementId& id) {
    EXPECT_EQ(engine.PlanCost(id), kInfiniteCost) << id.ToString();
  });
  EXPECT_TRUE(engine.Assemble(ElementId::Root(2)).status().IsIncomplete());
}

TEST(AssemblyTest, PrefersCheaperOfAggregationAndSynthesis) {
  Fixture f = MakeFixture({8}, 7);
  const ElementId root = ElementId::Root(1);
  auto p = root.Child(0, StepKind::kPartial, f.shape);
  auto r = root.Child(0, StepKind::kResidual, f.shape);
  // Store the root AND both children redundantly: querying P must cost 0
  // (stored), querying root must cost 0 (stored), not synthesized.
  ElementStore store = MaterializeSet(&f, {root, *p, *r});
  AssemblyEngine engine(&store);
  EXPECT_EQ(engine.PlanCost(root), 0u);
  EXPECT_EQ(engine.PlanCost(*p), 0u);
  // PP: aggregate from stored P (cost 2) beats root cascade (cost 6).
  auto pp = p->Child(0, StepKind::kPartial, f.shape);
  EXPECT_EQ(engine.PlanCost(*pp), 2u);
}

TEST(AssemblyTest, AssembleViewByMask) {
  Fixture f = MakeFixture({4, 4}, 8);
  ElementStore store = MaterializeSet(&f, CubeOnlySet(f.shape));
  AssemblyEngine engine(&store);
  auto total = engine.AssembleView(0b11);
  ASSERT_TRUE(total.ok());
  EXPECT_DOUBLE_EQ((*total)[0], f.cube.Total());
}

TEST(AssemblyTest, InvalidateAfterStoreMutation) {
  Fixture f = MakeFixture({4, 4}, 9);
  ElementStore store = MaterializeSet(&f, CubeOnlySet(f.shape));
  AssemblyEngine engine(&store);
  auto view = ElementId::AggregatedView(0b01, f.shape);
  const uint64_t before = engine.PlanCost(*view);
  EXPECT_GT(before, 0u);
  // Materialize the view itself into the store.
  ElementComputer computer(f.shape, &f.cube);
  ASSERT_TRUE(store.Put(*view, *computer.Compute(*view)).ok());
  engine.Invalidate();
  EXPECT_EQ(engine.PlanCost(*view), 0u);
}

// The memo tables are allocated by the first plan, not the constructor or
// Invalidate(): an engine that never plans must construct and destroy.
TEST(AssemblyTest, EngineThatNeverPlansIsFine) {
  Fixture f = MakeFixture({8, 8}, 13);
  ElementStore store = MaterializeSet(&f, CubeOnlySet(f.shape));
  { AssemblyEngine unused(&store); }
  AssemblyEngine invalidated(&store);
  invalidated.Invalidate();
  invalidated.Invalidate();
}

// Plans made before a store change must not leak into plans made after
// Invalidate(): every node must cost what a fresh engine says.
TEST(AssemblyTest, ReplanAfterInvalidateMatchesFreshEngine) {
  Fixture f = MakeFixture({8, 4}, 14);
  ElementStore store = MaterializeSet(&f, CubeOnlySet(f.shape));
  AssemblyEngine engine(&store);
  ViewElementGraph graph(f.shape);
  graph.ForEachElement([&](const ElementId& id) { (void)engine.PlanCost(id); });

  // Cube only -> cube plus one residual.
  const ElementId residual = *ElementId::Make({{2, 3}, {1, 1}}, f.shape);
  ElementComputer computer(f.shape, &f.cube);
  ASSERT_TRUE(store.Put(residual, *computer.Compute(residual)).ok());
  engine.Invalidate();

  AssemblyEngine fresh(&store);
  uint64_t cheaper = 0;
  graph.ForEachElement([&](const ElementId& id) {
    const uint64_t cost = fresh.PlanCost(id);
    EXPECT_EQ(engine.PlanCost(id), cost) << id.ToString();
    // Cube-only plans cost Vol(A) - Vol(n).
    if (cost < f.shape.volume() - id.DataVolume(f.shape)) ++cheaper;
  });
  EXPECT_GT(cheaper, 0u);  // the residual did change some plans
}

TEST(AssemblyTest, ArityMismatchRejected) {
  Fixture f = MakeFixture({4, 4}, 10);
  ElementStore store = MaterializeSet(&f, CubeOnlySet(f.shape));
  AssemblyEngine engine(&store);
  EXPECT_TRUE(
      engine.Assemble(ElementId::Root(3)).status().IsInvalidArgument());
}

// Regression: PlanCost used to encode a foreign-shape id straight into the
// dense memo, reading past its end.
TEST(AssemblyTest, ForeignShapeTargetIsUnreachable) {
  Fixture f = MakeFixture({4, 4}, 12);
  ElementStore store = MaterializeSet(&f, CubeOnlySet(f.shape));
  AssemblyEngine engine(&store);
  auto wide = CubeShape::Make({64, 64});
  ASSERT_TRUE(wide.ok());
  auto foreign = ElementId::Make({{6, 63}, {6, 63}}, *wide);
  ASSERT_TRUE(foreign.ok());
  EXPECT_EQ(engine.PlanCost(*foreign), kInfiniteCost);
  // Level 3 exceeds dimension 0's cascade depth of 2 in the engine's shape.
  auto tall = CubeShape::Make({8, 4});
  ASSERT_TRUE(tall.ok());
  auto deep = ElementId::Make({{3, 5}, {0, 0}}, *tall);
  ASSERT_TRUE(deep.ok());
  EXPECT_EQ(engine.PlanCost(*deep), kInfiniteCost);
  EXPECT_TRUE(engine.Assemble(*foreign).status().IsInvalidArgument());
  EXPECT_TRUE(engine.AssembleBatch({*foreign}).status().IsInvalidArgument());
}

TEST(AssemblyTest, ExactValuesThroughDeepSynthesis) {
  // Integer data must reconstruct exactly through multi-stage synthesis.
  Fixture f = MakeFixture({8, 8}, 11);
  ElementStore store = MaterializeSet(&f, WaveletBasisSet(f.shape));
  AssemblyEngine engine(&store);
  auto out = engine.Assemble(ElementId::Root(2));
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->ApproxEquals(f.cube, 0.0));
}

// The store shape of perfbench's cold_assembly set-up: three dim-1
// elements of an otherwise untouched 4-D cube. Every coarser dim-1 code is
// synthesized from them, the cube itself in two stages.
std::vector<ElementId> ColdAssemblySet(const CubeShape& shape) {
  std::vector<ElementId> set;
  for (const DimCode code : {DimCode{1, 1}, DimCode{2, 0}, DimCode{2, 1}}) {
    auto id = ElementId::Make({{0, 0}, code, {0, 0}, {0, 0}}, shape);
    EXPECT_TRUE(id.ok());
    set.push_back(*id);
  }
  return set;
}

bool SameBits(const Tensor& a, const Tensor& b) {
  return a.extents() == b.extents() &&
         std::memcmp(a.raw(), b.raw(), a.size() * sizeof(double)) == 0;
}

// Assembles every element of an 8^4 cube from the cold_assembly store:
// the bits equal the ElementComputer's and the ops equal PlanCost, and a
// stored target's answer is the caller's own copy, never the store's
// tensor (stored elements are borrowed only inside the engine).
void ExpectBorrowedInputsAssembleExactly(ThreadPool* pool,
                                         uint32_t num_shards) {
  Fixture f = MakeFixture({8, 8, 8, 8}, 17);
  ElementStore store = MaterializeSet(&f, ColdAssemblySet(f.shape));
  AssemblyEngine engine(&store, pool, num_shards);
  ElementComputer computer(f.shape, &f.cube);
  const ElementIndexer indexer(f.shape);
  uint64_t stored_targets = 0;
  for (uint64_t i = 0; i < indexer.size(); ++i) {
    const ElementId id = indexer.Decode(i);
    auto expected = computer.Compute(id);
    ASSERT_TRUE(expected.ok());
    OpCounter ops;
    auto out = engine.Assemble(id, &ops);
    ASSERT_TRUE(out.ok()) << id.ToString();
    ASSERT_TRUE(SameBits(*out, *expected)) << id.ToString();
    ASSERT_EQ(ops.adds, engine.PlanCost(id)) << id.ToString();
    if (!store.Contains(id)) continue;
    ++stored_targets;
    const Tensor* stored = *store.Get(id);
    const Tensor before = *stored;
    EXPECT_NE(out->raw(), stored->raw()) << id.ToString();
    out->raw()[0] += 1.0;
    EXPECT_TRUE(SameBits(**store.Get(id), before)) << id.ToString();
  }
  EXPECT_EQ(stored_targets, 3u);
}

TEST(AssemblyTest, BorrowedInputsAssembleEveryElementExactly) {
  ExpectBorrowedInputsAssembleExactly(nullptr, 1);
}

TEST(AssemblyTest, ParallelBorrowedInputsAssembleEveryElementExactly) {
  ThreadPool pool(4);
  ExpectBorrowedInputsAssembleExactly(&pool, 1);
}

TEST(AssemblyTest, ParallelShardedBorrowedInputsAssembleEveryElementExactly) {
  ThreadPool pool(4);
  ExpectBorrowedInputsAssembleExactly(&pool, 4);
}

}  // namespace
}  // namespace vecube
