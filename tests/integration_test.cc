// End-to-end scenarios: relation -> cube -> decomposition -> selection ->
// assembly -> range queries, exercised the way an OLAP application would.

#include <gtest/gtest.h>

#include "api/session.h"
#include "core/assembly.h"
#include "core/basis.h"
#include "core/computer.h"
#include "core/graph.h"
#include "cube/cube_builder.h"
#include "cube/sparse_cube.h"
#include "cube/synthetic.h"
#include "oracle/procedure3.h"
#include "range/prefix_baseline.h"
#include "range/range_engine.h"
#include "select/algorithm1.h"
#include "select/algorithm2.h"
#include "util/rng.h"

namespace vecube {
namespace {

TEST(IntegrationTest, RelationToViewsPipeline) {
  // A small star-schema fact table: (product, store, day) -> amount.
  auto shape = CubeShape::Make({8, 4, 16});
  ASSERT_TRUE(shape.ok());
  Rng rng(1);
  auto relation = SyntheticSalesRelation(*shape, &rng, 2000, 1.1);
  ASSERT_TRUE(relation.ok());
  auto built = CubeBuilder::Build(*relation, *shape);
  ASSERT_TRUE(built.ok());

  // Materialize a workload-tuned basis and answer all 8 views.
  Rng rng2(2);
  auto pop = RandomViewPopulation(*shape, &rng2);
  auto selection = SelectMinCostBasis(*shape, *pop);
  ASSERT_TRUE(selection.ok());
  ElementComputer computer(*shape, &built->cube);
  auto store = computer.Materialize(selection->basis);
  ASSERT_TRUE(store.ok());
  AssemblyEngine engine(&*store);

  for (uint32_t mask = 0; mask < 8; ++mask) {
    auto view = engine.AssembleView(mask);
    ASSERT_TRUE(view.ok()) << mask;
    // Mass conservation: every aggregated view sums to the relation total.
    double relation_total = 0.0;
    for (uint64_t row = 0; row < relation->num_rows(); ++row) {
      relation_total += relation->measure(0, row);
    }
    EXPECT_NEAR(view->Total(), relation_total, 1e-6);
  }
}

TEST(IntegrationTest, SelectionReducesMeasuredWorkNotJustPredicted) {
  // The headline claim, measured: assembling a skewed workload from the
  // Algorithm-1 basis costs fewer real operations than from the cube.
  auto shape = CubeShape::Make({16, 16});
  ASSERT_TRUE(shape.ok());
  Rng rng(3);
  auto cube = UniformIntegerCube(*shape, &rng);
  auto hot = ElementId::AggregatedView(0b01, *shape);
  auto warm = ElementId::AggregatedView(0b11, *shape);
  auto pop = FixedPopulation({{*hot, 0.8}, {*warm, 0.2}}, *shape);
  ASSERT_TRUE(pop.ok());

  ElementComputer computer(*shape, &*cube);
  auto cube_store = computer.Materialize(CubeOnlySet(*shape));
  auto selection = SelectMinCostBasis(*shape, *pop);
  ASSERT_TRUE(selection.ok());
  auto tuned_store = computer.Materialize(selection->basis);
  ASSERT_TRUE(cube_store.ok() && tuned_store.ok());

  AssemblyEngine cube_engine(&*cube_store);
  AssemblyEngine tuned_engine(&*tuned_store);
  OpCounter cube_ops, tuned_ops;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(cube_engine.Assemble(*hot, &cube_ops).ok());
    ASSERT_TRUE(tuned_engine.Assemble(*hot, &tuned_ops).ok());
  }
  ASSERT_TRUE(cube_engine.Assemble(*warm, &cube_ops).ok());
  ASSERT_TRUE(tuned_engine.Assemble(*warm, &tuned_ops).ok());
  EXPECT_LT(tuned_ops.adds, cube_ops.adds);
}

TEST(IntegrationTest, GreedyRedundancyZeroesOutHotViews) {
  auto shape = CubeShape::Make({4, 4, 4});
  ASSERT_TRUE(shape.ok());
  Rng rng(4);
  auto pop = RandomViewPopulation(*shape, &rng);
  auto basis = SelectMinCostBasis(*shape, *pop);
  ASSERT_TRUE(basis.ok());

  GreedyOptions options;
  options.storage_target_cells = 3 * shape->volume();
  auto frontier = GreedySelect(*shape, *pop, basis->basis, options);
  ASSERT_TRUE(frontier.ok());
  EXPECT_DOUBLE_EQ(frontier->back().processing_cost, 0.0);

  // Zero predicted cost means every queried view is itself selected.
  auto calc = Procedure3Calculator::Make(*shape, frontier->back().selected);
  for (const QuerySpec& q : pop->queries()) {
    EXPECT_EQ(calc->Cost(q.view), 0u);
  }
}

TEST(IntegrationTest, RangeQueriesOverSelectedPyramid) {
  auto shape = CubeShape::Make({16, 16});
  ASSERT_TRUE(shape.ok());
  Rng rng(5);
  auto cube = ClusteredCube(*shape, &rng, 4, 3.0);
  ASSERT_TRUE(cube.ok());

  ElementComputer computer(*shape, &*cube);
  auto store =
      computer.Materialize(ViewElementGraph(*shape).IntermediateElements());
  ASSERT_TRUE(store.ok());
  RangeEngine engine(&*store, MissingElementPolicy::kError);
  auto prefix = PrefixSumCube::Build(*shape, *cube);
  ASSERT_TRUE(prefix.ok());

  Rng qrng(6);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<uint32_t> start(2), width(2);
    for (uint32_t m = 0; m < 2; ++m) {
      start[m] = static_cast<uint32_t>(qrng.UniformU64(16));
      width[m] = 1 + static_cast<uint32_t>(qrng.UniformU64(16 - start[m]));
    }
    auto range = RangeSpec::Make(start, width, *shape);
    auto a = engine.RangeSum(*range);
    auto b = prefix->RangeSum(*range);
    auto c = NaiveRangeSum(*cube, *shape, *range);
    ASSERT_TRUE(a.ok() && b.ok() && c.ok());
    EXPECT_DOUBLE_EQ(*a, *c);
    EXPECT_DOUBLE_EQ(*b, *c);
  }
}

TEST(IntegrationTest, AdaptiveSessionAdaptsAndWins) {
  // Phase 1 traffic on one view, phase 2 on another; a session adapting
  // online must end up serving phase-2 traffic for free.
  auto shape = CubeShape::Make({8, 8});
  ASSERT_TRUE(shape.ok());
  Rng rng(7);
  auto cube = UniformIntegerCube(*shape, &rng);

  OlapSessionOptions options;
  options.min_queries_between_reconfigs = 8;
  options.drift_threshold = 0.4;
  options.access_decay = 0.8;
  auto session = OlapSession::FromCube(*shape, *cube, options);
  ASSERT_TRUE(session.ok());

  auto phase1 = ElementId::AggregatedView(0b01, *shape);
  auto phase2 = ElementId::AggregatedView(0b10, *shape);
  for (int i = 0; i < 30; ++i) ASSERT_TRUE((*session)->Element(*phase1).ok());
  for (int i = 0; i < 30; ++i) ASSERT_TRUE((*session)->Element(*phase2).ok());

  const uint64_t before = (*session)->stats().assembly_ops;
  ASSERT_TRUE((*session)->Element(*phase2).ok());
  EXPECT_EQ((*session)->stats().assembly_ops, before);
  EXPECT_GE((*session)->stats().optimizations, 2u);
}

TEST(IntegrationTest, SparseCubeRoundTripThroughAssembly) {
  auto shape = CubeShape::Make({16, 8});
  ASSERT_TRUE(shape.ok());
  Rng rng(8);
  auto dense = SparseRandomCube(*shape, &rng, 0.05);
  ASSERT_TRUE(dense.ok());
  auto sparse = SparseCube::FromDense(*shape, *dense);
  ASSERT_TRUE(sparse.ok());
  EXPECT_LT(sparse->density(), 0.12);

  auto densified = sparse->Densify();
  ASSERT_TRUE(densified.ok());
  ElementComputer computer(*shape, &*densified);
  auto store = computer.Materialize(WaveletBasisSet(*shape));
  ASSERT_TRUE(store.ok());
  AssemblyEngine engine(&*store);
  auto back = engine.Assemble(ElementId::Root(2));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->ApproxEquals(*dense, 0.0));
}

TEST(IntegrationTest, CountAndAverageCubes) {
  // AVG = SUM / COUNT, both served from the same machinery.
  auto shape = CubeShape::Make({4, 4});
  ASSERT_TRUE(shape.ok());
  auto relation = Relation::Make({"x", "y"}, {"v"});
  ASSERT_TRUE(relation.ok());
  ASSERT_TRUE(relation->Append({1, 1}, {10.0}).ok());
  ASSERT_TRUE(relation->Append({1, 1}, {20.0}).ok());
  ASSERT_TRUE(relation->Append({1, 2}, {6.0}).ok());

  auto sum = CubeBuilder::Build(*relation, *shape);
  CubeBuildOptions count_opt;
  count_opt.count_instead_of_sum = true;
  auto count = CubeBuilder::Build(*relation, *shape, count_opt);
  ASSERT_TRUE(sum.ok() && count.ok());

  // AVG over the row y in {1,2} of x=1: (10+20+6)/3 = 12.
  ElementComputer sum_computer(*shape, &sum->cube);
  ElementComputer count_computer(*shape, &count->cube);
  auto view = ElementId::AggregatedView(0b10, *shape);  // aggregate y
  auto s = sum_computer.Compute(*view);
  auto c = count_computer.Compute(*view);
  ASSERT_TRUE(s.ok() && c.ok());
  EXPECT_DOUBLE_EQ(s->At({1, 0}) / c->At({1, 0}), 12.0);
}

}  // namespace
}  // namespace vecube
