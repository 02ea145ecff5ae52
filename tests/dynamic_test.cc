#include "select/dynamic.h"

#include <gtest/gtest.h>

#include "core/computer.h"
#include "cube/synthetic.h"
#include "util/failpoint.h"
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
  auto cube = UniformIntegerCube(*shape, &rng, 0, 9);
  EXPECT_TRUE(cube.ok());
  return Fixture{*shape, std::move(cube).value()};
}

TEST(DynamicTest, StartsWithCubeOnly) {
  Fixture f = MakeFixture({4, 4}, 1);
  auto assembler = DynamicAssembler::Make(f.shape, f.cube, DynamicOptions{});
  ASSERT_TRUE(assembler.ok());
  EXPECT_EQ((*assembler)->store().size(), 1u);
  EXPECT_TRUE((*assembler)->store().Contains(ElementId::Root(2)));
  EXPECT_EQ((*assembler)->reconfiguration_count(), 0u);
}

TEST(DynamicTest, QueriesAnswerCorrectly) {
  Fixture f = MakeFixture({4, 4}, 2);
  auto assembler = DynamicAssembler::Make(f.shape, f.cube, DynamicOptions{});
  ASSERT_TRUE(assembler.ok());
  ElementComputer computer(f.shape, &f.cube);
  for (uint32_t mask = 0; mask < 4; ++mask) {
    auto view = ElementId::AggregatedView(mask, f.shape);
    auto expected = computer.Compute(*view);
    auto got = (*assembler)->Query(*view);
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(got->ApproxEquals(*expected, 1e-9)) << mask;
  }
  EXPECT_EQ((*assembler)->queries_served(), 4u);
}

TEST(DynamicTest, ReconfiguresUnderSkewedTraffic) {
  Fixture f = MakeFixture({4, 4}, 3);
  DynamicOptions options;
  options.min_queries_between_reconfigs = 8;
  options.drift_threshold = 0.5;
  auto assembler = DynamicAssembler::Make(f.shape, f.cube, options);
  ASSERT_TRUE(assembler.ok());
  auto hot = ElementId::AggregatedView(0b11, f.shape);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE((*assembler)->Query(*hot).ok());
  }
  EXPECT_GE((*assembler)->reconfiguration_count(), 1u);
  // After adaptation the hot view is materialized: querying it is free.
  OpCounter ops;
  ASSERT_TRUE((*assembler)->Query(*hot, &ops).ok());
  EXPECT_EQ(ops.adds, 0u);
}

TEST(DynamicTest, AnswersStayCorrectAcrossReconfigurations) {
  Fixture f = MakeFixture({4, 4}, 4);
  DynamicOptions options;
  options.min_queries_between_reconfigs = 4;
  options.drift_threshold = 0.2;
  options.access_decay = 0.9;
  auto assembler = DynamicAssembler::Make(f.shape, f.cube, options);
  ASSERT_TRUE(assembler.ok());
  ElementComputer computer(f.shape, &f.cube);
  Rng rng(99);
  for (int i = 0; i < 60; ++i) {
    const uint32_t mask = static_cast<uint32_t>(rng.UniformU64(4));
    auto view = ElementId::AggregatedView(mask, f.shape);
    auto expected = computer.Compute(*view);
    auto got = (*assembler)->Query(*view);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(got->ApproxEquals(*expected, 1e-9)) << "query " << i;
  }
}

TEST(DynamicTest, ForcedReconfigureNeedsObservations) {
  Fixture f = MakeFixture({4, 4}, 5);
  auto assembler = DynamicAssembler::Make(f.shape, f.cube, DynamicOptions{});
  ASSERT_TRUE(assembler.ok());
  EXPECT_TRUE((*assembler)->Reconfigure().IsFailedPrecondition());
}

TEST(DynamicTest, StorageBudgetAddsRedundancy) {
  Fixture f = MakeFixture({4, 4}, 6);
  DynamicOptions options;
  options.storage_budget_cells = 2 * f.shape.volume();
  auto assembler = DynamicAssembler::Make(f.shape, f.cube, options);
  ASSERT_TRUE(assembler.ok());
  auto a = ElementId::AggregatedView(0b01, f.shape);
  auto b = ElementId::AggregatedView(0b10, f.shape);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE((*assembler)->Query(*a).ok());
    ASSERT_TRUE((*assembler)->Query(*b).ok());
  }
  ASSERT_TRUE((*assembler)->Reconfigure().ok());
  // With budget for redundancy, both hot views end up free.
  OpCounter ops;
  ASSERT_TRUE((*assembler)->Query(*a, &ops).ok());
  ASSERT_TRUE((*assembler)->Query(*b, &ops).ok());
  EXPECT_EQ(ops.adds, 0u);
  EXPECT_LE((*assembler)->store().StorageCells(), options.storage_budget_cells);
}

TEST(DynamicTest, ShapeMismatchRejected) {
  Fixture f = MakeFixture({4, 4}, 7);
  auto other = CubeShape::Make({8, 8});
  EXPECT_FALSE(DynamicAssembler::Make(*other, f.cube, DynamicOptions{}).ok());
}

// Regression: Query() used to discard a successfully assembled answer
// when the *after-answering* reconfiguration attempt failed. The failure
// must be recorded on the side and the answer returned.
TEST(DynamicTest, ReconfigureFailureDoesNotDropAnswer) {
  Fixture f = MakeFixture({4, 4}, 8);
  DynamicOptions options;
  options.min_queries_between_reconfigs = 2;
  options.drift_threshold = 0.1;  // any drift from empty baseline triggers
  auto assembler = DynamicAssembler::Make(f.shape, f.cube, options);
  ASSERT_TRUE(assembler.ok());
  Failpoints::Arm("dynamic.reconfigure", FailpointAction{});

  auto view = ElementId::AggregatedView(0b11, f.shape);
  ElementComputer computer(f.shape, &f.cube);
  auto expected = computer.Compute(*view);

  // Query 1: below min_queries_between_reconfigs, no attempt yet.
  ASSERT_TRUE((*assembler)->Query(*view).ok());
  EXPECT_TRUE((*assembler)->last_reconfig_error().ok());

  // Query 2 triggers the (injected-to-fail) reconfiguration. The answer
  // must come back anyway, bit-correct.
  auto got = (*assembler)->Query(*view);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->ApproxEquals(*expected, 1e-9));
  EXPECT_TRUE((*assembler)->last_reconfig_error().IsInternal());
  EXPECT_EQ((*assembler)->reconfiguration_failures(), 1u);
  EXPECT_EQ((*assembler)->reconfiguration_count(), 0u);

  // The failpoint is one-shot: the next attempt succeeds and clears the
  // recorded error.
  Failpoints::DisarmAll();
  ASSERT_TRUE((*assembler)->Query(*view).ok());
  ASSERT_TRUE((*assembler)->Query(*view).ok());
  EXPECT_GE((*assembler)->reconfiguration_count(), 1u);
  EXPECT_TRUE((*assembler)->last_reconfig_error().ok());
  EXPECT_EQ((*assembler)->reconfiguration_failures(), 1u);
}

// Regression: Reconfigure() dereferenced frontier.back() without an
// emptiness check. Exercise the tightest budgets around the basis volume
// — including ones where the greedy pass has (almost) nothing to add —
// and require the Algorithm-1 basis to survive as the target set.
TEST(DynamicTest, TinyRedundancyBudgetKeepsBasis) {
  Fixture f = MakeFixture({4, 4}, 9);
  ElementComputer computer(f.shape, &f.cube);
  for (uint64_t extra : {1u, 2u, 4u}) {
    DynamicOptions options;
    // Just above the cube-only basis volume: the greedy branch runs but
    // can afford at most a sliver beyond the basis.
    options.storage_budget_cells = f.shape.volume() + extra;
    auto assembler = DynamicAssembler::Make(f.shape, f.cube, options);
    ASSERT_TRUE(assembler.ok());
    auto view = ElementId::AggregatedView(0b01, f.shape);
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE((*assembler)->Query(*view).ok());
    }
    ASSERT_TRUE((*assembler)->Reconfigure().ok()) << "budget +" << extra;
    EXPECT_LE((*assembler)->store().StorageCells(),
              options.storage_budget_cells);
    // The store still answers everything correctly.
    auto got = (*assembler)->Query(*view);
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(got->ApproxEquals(*computer.Compute(*view), 1e-9));
  }
}

// The serving cache in front of the dynamic loop: hits save assembly ops,
// reconfiguration flushes, answers stay correct throughout.
TEST(DynamicTest, CachedServingSavesOpsAndFlushesOnReconfigure) {
  Fixture f = MakeFixture({4, 4}, 10);
  DynamicOptions options;
  options.min_queries_between_reconfigs = 8;
  options.drift_threshold = 0.5;
  options.cache.enabled = true;
  auto assembler = DynamicAssembler::Make(f.shape, f.cube, options);
  ASSERT_TRUE(assembler.ok());
  ASSERT_NE((*assembler)->cache(), nullptr);

  ElementComputer computer(f.shape, &f.cube);
  auto hot = ElementId::AggregatedView(0b10, f.shape);
  auto expected = computer.Compute(*hot);
  for (int i = 0; i < 20; ++i) {
    OpCounter ops;
    auto got = (*assembler)->Query(*hot, &ops);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(got->ApproxEquals(*expected, 1e-9)) << "query " << i;
    if (i > 0 && (*assembler)->reconfiguration_count() == 0) {
      // Before any reconfiguration, repeats are pure cache hits.
      EXPECT_EQ(ops.adds, 0u) << "query " << i;
    }
  }
  const ServeMetrics metrics = (*assembler)->serve_metrics();
  EXPECT_GT(metrics.hits, 0u);
  EXPECT_GT(metrics.assembly_ops_saved, 0u);
  EXPECT_GE((*assembler)->reconfiguration_count(), 1u);
  EXPECT_GT(metrics.invalidations, 0u);  // the reconfiguration flushed
}

// Regression: a foreign-shape id must not reach the planner's memo tables.
TEST(DynamicTest, ForeignShapeViewRejected) {
  Fixture f = MakeFixture({4, 4}, 11);
  for (const bool cached : {false, true}) {
    DynamicOptions options;
    options.cache.enabled = cached;
    auto assembler = DynamicAssembler::Make(f.shape, f.cube, options);
    ASSERT_TRUE(assembler.ok());
    auto wide = CubeShape::Make({64, 64});
    ASSERT_TRUE(wide.ok());
    auto foreign = ElementId::Make({{6, 63}, {6, 63}}, *wide);
    ASSERT_TRUE(foreign.ok());
    EXPECT_TRUE((*assembler)->Query(*foreign).status().IsInvalidArgument());
    EXPECT_EQ((*assembler)->queries_served(), 0u);
  }
}

}  // namespace
}  // namespace vecube
