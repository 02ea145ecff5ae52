#include "api/session.h"

#include <gtest/gtest.h>

#include <limits>
#include <utility>

#include "core/computer.h"
#include "cube/synthetic.h"
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

TEST(SessionTest, FromCubeValidates) {
  Fixture f = MakeFixture({4, 4}, 1);
  EXPECT_TRUE(OlapSession::FromCube(f.shape, f.cube).ok());
  auto other = CubeShape::Make({8, 8});
  EXPECT_FALSE(OlapSession::FromCube(*other, f.cube).ok());
  OlapSession::Options bad;
  bad.access_decay = 0.0;
  EXPECT_FALSE(OlapSession::FromCube(f.shape, f.cube, bad).ok());
}

TEST(SessionTest, ServesViewsBeforeOptimize) {
  Fixture f = MakeFixture({4, 4}, 2);
  auto session = OlapSession::FromCube(f.shape, f.cube);
  ASSERT_TRUE(session.ok());
  ElementComputer computer(f.shape, &f.cube);
  for (uint32_t mask = 0; mask < 4; ++mask) {
    auto got = (*session)->ViewByMask(mask);
    auto expected = computer.Compute(*ElementId::AggregatedView(mask, f.shape));
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(got->ApproxEquals(*expected, 1e-9));
  }
  EXPECT_EQ((*session)->stats().queries, 4u);
}

TEST(SessionTest, OptimizeNeedsWorkloadInfo) {
  Fixture f = MakeFixture({4, 4}, 3);
  OlapSession::Options options;
  options.track_accesses = false;
  auto session = OlapSession::FromCube(f.shape, f.cube, options);
  ASSERT_TRUE(session.ok());
  EXPECT_TRUE((*session)->Optimize().IsFailedPrecondition());
}

// A workload with a NaN, infinite or overflowing frequency used to reach
// Optimize and abort the process inside Algorithm 1. It is now rejected as
// InvalidArgument before DeclareWorkload, and the session stays usable.
TEST(SessionTest, NonFiniteWorkloadIsRejectedNotFatal) {
  Fixture f = MakeFixture({4, 4}, 5);
  OlapSession::Options options;
  options.track_accesses = false;
  auto session = OlapSession::FromCube(f.shape, f.cube, options);
  ASSERT_TRUE(session.ok());
  auto a = ElementId::AggregatedView(1, f.shape);
  auto b = ElementId::AggregatedView(2, f.shape);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto& [fa, fb] : {std::pair{nan, 1.0}, std::pair{inf, 1.0},
                               std::pair{1e308, 1e308}}) {
    auto pop = FixedPopulation({{*a, fa}, {*b, fb}}, f.shape);
    ASSERT_FALSE(pop.ok()) << fa << " " << fb;
    EXPECT_TRUE(pop.status().IsInvalidArgument()) << fa << " " << fb;
  }
  EXPECT_TRUE((*session)->Optimize().IsFailedPrecondition());
  auto pop = FixedPopulation({{*a, 1.0}, {*b, 1.0}}, f.shape);
  ASSERT_TRUE(pop.ok());
  ASSERT_TRUE((*session)->DeclareWorkload(*pop).ok());
  EXPECT_TRUE((*session)->Optimize().ok());
}

TEST(SessionTest, DeclaredWorkloadDrivesOptimize) {
  Fixture f = MakeFixture({8, 8}, 4);
  auto session = OlapSession::FromCube(f.shape, f.cube);
  ASSERT_TRUE(session.ok());
  auto hot = ElementId::AggregatedView(0b01, f.shape);
  auto pop = FixedPopulation({{*hot, 1.0}}, f.shape);
  ASSERT_TRUE((*session)->DeclareWorkload(*pop).ok());
  ASSERT_TRUE((*session)->Optimize().ok());
  EXPECT_EQ((*session)->stats().optimizations, 1u);
  // The hot view must now be free.
  const uint64_t ops_before = (*session)->stats().assembly_ops;
  ASSERT_TRUE((*session)->ViewByMask(0b01).ok());
  EXPECT_EQ((*session)->stats().assembly_ops, ops_before);
  // Non-expansive: storage stayed at the cube volume.
  EXPECT_EQ((*session)->store().StorageCells(), f.shape.volume());
}

TEST(SessionTest, ObservedTrafficDrivesOptimize) {
  Fixture f = MakeFixture({8, 8}, 5);
  auto session = OlapSession::FromCube(f.shape, f.cube);
  ASSERT_TRUE(session.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE((*session)->ViewByMask(0b10).ok());
  }
  ASSERT_TRUE((*session)->Optimize().ok());
  const uint64_t ops_before = (*session)->stats().assembly_ops;
  ASSERT_TRUE((*session)->ViewByMask(0b10).ok());
  EXPECT_EQ((*session)->stats().assembly_ops, ops_before);
}

TEST(SessionTest, RedundancyBudgetZerosMultipleViews) {
  Fixture f = MakeFixture({8, 8}, 6);
  OlapSession::Options options;
  options.redundancy_budget_cells = f.shape.volume();
  auto session = OlapSession::FromCube(f.shape, f.cube, options);
  ASSERT_TRUE(session.ok());
  auto a = ElementId::AggregatedView(0b01, f.shape);
  auto b = ElementId::AggregatedView(0b10, f.shape);
  auto pop = FixedPopulation({{*a, 0.5}, {*b, 0.5}}, f.shape);
  ASSERT_TRUE((*session)->DeclareWorkload(*pop).ok());
  ASSERT_TRUE((*session)->Optimize().ok());
  const uint64_t ops_before = (*session)->stats().assembly_ops;
  ASSERT_TRUE((*session)->ViewByMask(0b01).ok());
  ASSERT_TRUE((*session)->ViewByMask(0b10).ok());
  EXPECT_EQ((*session)->stats().assembly_ops, ops_before);
  EXPECT_LE((*session)->store().StorageCells(),
            f.shape.volume() + options.redundancy_budget_cells);
}

TEST(SessionTest, RangeSumMatchesNaiveAfterOptimize) {
  Fixture f = MakeFixture({16, 16}, 7);
  auto session = OlapSession::FromCube(f.shape, f.cube);
  ASSERT_TRUE(session.ok());
  auto pop = FixedPopulation(
      {{*ElementId::AggregatedView(0b11, f.shape), 1.0}}, f.shape);
  ASSERT_TRUE((*session)->DeclareWorkload(*pop).ok());
  ASSERT_TRUE((*session)->Optimize().ok());

  auto range = RangeSpec::Make({3, 5}, {9, 7}, f.shape);
  auto fast = (*session)->RangeSum(*range);
  ASSERT_TRUE(fast.ok());
  double expected = 0.0;
  for (uint32_t x = 3; x < 12; ++x) {
    for (uint32_t y = 5; y < 12; ++y) {
      expected += f.cube.At({x, y});
    }
  }
  EXPECT_DOUBLE_EQ(*fast, expected);
  EXPECT_EQ((*session)->stats().range_queries, 1u);
  EXPECT_GT((*session)->stats().range_cell_reads, 0u);
}

TEST(SessionTest, FromRelationPipeline) {
  auto shape = CubeShape::Make({4, 4});
  auto relation = Relation::Make({"x", "y"}, {"v"});
  ASSERT_TRUE(relation->Append({1, 2}, {5.0}).ok());
  ASSERT_TRUE(relation->Append({1, 2}, {3.0}).ok());
  auto session = OlapSession::FromRelation(*relation, *shape);
  ASSERT_TRUE(session.ok());
  auto total = (*session)->ViewByMask(0b11);
  ASSERT_TRUE(total.ok());
  EXPECT_DOUBLE_EQ((*total)[0], 8.0);
}

TEST(SessionTest, ElementQueriesWork) {
  Fixture f = MakeFixture({8}, 8);
  auto session = OlapSession::FromCube(f.shape, f.cube);
  ASSERT_TRUE(session.ok());
  auto p2 = ElementId::Intermediate({2}, f.shape);
  auto got = (*session)->Element(*p2);
  ASSERT_TRUE(got.ok());
  EXPECT_DOUBLE_EQ(got->Total(), f.cube.Total());
}

// Regression: an id of the right arity made for a wider shape used to reach
// the planner's memo tables unchecked and index past them (a heap overflow
// under AddressSanitizer). Every entry point must reject it up front.
TEST(SessionTest, ForeignShapeElementRejected) {
  Fixture f = MakeFixture({4, 4}, 9);
  auto session = OlapSession::FromCube(f.shape, f.cube);
  ASSERT_TRUE(session.ok());
  auto wide = CubeShape::Make({64, 64});
  ASSERT_TRUE(wide.ok());
  auto foreign = ElementId::Make({{6, 63}, {6, 63}}, *wide);
  ASSERT_TRUE(foreign.ok());
  EXPECT_TRUE((*session)->Element(*foreign).status().IsInvalidArgument());
  EXPECT_TRUE((*session)->Query(*foreign).status().IsInvalidArgument());
  EXPECT_EQ((*session)->stats().queries, 0u);
}

}  // namespace
}  // namespace vecube
