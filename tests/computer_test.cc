#include "core/computer.h"

#include <gtest/gtest.h>

#include "core/basis.h"
#include "cube/synthetic.h"
#include "haar/fused.h"
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
  auto cube = UniformIntegerCube(*shape, &rng, -9, 9);
  EXPECT_TRUE(cube.ok());
  return Fixture{*shape, std::move(cube).value()};
}

TEST(ComputerTest, RootIsTheCube) {
  Fixture f = MakeFixture({4, 4}, 1);
  ElementComputer computer(f.shape, &f.cube);
  auto root = computer.Compute(ElementId::Root(2));
  ASSERT_TRUE(root.ok());
  EXPECT_TRUE(root->ApproxEquals(f.cube, 0.0));
}

TEST(ComputerTest, MatchesCascadePath) {
  Fixture f = MakeFixture({8, 4}, 2);
  ElementComputer computer(f.shape, &f.cube);
  auto id = ElementId::Make({{2, 1}, {1, 0}}, f.shape);
  auto direct = CascadeAnalysis(f.cube, id->PathFromRoot());
  auto computed = computer.Compute(*id);
  ASSERT_TRUE(computed.ok());
  EXPECT_TRUE(computed->ApproxEquals(*direct, 0.0));
}

TEST(ComputerTest, AggregatedViewMatchesAggregateDims) {
  Fixture f = MakeFixture({4, 8, 2}, 3);
  ElementComputer computer(f.shape, &f.cube);
  auto view = ElementId::AggregatedView(0b101, f.shape);  // dims 0 and 2
  // Total aggregation of dims 0 (extent 4) and 2 (extent 2).
  auto expected = CascadeAnalysis(
      f.cube, {CascadeStep{0, StepKind::kPartial},
               CascadeStep{0, StepKind::kPartial},
               CascadeStep{2, StepKind::kPartial}});
  auto computed = computer.Compute(*view);
  ASSERT_TRUE(computed.ok());
  EXPECT_TRUE(computed->ApproxEquals(*expected, 0.0));
}

TEST(ComputerTest, GrandTotalElement) {
  Fixture f = MakeFixture({4, 4}, 4);
  ElementComputer computer(f.shape, &f.cube);
  auto total = computer.Compute(*ElementId::AggregatedView(0b11, f.shape));
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(total->size(), 1u);
  EXPECT_DOUBLE_EQ((*total)[0], f.cube.Total());
}

TEST(ComputerTest, CacheSharesPrefixes) {
  Fixture f = MakeFixture({16}, 5);
  ElementComputer computer(f.shape, &f.cube);
  OpCounter ops;
  auto p3 = computer.Compute(*ElementId::Make({{3, 0}}, f.shape), &ops);
  ASSERT_TRUE(p3.ok());
  const uint64_t first = ops.adds;   // 8 + 4 + 2
  EXPECT_EQ(first, 14u);
  auto p2 = computer.Compute(*ElementId::Make({{2, 0}}, f.shape), &ops);
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(ops.adds, first);  // cache hit: no extra work
}

TEST(ComputerTest, ClearCache) {
  Fixture f = MakeFixture({8}, 6);
  ElementComputer computer(f.shape, &f.cube);
  ASSERT_TRUE(computer.Compute(*ElementId::Make({{2, 0}}, f.shape)).ok());
  EXPECT_GT(computer.CacheSize(), 0u);
  computer.ClearCache();
  EXPECT_EQ(computer.CacheSize(), 0u);
}

TEST(ComputerTest, MaterializeWaveletBasis) {
  Fixture f = MakeFixture({4, 4}, 7);
  ElementComputer computer(f.shape, &f.cube);
  const auto basis = WaveletBasisSet(f.shape);
  auto store = computer.Materialize(basis);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store->size(), basis.size());
  EXPECT_EQ(store->StorageCells(), f.shape.volume());
}

TEST(ComputerTest, InvalidIdRejected) {
  Fixture f = MakeFixture({4}, 8);
  ElementComputer computer(f.shape, &f.cube);
  // Level 3 exceeds the depth-2 cascade of extent 4 at construction time.
  EXPECT_FALSE(ElementId::Make({{3, 0}}, f.shape).ok());
  // A valid id computes fine; an arity mismatch is rejected.
  EXPECT_TRUE(computer.Compute(*ElementId::Make({{1, 0}}, f.shape)).ok());
  EXPECT_FALSE(computer.Compute(ElementId::Root(3)).ok());
}

}  // namespace
}  // namespace vecube
