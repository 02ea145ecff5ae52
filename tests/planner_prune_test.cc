// Oracle tests for the planner's prune: Procedure3Planner expands a node's
// synthesis cones only when a stored element is finer than the node and
// comparable with it. The exhaustive Procedure3Calculator (tests/oracle) is
// the oracle: on random redundant stores every node's PlanCost must equal
// its Procedure-3 cost, Assemble must book exactly that many adds, the
// result must be bit-identical to the direct cascade, and the elements the
// recorded plan reads must reach the same cost on their own.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "core/assembly.h"
#include "core/computer.h"
#include "core/graph.h"
#include "core/planner.h"
#include "cube/synthetic.h"
#include "oracle/procedure3.h"
#include "util/rng.h"

namespace vecube {
namespace {

CubeShape Shape(std::vector<uint32_t> extents) {
  auto s = CubeShape::Make(std::move(extents));
  EXPECT_TRUE(s.ok());
  return *s;
}

// Random guillotine tiling of `id`: a complete, non-redundant basis.
void RandomTiling(const ElementId& id, const CubeShape& shape, Rng* rng,
                  std::vector<ElementId>* out) {
  std::vector<uint32_t> splittable;
  for (uint32_t m = 0; m < id.ndim(); ++m) {
    if (id.CanSplit(m, shape)) splittable.push_back(m);
  }
  if (splittable.empty() || rng->UniformDouble() < 0.3) {
    out->push_back(id);
    return;
  }
  const uint32_t m =
      splittable[static_cast<size_t>(rng->UniformU64(splittable.size()))];
  RandomTiling(*id.Child(m, StepKind::kPartial, shape), shape, rng, out);
  RandomTiling(*id.Child(m, StepKind::kResidual, shape), shape, rng, out);
}

// A random complete basis plus one to four random extra elements.
std::vector<ElementId> RandomRedundantStore(const CubeShape& shape,
                                            const ElementIndexer& indexer,
                                            Rng* rng) {
  std::vector<ElementId> set;
  RandomTiling(ElementId::Root(shape.ndim()), shape, rng, &set);
  const uint64_t extras = 1 + rng->UniformU64(4);
  for (uint64_t i = 0; i < extras; ++i) {
    set.push_back(indexer.Decode(rng->UniformU64(indexer.size())));
  }
  std::sort(set.begin(), set.end());
  set.erase(std::unique(set.begin(), set.end()), set.end());
  return set;
}

class PlannerPruneOracle
    : public ::testing::TestWithParam<std::vector<uint32_t>> {};

TEST_P(PlannerPruneOracle, EveryNodeMatchesProcedure3OnRedundantStores) {
  const CubeShape shape = Shape(GetParam());
  Rng rng(1998);
  auto cube = UniformIntegerCube(shape, &rng, -30, 30);
  ASSERT_TRUE(cube.ok());
  ElementComputer computer(shape, &*cube);
  ViewElementGraph graph(shape);
  std::map<ElementId, Tensor> expected;
  graph.ForEachElement([&](const ElementId& id) {
    auto data = computer.Compute(id);
    ASSERT_TRUE(data.ok());
    expected.emplace(id, std::move(data).value());
  });

  const ElementIndexer indexer(shape);
  for (int trial = 0; trial < 50; ++trial) {
    const std::vector<ElementId> set =
        RandomRedundantStore(shape, indexer, &rng);
    auto store = computer.Materialize(set);
    ASSERT_TRUE(store.ok());
    AssemblyEngine engine(&*store);
    auto oracle = Procedure3Calculator::Make(shape, set);
    ASSERT_TRUE(oracle.ok());
    auto planner = Procedure3Planner::Make(shape, set);
    ASSERT_TRUE(planner.ok());
    for (const auto& [id, data] : expected) {
      const uint64_t cost = oracle->Cost(id);
      ASSERT_EQ(engine.PlanCost(id), cost)
          << "trial " << trial << " node " << id.ToString();
      ASSERT_NE(cost, kInfiniteCost);  // the basis is complete
      OpCounter ops;
      auto got = engine.Assemble(id, &ops);
      ASSERT_TRUE(got.ok()) << id.ToString();
      EXPECT_EQ(ops.adds, cost) << "trial " << trial << " " << id.ToString();
      EXPECT_TRUE(got->ApproxEquals(data, 0.0))
          << "trial " << trial << " " << id.ToString();
      // The used set is part of the store and, alone, just as cheap. (Ties
      // may pick a different used set than the oracle's, so compare costs.)
      auto used = planner->UsedElements({id});
      ASSERT_TRUE(used.ok()) << id.ToString();
      for (const ElementId& u : *used) {
        ASSERT_TRUE(std::binary_search(set.begin(), set.end(), u))
            << "trial " << trial << " " << u.ToString();
      }
      auto reduced = Procedure3Planner::Make(shape, *used);
      ASSERT_TRUE(reduced.ok());
      EXPECT_EQ(reduced->Cost(id), cost)
          << "trial " << trial << " " << id.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, PlannerPruneOracle,
                         ::testing::Values(std::vector<uint32_t>{8, 4, 4},
                                           std::vector<uint32_t>{4, 4, 4},
                                           std::vector<uint32_t>{2, 2, 2, 2,
                                                                  2, 2}));

// The prune must look at every stored element comparable with the node,
// not only at its stored descendants. Here the store is the two halves of
// the cube along dimension 0, and the target halves dimension 1: neither
// stored element is a descendant of it, yet each is finer along dimension
// 0, and synthesizing the target from them costs 8 + 4 + 4 = 16.
TEST(PlannerPruneTest, CousinStoreSynthesizesTarget) {
  const CubeShape shape = Shape({4, 4});
  Rng rng(7);
  auto cube = UniformIntegerCube(shape, &rng, -9, 9);
  ASSERT_TRUE(cube.ok());
  ElementComputer computer(shape, &*cube);
  const std::vector<ElementId> set = {
      *ElementId::Make({{1, 0}, {0, 0}}, shape),
      *ElementId::Make({{1, 1}, {0, 0}}, shape)};
  auto store = computer.Materialize(set);
  ASSERT_TRUE(store.ok());
  AssemblyEngine engine(&*store);
  const ElementId target = *ElementId::Make({{0, 0}, {1, 0}}, shape);
  EXPECT_EQ(engine.PlanCost(target), 16u);
  EXPECT_EQ(Procedure3Calculator::Make(shape, set)->Cost(target), 16u);
  OpCounter ops;
  auto got = engine.Assemble(target, &ops);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(ops.adds, 16u);
  EXPECT_TRUE(got->ApproxEquals(*computer.Compute(target), 0.0));
}

// A store of 257 elements on one 2^18 dimension: the prune scans them all
// for every node it expands, and every plan must stay exact.
TEST(PlannerPruneTest, ManyElementStorePlansExactly) {
  const CubeShape shape = Shape({1u << 18});
  Rng rng(11);
  auto cube = UniformIntegerCube(shape, &rng, -9, 9);
  ASSERT_TRUE(cube.ok());
  ElementComputer computer(shape, &*cube);
  std::vector<ElementId> set;
  for (uint32_t o = 0; o < 256; ++o) {
    set.push_back(*ElementId::Make({{8, o}}, shape));
  }
  set.push_back(*ElementId::Make({{3, 5}}, shape));
  auto store = computer.Materialize(set);
  ASSERT_TRUE(store.ok());
  AssemblyEngine engine(&*store);
  auto oracle = Procedure3Calculator::Make(shape, set);
  ASSERT_TRUE(oracle.ok());
  for (uint32_t level = 0; level <= 10; ++level) {
    for (uint32_t o = 0; o < (1u << level); ++o) {
      const ElementId id = *ElementId::Make({{level, o}}, shape);
      ASSERT_EQ(engine.PlanCost(id), oracle->Cost(id)) << id.ToString();
    }
  }
  for (const DimCode code : {DimCode{0, 0}, DimCode{3, 5}, DimCode{4, 11},
                             DimCode{9, 7}, DimCode{12, 100}}) {
    const ElementId id = *ElementId::Make({code}, shape);
    OpCounter ops;
    auto got = engine.Assemble(id, &ops);
    ASSERT_TRUE(got.ok()) << id.ToString();
    EXPECT_EQ(ops.adds, oracle->Cost(id)) << id.ToString();
    EXPECT_TRUE(got->ApproxEquals(*computer.Compute(id), 0.0))
        << id.ToString();
  }
}

}  // namespace
}  // namespace vecube
