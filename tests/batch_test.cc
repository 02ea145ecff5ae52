#include <gtest/gtest.h>

#include <cstring>

#include "core/assembly.h"
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
  ElementStore store;
};

Fixture MakeFixture(const std::vector<ElementId>& set, uint64_t seed) {
  auto shape = CubeShape::Make({8, 8});
  EXPECT_TRUE(shape.ok());
  Rng rng(seed);
  auto cube = UniformIntegerCube(*shape, &rng, -9, 9);
  EXPECT_TRUE(cube.ok());
  ElementComputer computer(*shape, &*cube);
  auto store = computer.Materialize(set);
  EXPECT_TRUE(store.ok());
  return Fixture{*shape, std::move(cube).value(), std::move(store).value()};
}

TEST(BatchAssemblyTest, MatchesIndividualAssemblies) {
  auto shape = CubeShape::Make({8, 8});
  Fixture f = MakeFixture(WaveletBasisSet(*shape), 1);
  AssemblyEngine engine(&f.store);
  const auto views = ViewElementGraph(f.shape).AggregatedViews();
  auto batch = engine.AssembleBatch(views);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), views.size());
  for (size_t i = 0; i < views.size(); ++i) {
    auto single = engine.Assemble(views[i]);
    ASSERT_TRUE(single.ok());
    EXPECT_TRUE((*batch)[i].ApproxEquals(*single, 0.0)) << i;
  }
}

TEST(BatchAssemblyTest, SharingNeverCostsMore) {
  auto shape = CubeShape::Make({8, 8});
  Fixture f = MakeFixture(WaveletBasisSet(*shape), 2);
  AssemblyEngine engine(&f.store);
  const auto views = ViewElementGraph(f.shape).AggregatedViews();

  OpCounter individual;
  for (const ElementId& view : views) {
    ASSERT_TRUE(engine.Assemble(view, &individual).ok());
  }
  OpCounter batched;
  ASSERT_TRUE(engine.AssembleBatch(views, &batched).ok());
  EXPECT_LE(batched.adds, individual.adds);
}

TEST(BatchAssemblyTest, SharingSavesWorkOnOverlappingTargets) {
  // From the wavelet basis, views along each dimension all pass through
  // the same coarse intermediates; batching must reuse them. Use the
  // root as both a target and an implied sub-result.
  auto shape = CubeShape::Make({8, 8});
  Fixture f = MakeFixture(WaveletBasisSet(*shape), 3);
  AssemblyEngine engine(&f.store);
  const ElementId root = ElementId::Root(2);
  auto v1 = ElementId::AggregatedView(0b01, f.shape);
  auto v2 = ElementId::AggregatedView(0b10, f.shape);

  OpCounter individual;
  ASSERT_TRUE(engine.Assemble(root, &individual).ok());
  ASSERT_TRUE(engine.Assemble(*v1, &individual).ok());
  ASSERT_TRUE(engine.Assemble(*v2, &individual).ok());

  OpCounter batched;
  ASSERT_TRUE(engine.AssembleBatch({root, *v1, *v2}, &batched).ok());
  EXPECT_LT(batched.adds, individual.adds);
}

TEST(BatchAssemblyTest, DuplicateTargetsAreFreeSecondTime) {
  auto shape = CubeShape::Make({8, 8});
  const ElementId root = ElementId::Root(2);
  auto p = root.Child(0, StepKind::kPartial, *shape);
  auto r = root.Child(0, StepKind::kResidual, *shape);
  Fixture f = MakeFixture({*p, *r}, 4);
  AssemblyEngine engine(&f.store);
  OpCounter once, twice;
  ASSERT_TRUE(engine.AssembleBatch({root}, &once).ok());
  ASSERT_TRUE(engine.AssembleBatch({root, root}, &twice).ok());
  EXPECT_EQ(once.adds, twice.adds);
}

TEST(BatchAssemblyTest, ErrorsPropagate) {
  auto shape = CubeShape::Make({8, 8});
  auto p = ElementId::Root(2).Child(0, StepKind::kPartial, *shape);
  Fixture f = MakeFixture({*p}, 5);  // incomplete store
  AssemblyEngine engine(&f.store);
  auto batch = engine.AssembleBatch({*p, ElementId::Root(2)});
  ASSERT_FALSE(batch.ok());
  EXPECT_TRUE(batch.status().IsIncomplete());
  EXPECT_FALSE(engine.AssembleBatch({ElementId::Root(3)}).ok());
}

// The store shape of perfbench's cold_assembly set-up on an 8^4 cube:
// three dim-1 elements from which every view keeping dimension 1 is
// synthesized, the cube itself in two stages. `complete = false` drops
// (0@0, 2@1, 0@0, 0@0), so those views become unreachable.
Fixture MakeColdAssemblyFixture(bool complete) {
  auto shape = CubeShape::MakeSquare(4, 8);
  EXPECT_TRUE(shape.ok());
  std::vector<ElementId> set;
  for (const DimCode code : {DimCode{1, 1}, DimCode{2, 0}, DimCode{2, 1}}) {
    auto id = ElementId::Make({{0, 0}, code, {0, 0}, {0, 0}}, *shape);
    EXPECT_TRUE(id.ok());
    set.push_back(*id);
  }
  if (!complete) set.pop_back();
  Rng rng(21);
  auto cube = UniformIntegerCube(*shape, &rng, -9, 9);
  EXPECT_TRUE(cube.ok());
  ElementComputer computer(*shape, &*cube);
  auto store = computer.Materialize(set);
  EXPECT_TRUE(store.ok());
  return Fixture{*shape, std::move(cube).value(), std::move(store).value()};
}

// All 16 aggregated views, then all of them again in reverse order, then
// the dim-1 P-child of each view that keeps dimension 1. Those children
// are synthesized sub-results of the views before them, so as targets
// they are read back from entries other targets computed.
std::vector<ElementId> ViewsWithDuplicates(const CubeShape& shape) {
  const std::vector<ElementId> views =
      ViewElementGraph(shape).AggregatedViews();
  std::vector<ElementId> targets = views;
  targets.insert(targets.end(), views.rbegin(), views.rend());
  for (const ElementId& view : views) {
    if (view.dim(1).level != 0) continue;
    auto child = view.Child(1, StepKind::kPartial, shape);
    EXPECT_TRUE(child.ok());
    targets.push_back(*child);
  }
  return targets;
}

bool SameBits(const Tensor& a, const Tensor& b) {
  return a.extents() == b.extents() &&
         std::memcmp(a.raw(), b.raw(), a.size() * sizeof(double)) == 0;
}

// Shared adds of the batch above: every distinct sub-element once.
constexpr uint64_t kColdAssemblyBatchAdds = 43147;

TEST(BatchAssemblyTest, PooledBatchMatchesSerialAssembleBitForBit) {
  Fixture f = MakeColdAssemblyFixture(true);
  const std::vector<ElementId> targets = ViewsWithDuplicates(f.shape);
  ASSERT_EQ(targets.size(), 40u);
  AssemblyEngine serial(&f.store);
  OpCounter serial_ops;
  auto serial_batch = serial.AssembleBatch(targets, &serial_ops);
  ASSERT_TRUE(serial_batch.ok());
  EXPECT_EQ(serial_ops.adds, kColdAssemblyBatchAdds);

  ThreadPool pool(4);
  for (const uint32_t shards : {1u, 4u}) {
    AssemblyEngine pooled(&f.store, &pool, shards);
    OpCounter ops;
    auto batch = pooled.AssembleBatch(targets, &ops);
    ASSERT_TRUE(batch.ok());
    ASSERT_EQ(batch->size(), targets.size());
    EXPECT_EQ(ops.adds, serial_ops.adds) << "shards=" << shards;
    for (size_t i = 0; i < targets.size(); ++i) {
      auto single = serial.Assemble(targets[i]);
      ASSERT_TRUE(single.ok());
      EXPECT_TRUE(SameBits((*batch)[i], *single))
          << "shards=" << shards << " " << targets[i].ToString();
      EXPECT_TRUE(SameBits((*batch)[i], (*serial_batch)[i]));
    }
  }
}

TEST(BatchAssemblyTest, PooledIncompleteStorePropagatesIncomplete) {
  // Views that aggregate dimension 1 still aggregate down from a stored
  // element; the others fail mid-batch while their siblings' borrowed
  // and entry-owned results are live.
  Fixture f = MakeColdAssemblyFixture(false);
  const std::vector<ElementId> targets = ViewsWithDuplicates(f.shape);
  ThreadPool pool(4);
  for (const uint32_t shards : {1u, 4u}) {
    AssemblyEngine pooled(&f.store, &pool, shards);
    OpCounter ops;
    auto batch = pooled.AssembleBatch(targets, &ops);
    ASSERT_FALSE(batch.ok());
    EXPECT_TRUE(batch.status().IsIncomplete()) << batch.status().ToString();
  }
}

}  // namespace
}  // namespace vecube
