// Cross-module property tests: the paper's four operator properties
// (perfect reconstruction, non-expansiveness, distributivity,
// separability) plus system-level invariants, swept over shapes and seeds
// with parameterized gtest.

#include <gtest/gtest.h>

#include "core/assembly.h"
#include "core/basis.h"
#include "core/computer.h"
#include "core/graph.h"
#include "cube/synthetic.h"
#include "haar/fused.h"
#include "oracle/procedure3.h"
#include "select/algorithm1.h"
#include "select/pair_cost.h"
#include "util/rng.h"
#include "workload/population.h"

namespace vecube {
namespace {

struct Param {
  std::vector<uint32_t> extents;
  uint64_t seed;
};

void PrintTo(const Param& p, std::ostream* os) {
  *os << "{[";
  for (size_t i = 0; i < p.extents.size(); ++i) {
    if (i) *os << "x";
    *os << p.extents[i];
  }
  *os << "], seed=" << p.seed << "}";
}

class CubeProperty : public ::testing::TestWithParam<Param> {
 protected:
  void SetUp() override {
    auto shape = CubeShape::Make(GetParam().extents);
    ASSERT_TRUE(shape.ok());
    shape_ = *shape;
    Rng rng(GetParam().seed);
    auto cube = UniformIntegerCube(shape_, &rng, -25, 25);
    ASSERT_TRUE(cube.ok());
    cube_ = std::move(cube).value();
  }

  CubeShape shape_;
  Tensor cube_;
};

TEST_P(CubeProperty, PerfectReconstructionThroughFullWaveletRoundTrip) {
  ElementComputer computer(shape_, &cube_);
  auto store = computer.Materialize(WaveletBasisSet(shape_));
  ASSERT_TRUE(store.ok());
  AssemblyEngine engine(&*store);
  auto back = engine.Assemble(ElementId::Root(shape_.ndim()));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->ApproxEquals(cube_, 0.0));
}

TEST_P(CubeProperty, NonExpansivenessOfEverySplit) {
  ViewElementGraph graph(shape_);
  graph.ForEachElement([&](const ElementId& id) {
    for (uint32_t m = 0; m < shape_.ndim(); ++m) {
      if (!id.CanSplit(m, shape_)) continue;
      auto p = id.Child(m, StepKind::kPartial, shape_);
      auto r = id.Child(m, StepKind::kResidual, shape_);
      EXPECT_EQ(p->DataVolume(shape_) + r->DataVolume(shape_),
                id.DataVolume(shape_));
    }
  });
}

TEST_P(CubeProperty, SeparabilityOfRandomCascades) {
  // A random cascade and a per-dimension-stable permutation of it agree.
  Rng rng(GetParam().seed + 1000);
  std::vector<CascadeStep> steps;
  std::vector<uint32_t> level(shape_.ndim(), 0);
  for (int tries = 0; tries < 8; ++tries) {
    const uint32_t m = static_cast<uint32_t>(rng.UniformU64(shape_.ndim()));
    if (level[m] >= shape_.log_extent(m)) continue;
    ++level[m];
    steps.push_back(CascadeStep{
        m, rng.UniformU64(2) ? StepKind::kPartial : StepKind::kResidual});
  }
  // Stable-partition the steps by dimension: relative per-dim order kept.
  std::vector<CascadeStep> permuted;
  for (uint32_t m = 0; m < shape_.ndim(); ++m) {
    for (const CascadeStep& s : steps) {
      if (s.dim == m) permuted.push_back(s);
    }
  }
  auto a = CascadeAnalysis(cube_, steps);
  auto b = CascadeAnalysis(cube_, permuted);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(a->ApproxEquals(*b, 0.0));
}

TEST_P(CubeProperty, EveryAggregatedViewMatchesBruteForce) {
  ElementComputer computer(shape_, &cube_);
  const uint32_t d = shape_.ndim();
  for (uint32_t mask = 0; mask < (1u << d); ++mask) {
    auto view = ElementId::AggregatedView(mask, shape_);
    auto fast = computer.Compute(*view);
    ASSERT_TRUE(fast.ok());
    // Brute force: sum cells into the reduced coordinates.
    auto slow = Tensor::Zeros(view->DataExtents(shape_));
    for (uint64_t flat = 0; flat < cube_.size(); ++flat) {
      auto coords = shape_.Coords(flat);
      for (uint32_t m = 0; m < d; ++m) {
        if ((mask >> m) & 1u) coords[m] = 0;
      }
      (*slow)[slow->FlatIndex(coords)] += cube_[flat];
    }
    EXPECT_TRUE(fast->ApproxEquals(*slow, 1e-9)) << "mask " << mask;
  }
}

TEST_P(CubeProperty, Algorithm1BasisAlwaysValidAndCheapest) {
  Rng rng(GetParam().seed + 2000);
  auto pop = RandomViewPopulation(shape_, &rng);
  auto selection = SelectMinCostBasis(shape_, *pop);
  ASSERT_TRUE(selection.ok());
  EXPECT_TRUE(IsNonRedundantBasis(selection->basis, shape_));
  // Storage is exactly non-expansive.
  EXPECT_EQ(StorageVolume(selection->basis, shape_), shape_.volume());
  // No worse than the canned non-redundant bases.
  EXPECT_LE(selection->predicted_cost,
            PopulationPairCost(CubeOnlySet(shape_), *pop, shape_) + 1e-9);
  EXPECT_LE(selection->predicted_cost,
            PopulationPairCost(WaveletBasisSet(shape_), *pop, shape_) + 1e-9);
}

TEST_P(CubeProperty, AssemblyFromSelectedBasisIsExactAndAsPlanned) {
  Rng rng(GetParam().seed + 3000);
  auto pop = RandomViewPopulation(shape_, &rng);
  auto selection = SelectMinCostBasis(shape_, *pop);
  ASSERT_TRUE(selection.ok());
  ElementComputer computer(shape_, &cube_);
  auto store = computer.Materialize(selection->basis);
  ASSERT_TRUE(store.ok());
  AssemblyEngine engine(&*store);
  auto calc = Procedure3Calculator::Make(shape_, selection->basis);
  ASSERT_TRUE(calc.ok());
  for (const QuerySpec& q : pop->queries()) {
    auto expected = computer.Compute(q.view);
    OpCounter ops;
    auto got = engine.Assemble(q.view, &ops);
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(got->ApproxEquals(*expected, 1e-9));
    EXPECT_EQ(ops.adds, calc->Cost(q.view));
  }
}

TEST_P(CubeProperty, TotalMassPreservedByAllIntermediates) {
  // Every all-partial intermediate preserves the cube's total mass.
  ElementComputer computer(shape_, &cube_);
  for (const ElementId& id :
       ViewElementGraph(shape_).IntermediateElements()) {
    auto data = computer.Compute(id);
    ASSERT_TRUE(data.ok());
    EXPECT_NEAR(data->Total(), cube_.Total(), 1e-9) << id.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CubeProperty,
    ::testing::Values(Param{{4}, 1}, Param{{16}, 2}, Param{{2, 2}, 3},
                      Param{{4, 4}, 4}, Param{{8, 4}, 5}, Param{{2, 16}, 6},
                      Param{{4, 4, 4}, 7}, Param{{2, 4, 8}, 8},
                      Param{{2, 2, 2, 2}, 9}, Param{{4, 2, 4, 2}, 10}));

}  // namespace
}  // namespace vecube
