// Exact reproduction of the paper's pedagogical example (Section 7.1,
// Figure 7 and Table 2): the 2x2 data cube whose view element graph has
// nine elements, with queries V1 and V7 equally likely.
//
// Element labels (derived from the constraints of Table 2; see DESIGN.md):
//   V0 = A = (I, I)        V1 = (P, I)   V4 = (R, I)
//   V7 = (I, P)            V8 = (I, R)
//   V2 = (P, P) = S(A)     V3 = (P, R)   V5 = (R, P)   V6 = (R, R)
// where per dimension I = untouched, P = partial sum, R = residual.

#include <gtest/gtest.h>

#include "core/basis.h"
#include "oracle/procedure3.h"
#include "select/algorithm1.h"
#include "select/pair_cost.h"
#include "workload/population.h"

namespace vecube {
namespace {

class PedagogicalExample : public ::testing::Test {
 protected:
  void SetUp() override {
    auto shape = CubeShape::Make({2, 2});
    ASSERT_TRUE(shape.ok());
    shape_ = *shape;
    auto make = [&](uint32_t l0, uint32_t o0, uint32_t l1, uint32_t o1) {
      auto id = ElementId::Make({{l0, o0}, {l1, o1}}, shape_);
      EXPECT_TRUE(id.ok());
      return *id;
    };
    v_ = {make(0, 0, 0, 0),   // V0 = A
          make(1, 0, 0, 0),   // V1 = (P, I)
          make(1, 0, 1, 0),   // V2 = (P, P)
          make(1, 0, 1, 1),   // V3 = (P, R)
          make(1, 1, 0, 0),   // V4 = (R, I)
          make(1, 1, 1, 0),   // V5 = (R, P)
          make(1, 1, 1, 1),   // V6 = (R, R)
          make(0, 0, 1, 0),   // V7 = (I, P)
          make(0, 0, 1, 1)};  // V8 = (I, R)
    auto pop = FixedPopulation({{v_[1], 0.5}, {v_[7], 0.5}}, shape_);
    ASSERT_TRUE(pop.ok());
    population_ = *pop;
  }

  // Table-2 processing cost: total operations to generate each queried
  // view once (Procedure 3 with unit weights == 2x the f-weighted cost).
  uint64_t ProcessingCost(const std::vector<ElementId>& set) {
    auto calc = Procedure3Calculator::Make(shape_, set);
    EXPECT_TRUE(calc.ok());
    const uint64_t c1 = calc->Cost(v_[1]);
    const uint64_t c7 = calc->Cost(v_[7]);
    EXPECT_NE(c1, kInfiniteCost);
    EXPECT_NE(c7, kInfiniteCost);
    return c1 + c7;
  }

  CubeShape shape_;
  std::vector<ElementId> v_;
  QueryPopulation population_;
};

TEST_F(PedagogicalExample, GraphHasNineElements) {
  // (2n-1)^2 = 9 elements for the 2x2 cube; 4 aggregated views.
  EXPECT_EQ((2u * 2 - 1) * (2u * 2 - 1), 9u);
  EXPECT_TRUE(v_[0].IsRoot());
  EXPECT_TRUE(v_[1].IsAggregatedView(shape_));
  EXPECT_TRUE(v_[2].IsAggregatedView(shape_));  // the total aggregation
  EXPECT_TRUE(v_[7].IsAggregatedView(shape_));
  EXPECT_TRUE(v_[3].IsResidual());
  EXPECT_TRUE(v_[4].IsResidual());
}

// --- Table 2, row by row -------------------------------------------------

TEST_F(PedagogicalExample, Row1_V3V6V7) {
  const std::vector<ElementId> set{v_[3], v_[6], v_[7]};
  EXPECT_TRUE(IsNonRedundantBasis(set, shape_));
  EXPECT_EQ(ProcessingCost(set), 3u);
  EXPECT_EQ(StorageVolume(set, shape_), 4u);
}

TEST_F(PedagogicalExample, Row2_V1V5V6) {
  const std::vector<ElementId> set{v_[1], v_[5], v_[6]};
  EXPECT_TRUE(IsNonRedundantBasis(set, shape_));
  EXPECT_EQ(ProcessingCost(set), 3u);
  EXPECT_EQ(StorageVolume(set, shape_), 4u);
}

TEST_F(PedagogicalExample, Row3_V0) {
  const std::vector<ElementId> set{v_[0]};
  EXPECT_TRUE(IsNonRedundantBasis(set, shape_));
  EXPECT_EQ(ProcessingCost(set), 4u);
  EXPECT_EQ(StorageVolume(set, shape_), 4u);
}

TEST_F(PedagogicalExample, Row4_V1V4) {
  const std::vector<ElementId> set{v_[1], v_[4]};
  EXPECT_TRUE(IsNonRedundantBasis(set, shape_));
  EXPECT_EQ(ProcessingCost(set), 4u);
  EXPECT_EQ(StorageVolume(set, shape_), 4u);
}

TEST_F(PedagogicalExample, Row5_V7V8) {
  const std::vector<ElementId> set{v_[7], v_[8]};
  EXPECT_TRUE(IsNonRedundantBasis(set, shape_));
  EXPECT_EQ(ProcessingCost(set), 4u);
  EXPECT_EQ(StorageVolume(set, shape_), 4u);
}

TEST_F(PedagogicalExample, Row6_V2V3V5V6) {
  const std::vector<ElementId> set{v_[2], v_[3], v_[5], v_[6]};
  EXPECT_TRUE(IsNonRedundantBasis(set, shape_));
  EXPECT_EQ(ProcessingCost(set), 4u);
  EXPECT_EQ(StorageVolume(set, shape_), 4u);
}

TEST_F(PedagogicalExample, Row7_V0V1V7_RedundantBasis) {
  const std::vector<ElementId> set{v_[0], v_[1], v_[7]};
  EXPECT_TRUE(IsComplete(set, shape_));
  EXPECT_FALSE(IsNonRedundant(set, shape_));
  EXPECT_EQ(ProcessingCost(set), 0u);
  EXPECT_EQ(StorageVolume(set, shape_), 8u);
}

TEST_F(PedagogicalExample, Row8_V1V7_RedundantIncomplete) {
  const std::vector<ElementId> set{v_[1], v_[7]};
  EXPECT_FALSE(IsComplete(set, shape_));
  EXPECT_FALSE(IsNonRedundant(set, shape_));
  EXPECT_EQ(ProcessingCost(set), 0u);
  EXPECT_EQ(StorageVolume(set, shape_), 4u);
  // And it really cannot construct all views: the root is unreachable.
  auto calc = Procedure3Calculator::Make(shape_, set);
  EXPECT_EQ(calc->Cost(v_[0]), kInfiniteCost);
}

TEST_F(PedagogicalExample, Row9_V3V7_NonRedundantIncomplete) {
  const std::vector<ElementId> set{v_[3], v_[7]};
  EXPECT_FALSE(IsComplete(set, shape_));
  EXPECT_TRUE(IsNonRedundant(set, shape_));
  EXPECT_EQ(ProcessingCost(set), 3u);
  EXPECT_EQ(StorageVolume(set, shape_), 3u);
}

TEST_F(PedagogicalExample, Row10_V2V3V5_NonRedundantIncomplete) {
  const std::vector<ElementId> set{v_[2], v_[3], v_[5]};
  EXPECT_FALSE(IsComplete(set, shape_));
  EXPECT_TRUE(IsNonRedundant(set, shape_));
  EXPECT_EQ(ProcessingCost(set), 4u);
  EXPECT_EQ(StorageVolume(set, shape_), 3u);
}

// --- The example's headline claims ---------------------------------------

TEST_F(PedagogicalExample, PairModelAgreesOnNonRedundantBases) {
  // For the non-redundant bases of Table 2, the Eq.-27 pair model equals
  // the Procedure-3 tree cost (single synthesis stage).
  const std::vector<std::vector<ElementId>> bases = {
      {v_[3], v_[6], v_[7]}, {v_[1], v_[5], v_[6]}, {v_[0]},
      {v_[1], v_[4]},        {v_[7], v_[8]},        {v_[2], v_[3], v_[5], v_[6]},
  };
  for (const auto& set : bases) {
    EXPECT_EQ(UnweightedPairCost(set, {v_[1], v_[7]}, shape_),
              ProcessingCost(set));
  }
}

TEST_F(PedagogicalExample, Algorithm1FindsAMinimumCostBasis) {
  auto selection = SelectMinCostBasis(shape_, population_);
  ASSERT_TRUE(selection.ok());
  EXPECT_TRUE(IsNonRedundantBasis(selection->basis, shape_));
  // Weighted cost 1.5 == unweighted 3, the optimum of Table 2.
  EXPECT_DOUBLE_EQ(selection->predicted_cost, 1.5);
  EXPECT_EQ(ProcessingCost(selection->basis), 3u);
}

TEST_F(PedagogicalExample, MaterializingViewsOnlyIsWorse) {
  // "without using view elements, the processing cost is reduced only by
  // increasing the storage cost": the best element basis beats the cube
  // at equal storage.
  EXPECT_LT(ProcessingCost({v_[3], v_[6], v_[7]}), ProcessingCost({v_[0]}));
  EXPECT_EQ(StorageVolume({v_[3], v_[6], v_[7]}, shape_),
            StorageVolume({v_[0]}, shape_));
}

}  // namespace
}  // namespace vecube
