#include "select/algorithm2.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/basis.h"
#include "core/graph.h"
#include "oracle/procedure3.h"
#include "select/algorithm1.h"
#include "util/rng.h"

namespace vecube {
namespace {

CubeShape Shape(std::vector<uint32_t> extents) {
  auto s = CubeShape::Make(std::move(extents));
  EXPECT_TRUE(s.ok());
  return *s;
}

TEST(Algorithm2Test, FrontierStartsAtInitialSet) {
  const CubeShape shape = Shape({4, 4});
  Rng rng(1);
  auto pop = RandomViewPopulation(shape, &rng);
  GreedyOptions options;
  options.storage_target_cells = shape.volume();  // no room to add
  auto frontier = GreedySelect(shape, *pop, CubeOnlySet(shape), options);
  ASSERT_TRUE(frontier.ok());
  ASSERT_EQ(frontier->size(), 1u);
  EXPECT_FALSE((*frontier)[0].added_valid);
  EXPECT_EQ((*frontier)[0].storage_cells, shape.volume());
}

TEST(Algorithm2Test, CostsMonotonicallyDecrease) {
  const CubeShape shape = Shape({4, 4});
  Rng rng(2);
  auto pop = RandomViewPopulation(shape, &rng);
  GreedyOptions options;
  options.storage_target_cells = 2 * shape.volume();
  auto frontier = GreedySelect(shape, *pop, CubeOnlySet(shape), options);
  ASSERT_TRUE(frontier.ok());
  ASSERT_GT(frontier->size(), 1u);
  for (size_t i = 1; i < frontier->size(); ++i) {
    EXPECT_LT((*frontier)[i].processing_cost,
              (*frontier)[i - 1].processing_cost);
    EXPECT_GT((*frontier)[i].storage_cells, (*frontier)[i - 1].storage_cells);
  }
}

TEST(Algorithm2Test, RespectsStorageTarget) {
  const CubeShape shape = Shape({4, 4});
  Rng rng(3);
  auto pop = RandomViewPopulation(shape, &rng);
  GreedyOptions options;
  options.storage_target_cells = shape.volume() + 5;
  auto frontier = GreedySelect(shape, *pop, CubeOnlySet(shape), options);
  ASSERT_TRUE(frontier.ok());
  for (const GreedyStep& step : *frontier) {
    EXPECT_LE(step.storage_cells, options.storage_target_cells);
  }
}

TEST(Algorithm2Test, ReachesZeroCostWithEnoughStorage) {
  const CubeShape shape = Shape({4, 4});
  Rng rng(4);
  auto pop = RandomViewPopulation(shape, &rng);
  GreedyOptions options;
  // The view hierarchy volume (n+1)^d bounds what zero cost requires.
  options.storage_target_cells = 3 * shape.volume();
  auto frontier = GreedySelect(shape, *pop, CubeOnlySet(shape), options);
  ASSERT_TRUE(frontier.ok());
  EXPECT_DOUBLE_EQ(frontier->back().processing_cost, 0.0);
}

TEST(Algorithm2Test, ViewPoolOnlyAddsAggregatedViews) {
  const CubeShape shape = Shape({4, 4});
  Rng rng(5);
  auto pop = RandomViewPopulation(shape, &rng);
  GreedyOptions options;
  options.storage_target_cells = 3 * shape.volume();
  options.pool = CandidatePool::kAggregatedViews;
  auto frontier = GreedySelect(shape, *pop, CubeOnlySet(shape), options);
  ASSERT_TRUE(frontier.ok());
  for (size_t i = 1; i < frontier->size(); ++i) {
    EXPECT_TRUE((*frontier)[i].added.IsAggregatedView(shape));
  }
}

TEST(Algorithm2Test, TiedCandidatesResolveToPoolOrder) {
  // The two one-dimension views carry equal traffic, so adding either one
  // saves the same cost; with room for one, the earlier in pool order wins.
  const CubeShape shape = Shape({4, 4});
  auto v01 = ElementId::AggregatedView(0b01, shape);
  auto v10 = ElementId::AggregatedView(0b10, shape);
  ASSERT_TRUE(v01.ok() && v10.ok());
  for (const bool swapped : {false, true}) {
    auto pop = swapped ? FixedPopulation({{*v10, 0.5}, {*v01, 0.5}}, shape)
                       : FixedPopulation({{*v01, 0.5}, {*v10, 0.5}}, shape);
    ASSERT_TRUE(pop.ok());
    GreedyOptions options;
    options.storage_target_cells = shape.volume() + v01->DataVolume(shape);
    options.pool = CandidatePool::kAggregatedViews;
    auto frontier = GreedySelect(shape, *pop, CubeOnlySet(shape), options);
    ASSERT_TRUE(frontier.ok());
    ASSERT_EQ(frontier->size(), 2u);
    EXPECT_DOUBLE_EQ((*frontier)[1].processing_cost,
                     0.5 * static_cast<double>(shape.volume() -
                                               v10->DataVolume(shape)));
    const std::vector<ElementId> pool =
        ViewElementGraph(shape).AggregatedViews();
    const auto pos = [&](const ElementId& id) {
      return std::find(pool.begin(), pool.end(), id) - pool.begin();
    };
    EXPECT_EQ((*frontier)[1].added, pos(*v01) < pos(*v10) ? *v01 : *v10);
  }
}

TEST(Algorithm2Test, GuaranteedVariantDominatesViewPool) {
  // Figure 9's guarantee (Section 7.2.2): with the "add the best view,
  // remove the obsolete view elements" refinement, the view element
  // frontier is never above the greedy-views frontier. We run the element
  // method with the same view candidate pool plus obsolete pruning, from
  // the Algorithm-1 basis.
  const CubeShape shape = Shape({4, 4});
  for (uint64_t seed = 10; seed < 15; ++seed) {
    Rng rng(seed);
    auto pop = RandomViewPopulation(shape, &rng);

    auto basis = SelectMinCostBasis(shape, *pop);
    ASSERT_TRUE(basis.ok());

    GreedyOptions views_opt;
    views_opt.storage_target_cells = 3 * shape.volume();
    views_opt.pool = CandidatePool::kAggregatedViews;
    auto views = GreedySelect(shape, *pop, CubeOnlySet(shape), views_opt);

    GreedyOptions elems_opt = views_opt;
    elems_opt.prune_obsolete = true;
    auto elems = GreedySelect(shape, *pop, basis->basis, elems_opt);
    ASSERT_TRUE(views.ok() && elems.ok());

    // Point a never worse than point b (equal initial storage).
    EXPECT_EQ(elems->front().storage_cells, views->front().storage_cells);
    EXPECT_LE(elems->front().processing_cost,
              views->front().processing_cost + 1e-9)
        << "seed " << seed;

    // Both converge to the zero-processing-cost solution (point d).
    EXPECT_DOUBLE_EQ(views->back().processing_cost, 0.0);
    EXPECT_DOUBLE_EQ(elems->back().processing_cost, 0.0);

    // Element frontier dominates: at each view-frontier storage point the
    // element method has reached a cost at least as low.
    for (const GreedyStep& vstep : *views) {
      double best_elem_cost = elems->front().processing_cost;
      for (const GreedyStep& estep : *elems) {
        if (estep.storage_cells <= vstep.storage_cells) {
          best_elem_cost = std::min(best_elem_cost, estep.processing_cost);
        }
      }
      EXPECT_LE(best_elem_cost, vstep.processing_cost + 1e-9)
          << "seed " << seed;
    }
  }
}

TEST(Algorithm2Test, IncompleteInitialSetRejected) {
  const CubeShape shape = Shape({4, 4});
  Rng rng(6);
  auto pop = RandomViewPopulation(shape, &rng);
  auto p = ElementId::Root(2).Child(0, StepKind::kPartial, shape);
  GreedyOptions options;
  options.storage_target_cells = 2 * shape.volume();
  auto frontier = GreedySelect(shape, *pop, {*p}, options);
  EXPECT_FALSE(frontier.ok());
}

TEST(Algorithm2Test, PruneObsoleteKeepsCostAndShrinksStorage) {
  const CubeShape shape = Shape({4, 4});
  Rng rng(7);
  auto pop = RandomViewPopulation(shape, &rng);
  GreedyOptions plain;
  plain.storage_target_cells = 2 * shape.volume();
  GreedyOptions pruned = plain;
  pruned.prune_obsolete = true;
  auto a = GreedySelect(shape, *pop, CubeOnlySet(shape), plain);
  auto b = GreedySelect(shape, *pop, CubeOnlySet(shape), pruned);
  ASSERT_TRUE(a.ok() && b.ok());
  // Pruning never ends with a higher final cost at equal-or-less storage
  // than the plain run's last step.
  EXPECT_LE(b->back().processing_cost, a->back().processing_cost + 1e-9);
  EXPECT_LE(b->back().storage_cells, a->back().storage_cells);
}

TEST(Algorithm2Test, AddedElementsAreRecordedInSelectedSets) {
  const CubeShape shape = Shape({4, 4});
  Rng rng(8);
  auto pop = RandomViewPopulation(shape, &rng);
  GreedyOptions options;
  options.storage_target_cells = 2 * shape.volume();
  auto frontier = GreedySelect(shape, *pop, CubeOnlySet(shape), options);
  ASSERT_TRUE(frontier.ok());
  for (size_t i = 1; i < frontier->size(); ++i) {
    const auto& step = (*frontier)[i];
    EXPECT_TRUE(step.added_valid);
    EXPECT_NE(std::find(step.selected.begin(), step.selected.end(),
                        step.added),
              step.selected.end());
    // Procedure-3 re-evaluation agrees with the recorded cost.
    auto calc = Procedure3Calculator::Make(shape, step.selected);
    ASSERT_TRUE(calc.ok());
    EXPECT_NEAR(calc->TotalCost(*pop), step.processing_cost, 1e-9);
  }
}

}  // namespace
}  // namespace vecube
