#include "select/algorithm1.h"

#include <algorithm>
#include <utility>

#include "core/freq_rect.h"
#include "core/tiling_dp.h"

namespace vecube {

namespace {

// Algorithm 1's leaf cost: C_n of Eq. 29 against all queries, settled when
// every query that overlaps the node also contains it (DESIGN.md §1).
struct SupportCostPolicy {
  using Cost = double;
  struct Data {};
  // Allocation-free description of one query's frequency rectangle.
  struct Query {
    IntervalArray iv;
    uint64_t volume;
    double frequency;
  };

  Leaf<double> Evaluate(const ElementId& node, const Data&) const {
    const uint32_t d = shape.ndim();
    IntervalArray iv;
    uint64_t volume = 1;
    for (uint32_t m = 0; m < d; ++m) {
      iv[m] = DimInterval(node, m, shape);
      volume *= iv[m].width();
    }
    Leaf<double> leaf{0.0, true};
    for (const Query& q : queries) {
      const uint64_t overlap = OverlapCells(iv, q.iv, d);
      if (overlap == 0) continue;
      if (overlap != volume) leaf.settled = false;
      leaf.cost += q.frequency * static_cast<double>((volume - overlap) +
                                                     (q.volume - overlap));
    }
    return leaf;
  }

  static Data Child(const Data&, uint32_t, StepKind) { return {}; }

  CubeShape shape;
  std::vector<Query> queries;
};

// The input checks SelectMinCostBasis and MinTilingCosts share: each query
// must fit the shape before DimInterval shifts by its level gap, and the
// graph must fit the dense memo.
Result<TilingDp<SupportCostPolicy>> MakeDp(
    const CubeShape& shape, const QueryPopulation& population) {
  SupportCostPolicy policy{shape, {}};
  for (const QuerySpec& q : population.queries()) {
    VECUBE_RETURN_NOT_OK(q.view.Validate(shape));
    auto& geom = policy.queries.emplace_back(
        SupportCostPolicy::Query{{}, 1, q.frequency});
    for (uint32_t m = 0; m < shape.ndim(); ++m) {
      geom.iv[m] = DimInterval(q.view, m, shape);
      geom.volume *= geom.iv[m].width();
    }
  }
  VECUBE_RETURN_NOT_OK(CheckDenseGraph(shape));
  return TilingDp<SupportCostPolicy>(shape, std::move(policy));
}

}  // namespace

Result<BasisSelection> SelectMinCostBasis(const CubeShape& shape,
                                          const QueryPopulation& population) {
  auto dp = MakeDp(shape, population);
  if (!dp.ok()) return dp.status();
  BasisSelection selection;
  const ElementId root = ElementId::Root(shape.ndim());
  selection.predicted_cost = dp->Solve(root, {});
  dp->Extract(root, {}, &selection.basis);
  std::sort(selection.basis.begin(), selection.basis.end());
  return selection;
}

namespace internal {

Result<std::vector<double>> MinTilingCosts(
    const CubeShape& shape, const QueryPopulation& population,
    const std::vector<ElementId>& nodes) {
  auto dp = MakeDp(shape, population);
  if (!dp.ok()) return dp.status();
  std::vector<double> costs;
  costs.reserve(nodes.size());
  for (const ElementId& node : nodes) {
    VECUBE_RETURN_NOT_OK(node.Validate(shape));
    costs.push_back(dp->Solve(node, {}));
  }
  return costs;
}

}  // namespace internal

}  // namespace vecube
