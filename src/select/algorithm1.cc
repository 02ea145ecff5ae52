#include "select/algorithm1.h"

#include <algorithm>
#include <array>
#include <utility>

#include "core/freq_rect.h"
#include "select/tiling_dp.h"

namespace vecube {

namespace {

// Algorithm 1's leaf cost: C_n of Eq. 29 against all queries, settled when
// every query that overlaps the node also contains it (DESIGN.md §1).
struct SupportCostPolicy {
  using Cost = double;
  struct Data {};
  // Allocation-free description of one query's frequency rectangle.
  struct Query {
    std::array<FreqInterval, kMaxDims> iv;
    uint64_t volume;
    double frequency;
  };

  Leaf<double> Evaluate(const ElementId& node, const Data&) const {
    const uint32_t d = shape.ndim();
    // Left uninitialized: a zero fill per node costs as much as the geometry.
    std::array<uint64_t, kMaxDims> lo, hi;
    uint64_t volume = 1;
    for (uint32_t m = 0; m < d; ++m) {
      const FreqInterval iv = DimInterval(node, m, shape);
      lo[m] = iv.lo;
      hi[m] = iv.hi;
      volume *= iv.width();
    }
    Leaf<double> leaf{0.0, true};
    for (const Query& q : queries) {
      uint64_t overlap = 1;
      for (uint32_t m = 0; m < d; ++m) {
        const uint64_t olo = std::max(lo[m], q.iv[m].lo);
        const uint64_t ohi = std::min(hi[m], q.iv[m].hi);
        if (ohi <= olo) {
          overlap = 0;
          break;
        }
        overlap *= ohi - olo;
      }
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

// The input check SelectMinCostBasis and MinTilingCosts share: each query
// must fit the shape before DimInterval shifts by its level gap.
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
  return TilingDp<SupportCostPolicy>::Make(shape, std::move(policy));
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
