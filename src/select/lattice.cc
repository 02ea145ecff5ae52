#include "select/lattice.h"

#include <algorithm>

#include "core/element_id.h"
#include "util/logging.h"

namespace vecube {

std::vector<LatticeView> BuildLattice(const CubeShape& shape) {
  std::vector<LatticeView> lattice;
  const uint32_t d = shape.ndim();
  lattice.reserve(size_t{1} << d);
  for (uint32_t mask = 0; mask < (1u << d); ++mask) {
    LatticeView view;
    view.mask = mask;
    view.volume = 1;
    for (uint32_t m = 0; m < d; ++m) {
      if (((mask >> m) & 1u) == 0) view.volume *= shape.extent(m);
    }
    lattice.push_back(view);
  }
  return lattice;
}

uint64_t LatticeAnswerCost(const CubeShape& shape, uint32_t query_mask,
                           const std::vector<uint32_t>& materialized_masks) {
  // The cube (mask 0) answers everything at Vol(A).
  uint64_t best = shape.volume();
  for (uint32_t mask : materialized_masks) {
    if (!LatticeAnswers(mask, query_mask)) continue;
    uint64_t volume = 1;
    for (uint32_t m = 0; m < shape.ndim(); ++m) {
      if (((mask >> m) & 1u) == 0) volume *= shape.extent(m);
    }
    best = std::min(best, volume);
  }
  return best;
}

Result<LatticeSelection> HruGreedySelect(
    const CubeShape& shape, const LatticeGreedyOptions& options) {
  const std::vector<LatticeView> lattice = BuildLattice(shape);

  LatticeSelection selection;
  // Current per-view answer costs, starting from cube-only.
  std::vector<uint64_t> cost(lattice.size(), shape.volume());

  auto total = [&]() {
    uint64_t t = 0;
    for (uint64_t c : cost) t += c;
    return t;
  };

  for (;;) {
    if (options.max_views > 0 &&
        selection.selected_masks.size() >= options.max_views) {
      break;
    }
    double best_score = 0.0;
    const LatticeView* best_view = nullptr;
    for (const LatticeView& candidate : lattice) {
      if (candidate.mask == 0) continue;  // the cube is already present
      if (std::find(selection.selected_masks.begin(),
                    selection.selected_masks.end(),
                    candidate.mask) != selection.selected_masks.end()) {
        continue;
      }
      if (options.storage_budget_cells > 0 &&
          selection.extra_storage_cells + candidate.volume >
              options.storage_budget_cells) {
        continue;
      }
      // Benefit: total reduction in answer costs if materialized.
      uint64_t benefit = 0;
      for (const LatticeView& query : lattice) {
        if (!LatticeAnswers(candidate.mask, query.mask)) continue;
        if (candidate.volume < cost[query.mask]) {
          benefit += cost[query.mask] - candidate.volume;
        }
      }
      if (benefit == 0) continue;
      const double score =
          options.benefit_per_unit_space
              ? static_cast<double>(benefit) /
                    static_cast<double>(candidate.volume)
              : static_cast<double>(benefit);
      if (score > best_score) {
        best_score = score;
        best_view = &candidate;
      }
    }
    if (best_view == nullptr) break;

    selection.selected_masks.push_back(best_view->mask);
    selection.extra_storage_cells += best_view->volume;
    for (const LatticeView& query : lattice) {
      if (LatticeAnswers(best_view->mask, query.mask)) {
        cost[query.mask] = std::min(cost[query.mask], best_view->volume);
      }
    }
  }
  selection.total_cost = total();
  return selection;
}

}  // namespace vecube
