#include "select/advisor.h"

#include <algorithm>
#include <cstdio>

#include "core/basis.h"
#include "select/algorithm1.h"
#include "select/algorithm2.h"
#include "select/pair_cost.h"

namespace vecube {

std::string AdvisorReport::ToString() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "baseline comparators (processing cost, Procedure 3):\n"
                "  cube only       : %.2f (storage 1.00x)\n"
                "  wavelet basis   : %.2f (storage 1.00x)\n"
                "  view hierarchy  : %.2f (storage %llu cells)\n",
                cube_only_cost, wavelet_cost, view_hierarchy_cost,
                static_cast<unsigned long long>(view_hierarchy_storage));
  out += line;
  std::snprintf(line, sizeof(line),
                "optimal non-expansive basis: cost %.2f, %zu elements, "
                "storage %.2fx\n",
                basis.processing_cost, basis.selected.size(),
                basis.relative_storage);
  out += line;
  for (const AdvisorPoint& point : budget_points) {
    std::snprintf(line, sizeof(line),
                  "  with %llu cells -> cost %.2f (%zu elements, %.2fx)\n",
                  static_cast<unsigned long long>(point.storage_cells),
                  point.processing_cost, point.selected.size(),
                  point.relative_storage);
    out += line;
  }
  if (zero_cost_storage > 0) {
    std::snprintf(line, sizeof(line),
                  "zero processing cost reachable at %llu cells\n",
                  static_cast<unsigned long long>(zero_cost_storage));
    out += line;
  }
  return out;
}

Result<AdvisorReport> AdviseConfiguration(const CubeShape& shape,
                                          const QueryPopulation& population,
                                          const AdvisorOptions& options) {
  AdvisorReport report;
  const double vol = static_cast<double>(shape.volume());

  // Comparators.
  VECUBE_ASSIGN_OR_RETURN(
      report.cube_only_cost,
      TotalProcessingCost(shape, CubeOnlySet(shape), population));
  VECUBE_ASSIGN_OR_RETURN(
      report.wavelet_cost,
      TotalProcessingCost(shape, WaveletBasisSet(shape), population));
  const auto hierarchy = ViewHierarchySet(shape);
  VECUBE_ASSIGN_OR_RETURN(report.view_hierarchy_cost,
                          TotalProcessingCost(shape, hierarchy, population));
  report.view_hierarchy_storage = StorageVolume(hierarchy, shape);

  // The non-expansive optimum.
  BasisSelection selection;
  VECUBE_ASSIGN_OR_RETURN(selection, SelectMinCostBasis(shape, population));
  report.basis.selected = selection.basis;
  report.basis.storage_cells = StorageVolume(selection.basis, shape);
  report.basis.relative_storage =
      static_cast<double>(report.basis.storage_cells) / vol;
  VECUBE_ASSIGN_OR_RETURN(
      report.basis.processing_cost,
      TotalProcessingCost(shape, selection.basis, population));
  if (report.basis.processing_cost == 0.0) {
    report.zero_cost_storage = report.basis.storage_cells;
  }

  // Budget sweep (ascending, deduplicated).
  std::vector<uint64_t> budgets = options.budgets;
  std::sort(budgets.begin(), budgets.end());
  budgets.erase(std::unique(budgets.begin(), budgets.end()), budgets.end());

  for (uint64_t budget : budgets) {
    if (budget <= report.basis.storage_cells) continue;
    GreedyOptions greedy;
    greedy.storage_target_cells = budget;
    greedy.pool = options.elements_pool ? CandidatePool::kAllElements
                                        : CandidatePool::kAggregatedViews;
    greedy.prune_obsolete = options.prune_obsolete;
    std::vector<GreedyStep> frontier;
    VECUBE_ASSIGN_OR_RETURN(
        frontier, GreedySelect(shape, population, selection.basis, greedy));

    AdvisorPoint point;
    point.selected = frontier.back().selected;
    point.storage_cells = frontier.back().storage_cells;
    point.relative_storage = static_cast<double>(point.storage_cells) / vol;
    point.processing_cost = frontier.back().processing_cost;
    if (point.processing_cost == 0.0 &&
        (report.zero_cost_storage == 0 ||
         point.storage_cells < report.zero_cost_storage)) {
      report.zero_cost_storage = point.storage_cells;
    }
    report.budget_points.push_back(std::move(point));
  }
  return report;
}

}  // namespace vecube
