#include "select/adapt.h"

#include <utility>

#include "core/basis.h"
#include "select/algorithm1.h"
#include "select/algorithm2.h"

namespace vecube {

Result<std::vector<ElementId>> SelectElementSet(
    const CubeShape& shape, const QueryPopulation& population,
    uint64_t redundancy_budget_cells, double* predicted_cost,
    ThreadPool* pool) {
  BasisSelection selection;
  VECUBE_ASSIGN_OR_RETURN(selection,
                          SelectMinCostBasis(shape, population, pool));
  if (predicted_cost != nullptr) *predicted_cost = selection.predicted_cost;
  if (redundancy_budget_cells == 0) return std::move(selection.basis);
  GreedyOptions greedy;
  greedy.storage_target_cells =
      StorageVolume(selection.basis, shape) + redundancy_budget_cells;
  greedy.pool = CandidatePool::kAggregatedViews;
  std::vector<GreedyStep> frontier;
  VECUBE_ASSIGN_OR_RETURN(
      frontier,
      GreedySelect(shape, population, std::move(selection.basis), greedy));
  // The frontier always holds step 0, the basis itself.
  return std::move(frontier.back().selected);
}

Result<ElementStore> MigrateStore(const CubeShape& shape,
                                  AssemblyEngine* engine,
                                  const std::vector<ElementId>& targets,
                                  OpCounter* ops) {
  std::vector<Tensor> data;
  VECUBE_ASSIGN_OR_RETURN(data, engine->AssembleBatch(targets, ops));
  ElementStore next(shape);
  for (size_t i = 0; i < targets.size(); ++i) {
    VECUBE_RETURN_NOT_OK(next.Put(targets[i], std::move(data[i])));
  }
  return next;
}

}  // namespace vecube
