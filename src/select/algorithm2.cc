#include "select/algorithm2.h"

#include <algorithm>
#include <unordered_set>

#include "core/basis.h"
#include "core/graph.h"
#include "core/planner.h"
#include "util/logging.h"

namespace vecube {

namespace {

constexpr uint64_t kMaxCandidates = uint64_t{1} << 20;

// The Section 7.2.2 refinement: drop selected elements that no recorded
// plan reads. Removing an unused element changes no plan, so the total
// processing cost is exactly preserved while storage shrinks.
Result<std::vector<ElementId>> RemoveObsolete(
    const CubeShape& shape, const std::vector<ElementId>& selected,
    const QueryPopulation& population) {
  auto planner = Procedure3Planner::Make(shape, selected);
  if (!planner.ok()) return planner.status();
  std::vector<ElementId> queries;
  queries.reserve(population.queries().size());
  for (const QuerySpec& q : population.queries()) queries.push_back(q.view);
  return planner->UsedElements(queries);
}

}  // namespace

Result<double> TotalProcessingCost(const CubeShape& shape,
                                   const std::vector<ElementId>& selected,
                                   const QueryPopulation& population) {
  auto planner = Procedure3Planner::Make(shape, selected);
  if (!planner.ok()) return planner.status();
  double total = 0.0;
  for (const QuerySpec& q : population.queries()) {
    const uint64_t t = planner->Cost(q.view);
    if (t == kInfiniteCost) return static_cast<double>(kInfiniteCost);
    total += q.frequency * static_cast<double>(t);
  }
  return total;
}

Result<std::vector<GreedyStep>> GreedySelect(const CubeShape& shape,
                                             const QueryPopulation& population,
                                             std::vector<ElementId> initial,
                                             const GreedyOptions& options) {
  ViewElementGraph graph(shape);

  // Candidate pool.
  std::vector<ElementId> candidates;
  if (options.pool == CandidatePool::kAggregatedViews) {
    candidates = graph.AggregatedViews();
  } else {
    if (graph.NumElements() > kMaxCandidates) {
      return Status::InvalidArgument(
          "graph too large to enumerate as an Algorithm-2 candidate pool");
    }
    candidates.reserve(graph.NumElements());
    graph.ForEachElement(
        [&](const ElementId& id) { candidates.push_back(id); });
  }

  std::unordered_set<ElementId, ElementIdHash> selected_set(initial.begin(),
                                                            initial.end());

  std::vector<GreedyStep> frontier;
  GreedyStep step0;
  step0.storage_cells = StorageVolume(initial, shape);
  {
    double cost;
    VECUBE_ASSIGN_OR_RETURN(cost, TotalProcessingCost(shape, initial, population));
    if (cost >= static_cast<double>(kInfiniteCost)) {
      return Status::FailedPrecondition(
          "initial set is not complete for the query population");
    }
    step0.processing_cost = cost;
  }
  step0.selected = initial;
  frontier.push_back(step0);

  std::vector<ElementId> selected = std::move(initial);
  uint64_t storage = step0.storage_cells;
  double cost = step0.processing_cost;

  struct Improvement {
    double new_cost;
    const ElementId* candidate;
  };

  while (cost > 0.0) {
    // Evaluate every admissible-looking candidate's resulting cost.
    std::vector<Improvement> improvements;
    for (const ElementId& candidate : candidates) {
      if (selected_set.count(candidate) > 0) continue;
      const uint64_t vol = candidate.DataVolume(shape);
      if (options.prune_obsolete) {
        // Even after pruning, the candidate itself must fit.
        if (vol > options.storage_target_cells) continue;
      } else {
        if (storage + vol > options.storage_target_cells) continue;
      }
      selected.push_back(candidate);
      double new_cost;
      VECUBE_ASSIGN_OR_RETURN(new_cost,
                              TotalProcessingCost(shape, selected, population));
      selected.pop_back();
      if (new_cost < cost) {
        improvements.push_back(Improvement{new_cost, &candidate});
      }
    }
    // Stable: among equal costs the earliest candidate in pool order wins.
    std::stable_sort(improvements.begin(), improvements.end(),
                     [](const Improvement& a, const Improvement& b) {
                       return a.new_cost < b.new_cost;
                     });

    // Accept the best improvement whose (possibly pruned) set fits.
    bool accepted = false;
    for (const Improvement& improvement : improvements) {
      std::vector<ElementId> next = selected;
      next.push_back(*improvement.candidate);
      if (options.prune_obsolete) {
        VECUBE_ASSIGN_OR_RETURN(next,
                                RemoveObsolete(shape, next, population));
      }
      const uint64_t next_storage = StorageVolume(next, shape);
      if (next_storage > options.storage_target_cells) continue;

      GreedyStep step;
      step.added = *improvement.candidate;
      step.added_valid = true;
      step.storage_cells = next_storage;
      step.processing_cost = improvement.new_cost;
      step.selected = next;
      frontier.push_back(step);

      selected = std::move(next);
      selected_set = std::unordered_set<ElementId, ElementIdHash>(
          selected.begin(), selected.end());
      storage = next_storage;
      cost = improvement.new_cost;
      accepted = true;
      break;
    }
    if (!accepted) break;  // no admissible improvement
  }
  return frontier;
}

}  // namespace vecube
