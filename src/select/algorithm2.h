// Algorithm 2: greedy redundant selection for a target storage cost
// (Section 5.3), and the greedy *view* materialization baseline of
// Section 7.2.2 ([D]: "start by materializing the data cube, then add
// views in a greedy fashion", following Harinarayan et al. [8]).
//
// Both are the same machinery: starting from an initial set, repeatedly
// add the candidate whose addition most reduces the Procedure-3 total
// processing cost, while total storage stays within the target. The
// candidate pool is either every view element of the graph (Algorithm 2
// proper) or only the 2^d aggregated views (the HRU-style baseline).

#ifndef VECUBE_SELECT_ALGORITHM2_H_
#define VECUBE_SELECT_ALGORITHM2_H_

#include <cstdint>
#include <vector>

#include "core/element_id.h"
#include "cube/shape.h"
#include "util/result.h"
#include "workload/population.h"

namespace vecube {

/// Which elements the greedy loop may add.
enum class CandidatePool {
  kAllElements,      ///< Algorithm 2: any view element of the graph
  kAggregatedViews,  ///< baseline [D]: only the 2^d views
};

struct GreedyOptions {
  /// Storage ceiling S_T in cells. Additions keeping
  /// storage <= storage_target_cells are admissible.
  uint64_t storage_target_cells = 0;
  CandidatePool pool = CandidatePool::kAllElements;
  /// Paper's Section 7.2.2 refinement: after each addition, drop selected
  /// elements that have become obsolete (removable without changing the
  /// total processing cost). Off by default for Algorithm-2 fidelity.
  bool prune_obsolete = false;
};

/// One point of the storage/processing frontier.
struct GreedyStep {
  /// The element added at this step; for step 0 it is meaningless (the
  /// initial set) and `added_valid` is false.
  ElementId added;
  bool added_valid = false;
  uint64_t storage_cells = 0;
  double processing_cost = 0.0;
  /// The selected set after this step.
  std::vector<ElementId> selected;
};

/// Procedure-3 total processing cost T = Σ_k f_k T_k of `selected` (Eqs.
/// 32-34), planned by a Procedure3Planner; kInfiniteCost as a double when
/// a query is unreachable. Errors if the planner rejects the set.
Result<double> TotalProcessingCost(const CubeShape& shape,
                                   const std::vector<ElementId>& selected,
                                   const QueryPopulation& population);

/// Runs the greedy loop from `initial` until the target storage is
/// reached, the cost hits zero, or no candidate improves the cost.
/// Returns the frontier including step 0. `initial` must be complete
/// (otherwise the initial cost would be infinite).
Result<std::vector<GreedyStep>> GreedySelect(const CubeShape& shape,
                                             const QueryPopulation& population,
                                             std::vector<ElementId> initial,
                                             const GreedyOptions& options);

}  // namespace vecube

#endif  // VECUBE_SELECT_ALGORITHM2_H_
