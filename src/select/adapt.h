// The selection and migration steps of the adaptation loop (Section 5):
// choose the element set for a workload, then assemble that set from the
// store in hand rather than from base data. OlapSession's Optimize() and
// its drift-triggered reconfiguration, and `vecube_cli optimize`, all run
// these two functions.

#ifndef VECUBE_SELECT_ADAPT_H_
#define VECUBE_SELECT_ADAPT_H_

#include <cstdint>
#include <vector>

#include "core/assembly.h"
#include "core/element_id.h"
#include "core/store.h"
#include "cube/shape.h"
#include "util/result.h"
#include "workload/population.h"

namespace vecube {

/// Algorithm 1 for `population`, then, when `redundancy_budget_cells` is
/// above 0, the greedy Algorithm 2 over the 2^d aggregated views (the
/// objects queries name) up to that many cells beyond the basis.
/// `predicted_cost` (optional) receives Algorithm 1's predicted cost.
Result<std::vector<ElementId>> SelectElementSet(
    const CubeShape& shape, const QueryPopulation& population,
    uint64_t redundancy_budget_cells, double* predicted_cost = nullptr);

/// Assembles `targets` from `engine`'s store (of `shape`) as one AssembleBatch and
/// returns them as a new store. `ops` (optional) accrues the batch's own
/// op count. Quarantined elements are not resident, so the plans route
/// around them; Incomplete when the healthy elements cannot reach a
/// target.
Result<ElementStore> MigrateStore(const CubeShape& shape,
                                  AssemblyEngine* engine,
                                  const std::vector<ElementId>& targets,
                                  OpCounter* ops = nullptr);

}  // namespace vecube

#endif  // VECUBE_SELECT_ADAPT_H_
