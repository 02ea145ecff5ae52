// Algorithm 1: minimum-cost non-redundant basis selection (Section 5.2).
//
// Assign every view element its support cost C_n (Eq. 29) and run the
// tiling DP of core/tiling_dp.h on it (Eqs. 30-31, Procedure 2): the
// complete, non-redundant basis of minimum pair-model cost among all bases
// reachable by recursive splitting (see DESIGN.md for the d >= 3 guillotine
// caveat). A node that every overlapping query contains is kept without
// visiting its children (DESIGN.md §1, Algorithm 1): on the 32^4 graph with
// a view population the DP visits about half of the N_ve nodes.

#ifndef VECUBE_SELECT_ALGORITHM1_H_
#define VECUBE_SELECT_ALGORITHM1_H_

#include <vector>

#include "core/element_id.h"
#include "cube/shape.h"
#include "util/result.h"
#include "workload/population.h"

namespace vecube {

/// Result of basis selection.
struct BasisSelection {
  /// The selected complete, non-redundant basis (sorted by id).
  std::vector<ElementId> basis;
  /// D(root): the predicted pair-model processing cost (Eq. 29 weighted).
  double predicted_cost = 0.0;
};

/// Runs Algorithm 1. InvalidArgument when a query does not fit the shape,
/// or when the graph has more than kDenseMemoLimit (2^24) nodes.
Result<BasisSelection> SelectMinCostBasis(const CubeShape& shape,
                                          const QueryPopulation& population);

namespace internal {

/// D(V) of Eqs. 30-31 for each of `nodes`, from the same pruned DP that
/// SelectMinCostBasis runs, solved in order on one shared memo. Exposed so
/// tests can compare it node for node with an exhaustive DP.
Result<std::vector<double>> MinTilingCosts(const CubeShape& shape,
                                           const QueryPopulation& population,
                                           const std::vector<ElementId>& nodes);

}  // namespace internal

}  // namespace vecube

#endif  // VECUBE_SELECT_ALGORITHM1_H_
