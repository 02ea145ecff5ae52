// Algorithm 1: minimum-cost non-redundant basis selection (Section 5.2).
//
// Assign every view element its support cost C_n (Eq. 29), then solve the
// space-frequency DP
//
//   D(V) = min( C(V),  min_m  D(P1^m V) + D(R1^m V) )          (Eqs. 30-31)
//
// and extract the argmin tiling with Procedure 2. The result is the
// complete, non-redundant view element basis of minimum pair-model cost
// among all bases reachable by recursive splitting (see DESIGN.md for the
// d >= 3 guillotine caveat). The DP solves each node it visits once, which
// is at most the O((d+1) N_ve) bound the paper quotes. It does not visit
// the children of a node that every overlapping query contains: keeping
// such a node is provably optimal (DESIGN.md §1, Algorithm 1). On the 32^4
// graph with a view population it visits about half of the N_ve nodes. The
// memo is one calloc'd word per node, so pages of unvisited nodes are never
// touched.

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

/// Runs Algorithm 1. The graph size N_ve must fit in memory (about 2^24
/// nodes).
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
