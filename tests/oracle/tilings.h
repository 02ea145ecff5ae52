// Brute-force enumeration of every guillotine tiling of a view element:
// every basis Procedure 2 can extract below it, independent of any DP. The
// oracle the tiling DP (core/tiling_dp.h) is checked against, through its
// Algorithm 1 and best-basis policies.

#ifndef VECUBE_TESTS_ORACLE_TILINGS_H_
#define VECUBE_TESTS_ORACLE_TILINGS_H_

#include <vector>

#include "core/element_id.h"
#include "cube/shape.h"

namespace vecube {

/// Appends every guillotine tiling of `id` to `out`, in Procedure 2's
/// choice order: keeping `id` first, then each split dimension m in
/// ascending order, and for one m each pair (partial tiling, residual
/// tiling) with the partial side varying slowest. Each tiling lists the
/// partial side of a split before its residual side. Exponential: for
/// small shapes only.
void EnumerateTilings(const ElementId& id, const CubeShape& shape,
                      std::vector<std::vector<ElementId>>* out);

}  // namespace vecube

#endif  // VECUBE_TESTS_ORACLE_TILINGS_H_
