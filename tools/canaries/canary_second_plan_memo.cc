// Checker canary: the planner with its own plan memo beside the tiling
// DP's, i.e. Procedure 3 written as a second memoized keep-or-split
// recursion instead of a TilingDp policy. NOT compiled — consumed by
// tools/vecube_check.py --canaries.
//
// vecube-check-as: src/core/planner.h
// vecube-check-expect: one-tiling-recursion

#include "core/tiling_dp.h"

namespace vecube {

class Procedure3Planner {
 private:
  ElementIndexer indexer_;
  WordMemo<uint32_t> ancestor_memo{indexer_.size()};
  WordMemo<uint64_t> plan_memo_{indexer_.size()};  // BUG
};

}  // namespace vecube
