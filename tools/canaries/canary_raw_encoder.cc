// Checker canary: a private mixed-radix encoder over raw (level, offset)
// codes in the planner — a second encoding of the dyadic node space that
// ElementId and ElementIndexer already provide. NOT compiled — consumed
// by tools/vecube_check.py --canaries.
//
// vecube-check-as: src/core/planner.cc
// vecube-check-expect: one-node-encoder

#include "core/planner.h"

namespace vecube {

uint64_t Procedure3Planner::EncodeRaw(const DimCode* codes) const {
  uint64_t index = 0;
  uint64_t weight = 1;
  for (uint32_t m = shape_.ndim(); m-- > 0;) {
    index += (((uint64_t{1} << codes[m].level) - 1) + codes[m].offset) *  // BUG
             weight;
    weight *= 2ull * shape_.extent(m) - 1;  // BUG
  }
  return index;
}

}  // namespace vecube
