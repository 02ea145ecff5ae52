// Checker canary: Algorithm 1 with its own per-node memo and argmin table
// beside WordMemo, a second memo type with its own dense-table cap. NOT
// compiled — consumed by tools/vecube_check.py --canaries.
//
// vecube-check-as: src/select/algorithm1.cc
// vecube-check-expect: one-node-memo

#include "select/algorithm1.h"

namespace vecube {

class SpaceFrequencyDp {
 public:
  explicit SpaceFrequencyDp(const CubeShape& shape)
      : indexer_(shape),
        memo_(static_cast<uint64_t*>(
            std::calloc(indexer_.size(), sizeof(uint64_t)))) {  // BUG
    choice_.assign(indexer_.size(), -1);  // BUG
  }

 private:
  ElementIndexer indexer_;
  uint64_t* memo_;
  std::vector<int8_t> choice_;
};

}  // namespace vecube
