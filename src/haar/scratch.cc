#include "haar/scratch.h"

#include <algorithm>


namespace vecube {

namespace {
// Slab floor: small Take()s coalesce into one allocation instead of one
// slab each. 1<<16 cells = 512 KiB, about one shard's working set at the
// default fused budget.
constexpr uint64_t kMinSlabCells = uint64_t{1} << 16;
// Keeps every Take() 64-byte aligned: slabs are 64-byte aligned and every
// grant is a multiple of 8 doubles.
constexpr uint64_t kGrantAlignCells = 8;
}  // namespace

double* ShardScratch::Take(uint64_t cells) {
  const uint64_t want =
      std::max<uint64_t>(cells + (kGrantAlignCells - 1), kGrantAlignCells) &
      ~(kGrantAlignCells - 1);
  while (slab_ < slabs_.size() &&
         used_ + want > slabs_[slab_].capacity()) {
    ++slab_;
    used_ = 0;
  }
  if (slab_ == slabs_.size()) {
    TensorBuffer slab;
    slab.resize(std::max(want, kMinSlabCells));
    slabs_.push_back(std::move(slab));
    used_ = 0;
  }
  double* out = slabs_[slab_].data() + used_;
  used_ += want;
  return out;
}

void ShardScratch::Reset() {
  slab_ = 0;
  used_ = 0;
}

uint64_t ShardScratch::capacity_cells() const {
  uint64_t total = 0;
  for (const TensorBuffer& slab : slabs_) total += slab.capacity();
  return total;
}

}  // namespace vecube
