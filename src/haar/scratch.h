// ShardScratch: the one kernel scratch allocator (DESIGN.md §11).
//
// A cascade ping-pongs intermediate levels through small scratch tiles
// and keeps each fused group's output until the next group reads it.
// Every cascade runs on an execution lane that owns one ShardScratch: a
// bump allocator over pooled 64-byte-aligned slabs with no internal
// synchronization, so the cascade hot path takes no lock and, once a
// lane's slabs are warm, allocates nothing.

#ifndef VECUBE_HAAR_SCRATCH_H_
#define VECUBE_HAAR_SCRATCH_H_

#include <cstdint>
#include <vector>

#include "cube/tensor.h"

namespace vecube {

/// Per-lane kernel scratch: a bump allocator over pooled 64-byte-aligned
/// slabs with NO internal synchronization.
///
/// The shard executor hands each execution lane (one thread at a time)
/// its own ShardScratch: a lane's whole cascade — gather, every fused
/// group, ping-pong tiles — draws from its private slab. A standalone
/// cascade (CascadeAnalysis) uses a local one.
///
/// Ownership rule (DESIGN.md §14): exactly one thread may touch an
/// instance at a time, and Take() pointers stay valid until the *owner*
/// calls Reset(). Reset() retains the underlying memory for reuse, so a
/// lane that executes many shards of the same geometry allocates once.
class ShardScratch {
 public:
  ShardScratch() = default;
  ShardScratch(const ShardScratch&) = delete;
  ShardScratch& operator=(const ShardScratch&) = delete;

  /// `cells` uninitialized doubles, 64-byte aligned. Valid until Reset().
  double* Take(uint64_t cells);

  /// Invalidates every outstanding Take() pointer; keeps capacity.
  void Reset();

  /// Total cells across all slabs (test/introspection hook).
  [[nodiscard]] uint64_t capacity_cells() const;

 private:
  // Slabs are append-only; Reset() rewinds the cursor to slab 0.
  std::vector<TensorBuffer> slabs_;
  size_t slab_ = 0;     // cursor: slab currently being bumped
  uint64_t used_ = 0;   // cells consumed in slabs_[slab_]
};

}  // namespace vecube

#endif  // VECUBE_HAAR_SCRATCH_H_
