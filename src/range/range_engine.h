// RangeEngine: answers range-sum queries from intermediate view elements.
//
// The canonical dyadic decomposition turns a d-dimensional range into a
// cartesian product of per-dimension aligned blocks; each block
// combination is exactly one cell of the intermediate view element whose
// per-dimension levels are the block sizes (Eq. 40). Over a materialized
// Gaussian pyramid this answers any range in O(Π 2 log2 n_m) cell reads
// instead of O(Π w_m) base-cell additions.

#ifndef VECUBE_RANGE_RANGE_ENGINE_H_
#define VECUBE_RANGE_RANGE_ENGINE_H_

#include <cstdint>
#include <vector>

#include "core/assembly.h"
#include "core/store.h"
#include "cube/tensor.h"
#include "range/range.h"
#include "serve/view_cache.h"
#include "util/query_context.h"
#include "util/result.h"

namespace vecube {

/// What to do when a needed intermediate element is not materialized.
enum class MissingElementPolicy {
  kError,     ///< fail with Status::NotFound
  kAssemble,  ///< assemble it from the store (counted in stats.assembly_ops)
};

/// Per-query accounting.
struct RangeQueryStats {
  uint64_t cell_reads = 0;      ///< intermediate-element cells touched
  uint64_t additions = 0;       ///< adds combining the cells
  uint64_t elements_missing = 0;
  uint64_t assembly_ops = 0;    ///< ops spent assembling missing elements

  void Reset() { *this = RangeQueryStats{}; }
};

class RangeEngine {
 public:
  /// Borrows the store (and pool, cache, and arena, if given); the caller
  /// keeps them all alive. The pool parallelizes on-demand assembly of
  /// missing elements; `arena` recycles assembly kernel scratch. When
  /// `cache` is non-null, missing intermediate elements are looked up /
  /// retained there (sharing the serving layer's benefit-weighted
  /// residency and metrics with view queries) instead of in the engine's
  /// private unbounded store.
  /// `num_shards` is forwarded to the embedded AssemblyEngine's dyadic
  /// shard decomposition (0 = pool size); it never changes answers or
  /// the plan costs this engine exposes.
  explicit RangeEngine(const ElementStore* store,
                       MissingElementPolicy policy =
                           MissingElementPolicy::kAssemble,
                       ThreadPool* pool = nullptr,
                       ViewCache* cache = nullptr,
                       ScratchArena* arena = nullptr,
                       uint32_t num_shards = 0);

  /// S(G(A)) of Eq. 36 via the dyadic decomposition. `stats` optional.
  /// `ctx` is polled at every odometer step (and threaded into on-demand
  /// assemblies and cache waits); expiry or cancellation unwinds the
  /// query with kDeadlineExceeded / kCancelled.
  Result<double> RangeSum(const RangeSpec& range,
                          RangeQueryStats* stats = nullptr,
                          const QueryContext& ctx = QueryContext());

  /// Keeps the private store of on-demand assemblies exact under the
  /// cube write A[coords] += delta (core/update.h). The caller updates
  /// the borrowed store and shared cache itself.
  Status ApplyPointDelta(const std::vector<uint32_t>& coords, double delta);

 private:
  const ElementStore* store_;
  MissingElementPolicy policy_;
  AssemblyEngine engine_;
  ViewCache* cache_;  // shared serving cache; null = private store below
  /// Elements assembled on demand under kAssemble when no shared cache
  /// was supplied, kept across queries (unbounded).
  ElementStore assembled_cache_;
};

/// Baseline: direct summation over the base cube (`cube` must be the root
/// tensor). `cells_read` (optional) counts touched cells.
Result<double> NaiveRangeSum(const Tensor& cube, const CubeShape& shape,
                             const RangeSpec& range,
                             uint64_t* cells_read = nullptr);

}  // namespace vecube

#endif  // VECUBE_RANGE_RANGE_ENGINE_H_
