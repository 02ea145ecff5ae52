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

#include "core/store.h"
#include "cube/tensor.h"
#include "range/range.h"
#include "serve/serving.h"
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
  /// Borrows the store and `server`; the caller keeps both alive. Under
  /// kAssemble, missing intermediate elements are served by `server`
  /// (required): through its ViewCache when it has one — sharing the
  /// serving layer's single-flight fills, benefit-weighted residency,
  /// budget gate and metrics with view queries — and otherwise assembled
  /// by it and kept in this engine's private unbounded store. Under
  /// kError `server` is unused and may be null.
  RangeEngine(const ElementStore* store, MissingElementPolicy policy,
              ElementServer* server = nullptr);

  /// S(G(A)) of Eq. 36 via the dyadic decomposition. `stats` optional.
  /// `ctx` is polled at every odometer step (and threaded into on-demand
  /// assemblies and cache waits); expiry or cancellation unwinds the
  /// query with kDeadlineExceeded / kCancelled, counted once in the
  /// server's cache metrics. Degradation is stripped from `ctx`: a sum
  /// has no channel for an error bound, so a budget shortfall fails
  /// with kDeadlineExceeded.
  Result<double> RangeSum(const RangeSpec& range,
                          RangeQueryStats* stats = nullptr,
                          const QueryContext& ctx = QueryContext());

  /// Keeps the private store of on-demand assemblies exact under the
  /// cube write A[coords] += delta (core/update.h). The caller updates
  /// the borrowed store and the server's cache itself.
  Status ApplyPointDelta(const std::vector<uint32_t>& coords, double delta);

 private:
  const ElementStore* store_;
  ElementServer* server_;  // null under kError
  /// Elements assembled on demand by a cacheless server, kept across
  /// queries (unbounded).
  ElementStore assembled_cache_;
};

/// Baseline: direct summation over the base cube (`cube` must be the root
/// tensor). `cells_read` (optional) counts touched cells.
Result<double> NaiveRangeSum(const Tensor& cube, const CubeShape& shape,
                             const RangeSpec& range,
                             uint64_t* cells_read = nullptr);

}  // namespace vecube

#endif  // VECUBE_RANGE_RANGE_ENGINE_H_
