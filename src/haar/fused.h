// Fused multi-level cascade kernels (DESIGN.md §11).
//
// A cascade of k P1/R1 steps executed one step at a time materializes k
// intermediate tensors and streams the whole (shrinking) cube through
// memory k times. But every step only combines cells that agree on all
// untouched coordinates, so the cascade factors over *slabs*: fix the
// coordinates of the dimensions before the touched window and a tile of
// the trailing (inner) cells, and the entire k-level reduction of that
// slab runs in a scratch tile that fits in cache. The fused kernel
//
//   1. plans: greedily groups consecutive steps whose combined dimension
//      window keeps the first intermediate within the scratch budget;
//   2. executes each group per (outer slab, inner tile), ping-ponging
//      intermediate levels through two ShardScratch tiles: the first pass
//      reads the group's input in place, middle passes stay packed in
//      scratch, and the last pass writes straight into the group's output
//      (the caller's output for the last group, a scratch grant
//      otherwise). A single-step group is one such pass per chunk. A
//      group whose window ends at the innermost dimension (inner == 1)
//      holds each slab as one contiguous run, so its chunk spans
//      consecutive slabs up to a fixed cell cap — the same pass with its
//      outer count scaled, instead of one short row per chunk.
//
// There is one executor, internal::ExecuteCascadeSerial: it runs on the
// calling thread out of one ShardScratch. AssemblyEngine reaches it
// through ShardPlan (one call per shard, on a claimed execution lane);
// CascadeAnalysis / CascadeSum below wrap it for standalone cascades.
//
// Bit-exactness: each output cell of a P1/R1 step is one add/subtract of
// two cells; the fused kernel performs the same per-dimension step
// sequence, so every result cell is produced by the identical
// (a+b)+(c+d)-shaped association tree as the step-at-a-time path — fused
// results are bit-identical for any grouping, tile width or scratch
// budget. OpCounter totals are derived analytically from the step volumes
// (the same totals the unfused kernels book), so plan costs and measured
// ops stay exact.

#ifndef VECUBE_HAAR_FUSED_H_
#define VECUBE_HAAR_FUSED_H_

#include <cstdint>
#include <vector>

#include "cube/tensor.h"
#include "haar/cascade.h"
#include "haar/scratch.h"
#include "haar/transform.h"
#include "util/query_context.h"
#include "util/result.h"

namespace vecube {

/// Applies a sequence of P1/R1 steps left to right in one fused serial
/// pass. Semantically identical to applying PartialSum / PartialResidual
/// per step (bit-exact results, identical OpCounter::adds), including the
/// Status returned for invalid steps. `ctx` (optional) is polled at
/// (slabs, tile) chunk granularity; an expired/cancelled context unwinds
/// with its Check() status — results are never partially published.
Result<Tensor> CascadeAnalysis(const Tensor& input,
                               const std::vector<CascadeStep>& steps,
                               OpCounter* ops = nullptr,
                               const QueryContext* ctx = nullptr);

/// `levels` fused P1 steps along `dim` (the depth-k cascade of Eq. 7;
/// levels = log2 of the extent is the total aggregation S^dim of Eq. 15).
/// Requires extent(dim) divisible by 2^levels.
Result<Tensor> CascadeSum(const Tensor& input, uint32_t dim, uint32_t levels,
                          OpCounter* ops = nullptr,
                          const QueryContext* ctx = nullptr);

namespace internal {

/// Default per-buffer scratch budget, in cells: the largest first
/// intermediate a fused group may produce per inner tile. Two buffers of
/// this size (512 KiB total) keep the whole ping-pong resident in L2.
inline constexpr uint64_t kDefaultFusedBudgetCells = uint64_t{1} << 15;

/// Current budget (cells per ping buffer).
uint64_t FusedBudgetCells();

/// Overrides the scratch budget; 0 restores the default. Tests use tiny
/// budgets to force group splits and windowed tiling on small tensors.
/// Affects planning only — results are bit-identical at any budget.
void SetFusedBudgetForTesting(uint64_t cells);

/// Runs an already-validated cascade serially over raw row-major storage:
/// every fused group of `steps` applied to `in` (shape `in_extents`),
/// final level written to `out` (which must not alias `in` or any scratch
/// grant). All intermediates and ping-pong tiles draw from `scratch` —
/// no locks, no pool, no allocation once the lane's slabs are warm. This
/// is the one cascade executor: the per-lane engine of the shard
/// executor (DESIGN.md §14) and the body of CascadeAnalysis.
/// The caller owns the scratch Reset() cycle: grants made before the call
/// (e.g. a gathered input subrectangle) stay valid throughout. `ctx` is
/// polled per (slab, tile) chunk. Books nothing (callers account
/// analytically).
[[nodiscard]] Status ExecuteCascadeSerial(
    const double* in, const std::vector<uint32_t>& in_extents,
    const std::vector<CascadeStep>& steps, double* out, ShardScratch* scratch,
    const QueryContext* ctx = nullptr);

}  // namespace internal

}  // namespace vecube

#endif  // VECUBE_HAAR_FUSED_H_
