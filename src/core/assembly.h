// AssemblyEngine: dynamic assembly of views from stored view elements.
//
// This is the operational heart of the paper: any view (element) is
// produced from a stored set either by *aggregating* a stored ancestor
// down (forward dependency) or by *synthesizing* it from its P/R children
// (reverse dependency, via perfect reconstruction), recursively. The
// engine's Procedure3Planner (core/planner.h) chooses the cheapest option
// per node — exactly the recursion of Procedure 3:
//
//   F_n = min over stored ancestors s of (Vol(s) − Vol(n))
//   R_n = Vol(n) + min_m (T_p^m + T_r^m)
//   T_n = min(F_n, R_n)
//
// The engine then executes the chosen plan with the real Haar kernels and
// counts operations, so the analytic cost and the measured cost are the
// same quantity — a tested invariant of this reproduction.
//
// Ownership during execution: a plan node that is a stored element is
// read in place from the ElementStore (borrowed, never copied); a computed
// child lives only as long as the frame that synthesizes it (in
// AssembleBatch, as long as the batch, in its latched cache entry); the
// only owned tensor is the answer, copied from the store only when the
// target is itself stored. Copies are work outside the cost model.
//
// The planner is built over the store's element ids and rebuilt by
// Invalidate().
//
// Threading model: planning is always serial (memo tables are unlocked).
// Execution fans out on an optional ThreadPool at three levels — every
// aggregate descent runs as a ShardPlan on the engine's
// ThreadedShardExecutor (one task below kParallelKernelCells source
// cells, up to num_shards() above), synthesis kernels chunk their row
// loops, and AssembleBatch() runs independent targets concurrently over a
// latched shared-subresult cache that computes every distinct
// sub-element exactly once. All levels are deterministic: outputs and
// measured op counts are identical at every thread and shard count.

#ifndef VECUBE_CORE_ASSEMBLY_H_
#define VECUBE_CORE_ASSEMBLY_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/element_id.h"
#include "core/graph.h"
#include "core/planner.h"
#include "core/shard_plan.h"
#include "core/store.h"
#include "cube/shape.h"
#include "cube/tensor.h"
#include "haar/transform.h"
#include "util/query_context.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace vecube {

/// Plans and executes assemblies of view elements over an ElementStore.
/// The planner memo is tied to the store's contents; call Invalidate()
/// after mutating the store.
class AssemblyEngine {
 public:
  /// Borrows the store (and the pool, when given); the caller keeps both
  /// alive. A null or single-threaded pool reproduces the serial engine
  /// exactly. `num_shards` bounds the dyadic shard decomposition of
  /// aggregate-descent cascades (DESIGN.md §14): 0 means "pool size", 1
  /// runs every cascade as one task, larger values round down to a power
  /// of two. Sharding never changes results or OpCounter totals.
  explicit AssemblyEngine(const ElementStore* store,
                          ThreadPool* pool = nullptr,
                          uint32_t num_shards = 0);

  /// Procedure-3 cost T_n of producing `target` from the store, in
  /// add/subtract operations. kInfiniteCost if unreachable (store not
  /// complete w.r.t. target) or if `target` does not fit the store's
  /// shape.
  uint64_t PlanCost(const ElementId& target);

  /// Materializes `target`. Status Incomplete if the stored set cannot
  /// reconstruct it. `ops` (optional) accrues the executed operation
  /// count, which equals PlanCost(target). `ctx` (optional) is polled at
  /// every plan node and inside the fused cascade loops at tile
  /// granularity; an expired or cancelled context unwinds the execution
  /// with kDeadlineExceeded / kCancelled (no partial tensor escapes).
  Result<Tensor> Assemble(const ElementId& target, OpCounter* ops = nullptr,
                          const QueryContext* ctx = nullptr);

  /// Convenience: the aggregated view for `aggregated_mask` (bit m set =
  /// dimension m totally aggregated).
  Result<Tensor> AssembleView(uint32_t aggregated_mask,
                              OpCounter* ops = nullptr,
                              const QueryContext* ctx = nullptr);

  /// Multi-query assembly: materializes all targets while sharing every
  /// common sub-result (common descendants are synthesized once, cascade
  /// results reused). Returns tensors in target order; `ops` counts the
  /// *shared* work, which is at most the sum of individual plan costs and
  /// often much less for overlapping targets. With a multi-threaded pool
  /// the targets execute concurrently; the shared cache latches each
  /// sub-element so it is still computed exactly once, keeping outputs and
  /// op counts identical to the single-threaded batch.
  Result<std::vector<Tensor>> AssembleBatch(
      const std::vector<ElementId>& targets, OpCounter* ops = nullptr,
      const QueryContext* ctx = nullptr);

  /// Drops all memoized plans (call after the store changes).
  void Invalidate();

  /// The shard plan of every aggregate descent that Assemble(target)
  /// runs, in execution order (a synthesis node's partial child first).
  /// Empty when the target is stored or cannot be reconstructed.
  std::vector<ShardPlan> CascadePlans(const ElementId& target);

  /// Resolved shard budget (after the "0 = pool size" default).
  [[nodiscard]] uint32_t num_shards() const { return num_shards_; }

 private:
  // Cross-target cache of sub-results for AssembleBatch. Each entry is a
  // latch: the first thread to insert it owns the computation; later
  // arrivals block on `cv` until `ready`. Sub-element dependencies form a
  // DAG (children are strictly deeper), so waits cannot cycle.
  struct BatchCache;

  // Runs the plan of `target` over borrowed inputs and returns where its
  // result lives: a stored target is the store's own tensor; any other
  // result is computed into `*slot`, which the caller's frame owns. With a
  // `cache` (AssembleBatch) the node's latched entry owns the result
  // instead, `slot` is unused, and each computed node books its kernel ops
  // into `cache` exactly once; without one every use is booked into `ops`,
  // so the measured ops equal the analytic PlanCost (which also counts
  // shared descendants of a single plan once per use).
  Result<const Tensor*> Execute(const ElementId& target, Tensor* slot,
                                BatchCache* cache, OpCounter* ops,
                                const QueryContext* ctx);
  // The plan of an aggregate descent over a source of `extents`: up to
  // num_shards_ tasks per stage (one below kParallelKernelCells source
  // cells).
  [[nodiscard]] ShardPlan PlanCascade(
      const std::vector<uint32_t>& extents,
      const std::vector<CascadeStep>& steps) const;
  // Aggregate-descent cascade: PlanCascade run on shard_exec_.
  // Bit-identical at any shard count, with identical analytic booking
  // into `ops`.
  Result<Tensor> RunCascade(const Tensor& source,
                            const std::vector<CascadeStep>& steps,
                            OpCounter* ops, const QueryContext* ctx);

  const ElementStore* store_;
  ThreadPool* pool_;
  uint32_t num_shards_;
  ThreadedShardExecutor shard_exec_;
  CubeShape shape_;
  ElementIndexer indexer_;
  // Plans over the store's current ids.
  Procedure3Planner planner_;
};

}  // namespace vecube

#endif  // VECUBE_CORE_ASSEMBLY_H_
