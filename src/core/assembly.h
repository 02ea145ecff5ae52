// AssemblyEngine: dynamic assembly of views from stored view elements.
//
// This is the operational heart of the paper: any view (element) is
// produced from a stored set either by *aggregating* a stored ancestor
// down (forward dependency) or by *synthesizing* it from its P/R children
// (reverse dependency, via perfect reconstruction), recursively. The
// planner chooses the cheapest option per node — exactly the recursion of
// Procedure 3:
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
// Implementation note: planning recursions run on raw per-dimension code
// buffers with memo tables keyed by the element's mixed-radix index
// (ElementIndexer): one word per graph node, 0 meaning "not yet planned".
// Up to kDenseMemoLimit nodes the tables are flat arrays calloc'd on the
// first plan, so pages the planner never touches stay unbacked zero pages;
// above it they are hash maps over the visited nodes. A node is expanded
// into its synthesis cones only when some stored element is finer than it
// and comparable with it (DESIGN.md §1, Procedure 3), so a plan visits the
// nodes near its target rather than the whole graph.
// The raw buffers are fixed kMaxDims arrays; every public entry point
// rejects stores of higher arity up front (CubeShape admits up to 24
// dimensions, so the check is load-bearing, not decorative).
//
// Threading model: planning is always serial (memo tables are unlocked).
// Execution fans out on an optional ThreadPool at two levels — the Haar
// kernels chunk their row loops, and AssembleBatch() runs independent
// targets concurrently over a latched shared-subresult cache that computes
// every distinct sub-element exactly once. Both levels are deterministic:
// outputs and measured op counts are identical at every thread count.

#ifndef VECUBE_CORE_ASSEMBLY_H_
#define VECUBE_CORE_ASSEMBLY_H_

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/element_id.h"
#include "core/graph.h"
#include "core/shard_plan.h"
#include "core/store.h"
#include "cube/shape.h"
#include "cube/tensor.h"
#include "haar/scratch.h"
#include "haar/transform.h"
#include "util/query_context.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace vecube {

/// Cost value for unreachable targets.
inline constexpr uint64_t kInfiniteCost =
    std::numeric_limits<uint64_t>::max();

/// Highest store arity the engine's fixed planning buffers support.
inline constexpr uint32_t kMaxAssemblyDims = 16;

/// Plans and executes assemblies of view elements over an ElementStore.
/// The planner memo is tied to the store's contents; call Invalidate()
/// after mutating the store.
class AssemblyEngine {
 public:
  /// Borrows the store (and the pool and arena, when given); the caller
  /// keeps all three alive. A null or single-threaded pool reproduces the
  /// serial engine exactly; `arena` only recycles kernel scratch and never
  /// changes results. `num_shards` bounds the dyadic shard decomposition
  /// of aggregate-descent cascades (DESIGN.md §14): 0 means "pool size",
  /// 1 disables sharding, larger values round down to a power of two.
  /// Sharding never changes results or OpCounter totals.
  explicit AssemblyEngine(const ElementStore* store,
                          ThreadPool* pool = nullptr,
                          ScratchArena* arena = nullptr,
                          uint32_t num_shards = 0);

  /// Procedure-3 cost T_n of producing `target` from the store, in
  /// add/subtract operations. kInfiniteCost if unreachable (store not
  /// complete w.r.t. target), if `target` does not fit the store's shape,
  /// or if the arity is beyond kMaxAssemblyDims.
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

  /// Resolved shard budget (after the "0 = pool size" default).
  [[nodiscard]] uint32_t num_shards() const { return num_shards_; }

 private:
  enum class Choice : uint8_t { kAggregate, kSynthesize, kNone };

  // One node's plan, unpacked from its plan-memo word. The aggregate
  // source is not part of it: it is the node's ancestor-memo entry.
  struct PlanNode {
    uint64_t cost = kInfiniteCost;
    Choice choice = Choice::kNone;
    uint32_t split_dim = 0;  // kSynthesize
  };

  // A stored element as the ancestor memo refers to it.
  struct StoredRef {
    uint64_t index;   // encoded element index
    uint64_t volume;  // kInfiniteCost for the "no ancestor" sentinel
  };

  // One word per graph node, 0 meaning "not yet visited". Dense tables are
  // calloc'd on the first Set(), so an engine that never plans allocates
  // nothing and untouched pages are never backed.
  template <typename Word>
  class WordMemo {
   public:
    void Reset(uint64_t universe, bool dense) {
      universe_ = universe;
      dense_ = dense;
      words_.reset();
      map_.clear();
    }
    [[nodiscard]] Word Get(uint64_t index) const {
      if (dense_) return words_ != nullptr ? words_[index] : Word{0};
      auto it = map_.find(index);
      return it == map_.end() ? Word{0} : it->second;
    }
    void Set(uint64_t index, Word word);

   private:
    struct FreeDeleter {
      void operator()(Word* words) const { std::free(words); }
    };
    uint64_t universe_ = 0;
    bool dense_ = false;
    std::unique_ptr<Word[], FreeDeleter> words_;
    std::unordered_map<uint64_t, Word> map_;
  };

  // Cross-target cache of sub-results for AssembleBatch. Each entry is a
  // latch: the first thread to insert it owns the computation; later
  // arrivals block on `cv` until `ready`. Sub-element dependencies form a
  // DAG (children are strictly deeper), so waits cannot cycle.
  struct BatchCache;

  uint64_t EncodeRaw(const DimCode* codes) const;
  uint64_t VolumeRaw(const DimCode* codes) const;
  // The smallest stored ancestor-or-self, as an ancestor-memo word: 1 + its
  // position in stored_ (position 0 is the "none" sentinel).
  uint32_t MinAncestorRaw(DimCode* codes);
  PlanNode PlanRaw(DimCode* codes);
  // True when some stored element is comparable with `codes` in every
  // dimension (one code a dyadic prefix of the other) and strictly finer in
  // at least one: a "finer relative". Without one, synthesis cannot beat
  // aggregation (DESIGN.md §1, Procedure 3).
  [[nodiscard]] bool HasFinerRelativeRaw(const DimCode* codes) const;
  // Encoded index of the stored element a kAggregate node reads from.
  [[nodiscard]] uint64_t SourceOf(uint64_t index) const {
    return stored_[ancestor_memo_.Get(index) - 1].index;
  }
  // Memoizes the plan of every node the execution of `codes` will visit
  // (serially), so concurrent batch execution only reads the memo tables.
  void WarmPlanRaw(DimCode* codes, std::unordered_set<uint64_t>* visited);
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
  // Aggregate-descent cascade: shard-decomposed when the shard budget and
  // source size allow, otherwise the pooled fused path. Bit-identical
  // either way, with identical analytic booking into `ops`.
  Result<Tensor> RunCascade(const Tensor& source,
                            const std::vector<CascadeStep>& steps,
                            OpCounter* ops, const QueryContext* ctx);

  const ElementStore* store_;
  ThreadPool* pool_;
  ScratchArena* arena_;
  uint32_t num_shards_;
  std::unique_ptr<ThreadedShardExecutor> shard_exec_;
  CubeShape shape_;
  ElementIndexer indexer_;
  bool dense_memos_ = false;
  // Stored elements: encoded index -> position in stored_, and stored_
  // itself, behind the "none" sentinel at position 0.
  std::unordered_map<uint64_t, uint32_t> stored_slot_;
  std::vector<StoredRef> stored_;
  // The codes of stored_[j + 1], ndim() per element, for the prune's scan.
  std::vector<DimCode> stored_codes_;
  WordMemo<uint32_t> ancestor_memo_;
  WordMemo<uint64_t> plan_memo_;
};

}  // namespace vecube

#endif  // VECUBE_CORE_ASSEMBLY_H_
