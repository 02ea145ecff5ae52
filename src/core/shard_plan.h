// Dyadic shard decomposition of assembly cascades (DESIGN.md §14).
//
// A cascade of P1/R1 steps computes every output cell through a fixed
// binary add/subtract tree determined solely by the step sequence, and the
// frequency plane is dyadic, so a cube decomposes *naturally* into
// disjoint dyadic subrectangles whose cascades are fully independent:
//
//   * Concat splits partition the OUTPUT along any dimension whose
//     post-cascade extent is >= 2. Each shard runs the entire step list
//     on its subrectangle and its result is the matching block of the
//     global output — no cross-shard arithmetic at all.
//   * Merge splits go further along the dimension of the *last* step:
//     lanes run every step except the final d steps along that dimension,
//     and those deferred steps — which are a suffix of the global step
//     order, so every association tree is preserved — become a combine
//     DAG of d = log2(lanes) pairwise elementwise merge levels
//     (left ± right, lower-coordinate lane on the left).
//
// Both splits keep results bit-identical to the unsharded cascade at any
// (shards, threads, dispatch) point, and the analytic cost partitions
// exactly: sum of per-shard costs + combine cost == the unsharded
// OpCounter total (checked at plan construction).
//
// ShardPlan is pure geometry — deterministic, data-independent, cheap.
// ThreadedShardExecutor runs each shard's whole cascade (gather, every
// fused group, ping-pong tiles) on one claimed execution lane with a
// private ShardScratch slab before any cross-shard traffic. It is the one
// route every AssemblyEngine cascade takes: a one-task plan (shard budget
// 1, or a source below kParallelKernelCells) is contiguous on both sides,
// so it reads the source and writes the answer in place and runs the
// serial cascade on the caller's lane.

#ifndef VECUBE_CORE_SHARD_PLAN_H_
#define VECUBE_CORE_SHARD_PLAN_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "cube/tensor.h"
#include "haar/cascade.h"
#include "haar/scratch.h"
#include "haar/transform.h"
#include "util/query_context.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace vecube {

/// One independent sub-cascade of a ShardPlan. Every task of a plan
/// shares the same local shape, step list, and cost; only the origin and
/// combine coordinates differ.
struct ShardTask {
  std::vector<uint32_t> in_begin;   // subrectangle origin, source coords
  std::vector<uint32_t> out_begin;  // group-result origin, target coords
  uint64_t in_offset = 0;           // flat source offset of in_begin
  uint64_t out_offset = 0;          // flat target offset of out_begin
  uint32_t group = 0;   // combine group (== task index when no merges)
  uint32_t lane = 0;    // lane within the group, in [0, 1 << merge_levels)
};

/// Splits one cascade into independent dyadic-subrectangle sub-plans plus
/// a log-depth combine stage.
class ShardPlan {
 public:
  /// Decomposes `steps` over a row-major tensor of shape `extents` into
  /// at most `max_shards` tasks (rounded down to a power of two). The
  /// step list must already be valid for `extents` (AssemblyEngine plans
  /// are); non-dyadic shapes degrade to a single task. Concat splits are
  /// taken greedily outermost-dimension-first (so a dimension-0 split
  /// keeps source subrectangles contiguous); merge splits are added only
  /// once every output extent is exhausted.
  static ShardPlan Build(const std::vector<uint32_t>& extents,
                         const std::vector<CascadeStep>& steps,
                         uint32_t max_shards);

  [[nodiscard]] const std::vector<uint32_t>& in_extents() const {
    return in_extents_;
  }
  [[nodiscard]] const std::vector<uint32_t>& out_extents() const {
    return out_extents_;
  }
  [[nodiscard]] const std::vector<uint32_t>& local_in_extents() const {
    return local_in_extents_;
  }
  [[nodiscard]] const std::vector<uint32_t>& local_out_extents() const {
    return local_out_extents_;
  }
  /// The per-shard step list: the global list minus the deferred suffix.
  [[nodiscard]] const std::vector<CascadeStep>& local_steps() const {
    return local_steps_;
  }
  [[nodiscard]] const std::vector<ShardTask>& tasks() const { return tasks_; }
  /// Degree of available parallelism (number of independent tasks).
  [[nodiscard]] uint32_t parallelism() const {
    return static_cast<uint32_t>(tasks_.size());
  }
  /// Combine depth d: lanes per group == 1 << d.
  [[nodiscard]] uint32_t merge_levels() const { return merge_levels_; }
  /// Kind of each combine level, outermost deferred step first.
  [[nodiscard]] const std::vector<StepKind>& merge_kinds() const {
    return merge_kinds_;
  }
  /// True iff each task's source subrectangle is one contiguous run (the
  /// executor then reads the source in place instead of gathering).
  [[nodiscard]] bool in_contiguous() const { return in_contiguous_; }
  /// True iff each task's output block is one contiguous run.
  [[nodiscard]] bool out_contiguous() const { return out_contiguous_; }
  [[nodiscard]] uint64_t local_volume() const { return local_volume_; }
  [[nodiscard]] uint64_t local_out_volume() const { return local_out_volume_; }
  /// Analytic adds per task (every task costs the same).
  [[nodiscard]] uint64_t local_cost() const { return local_cost_; }
  /// Analytic adds of the combine stage.
  [[nodiscard]] uint64_t combine_cost() const { return combine_cost_; }
  /// tasks * local_cost + combine_cost == the unsharded cascade cost;
  /// the equality is checked in Build, so booking this keeps OpCounter
  /// totals invariant across every shard count.
  [[nodiscard]] uint64_t total_cost() const {
    return tasks_.size() * local_cost_ + combine_cost_;
  }

 private:
  ShardPlan() = default;

  std::vector<uint32_t> in_extents_;
  std::vector<uint32_t> out_extents_;
  std::vector<uint32_t> local_in_extents_;
  std::vector<uint32_t> local_out_extents_;
  std::vector<CascadeStep> local_steps_;
  std::vector<ShardTask> tasks_;
  std::vector<StepKind> merge_kinds_;
  uint32_t merge_levels_ = 0;
  bool in_contiguous_ = false;
  bool out_contiguous_ = false;
  uint64_t local_volume_ = 0;
  uint64_t local_out_volume_ = 0;
  uint64_t local_cost_ = 0;
  uint64_t combine_cost_ = 0;
};

/// In-process executor: fans tasks over a ThreadPool (cost order is the
/// caller's — tasks of one plan are equal-cost by construction), each on
/// a claimed execution lane owning a private ShardScratch slab, then runs
/// the combine DAG on the calling thread. Safe for concurrent Execute()
/// calls; a null pool runs everything serially on the caller.
class ThreadedShardExecutor {
 public:
  explicit ThreadedShardExecutor(ThreadPool* pool);

  /// Materializes the cascade described by `plan` over `source` (whose
  /// shape must equal plan.in_extents()), bit-identical to running the
  /// plan's global step list unsharded, and books exactly the plan's
  /// analytic total into `ops`. `ops` and `ctx` are optional; an
  /// expired/cancelled context unwinds with its Check() status and never
  /// publishes partial results.
  Result<Tensor> Execute(const Tensor& source, const ShardPlan& plan,
                         OpCounter* ops, const QueryContext* ctx);

 private:
  // An execution lane: a claimable private scratch slab. Lanes are
  // claimed for the duration of one worker's task run, so a lane's slabs
  // stay hot on whichever core the pool pinned that worker to.
  struct Lane {
    std::atomic<bool> busy{false};
    ShardScratch scratch;
  };

  static constexpr uint32_t kNoLane = UINT32_MAX;

  // The shard hot path: gather the task's subrectangle, run its whole
  // cascade serially out of `scratch`, and place the result (output
  // block, or combine-lane slot in `lane_buf`). Lock-free by
  // construction — enforced by vecube_check's
  // no-shared-scratch-on-shard-path rule.
  [[nodiscard]] Status RunTask(const Tensor& source, const ShardPlan& plan,
                               const ShardTask& task, double* out_raw,
                               double* lane_buf, ShardScratch* scratch,
                               const QueryContext* ctx) const;

  ShardScratch* ClaimLane(uint32_t* slot);
  void ReleaseLane(uint32_t slot);

  ThreadPool* pool_;
  std::vector<std::unique_ptr<Lane>> lanes_;
};

}  // namespace vecube

#endif  // VECUBE_CORE_SHARD_PLAN_H_
