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
// Splits along the lead dimension (the outermost one of extent > 1) keep
// each task's source subrectangle one contiguous run, which the executor
// reads in place; a split along an inner dimension must gather. So the
// lead dimension is split first — concat, then merge when the cascade
// ends there — and a cascade whose leading lead-dimension run drops that
// extent below the shard count runs in two stages: the run on contiguous
// merge lanes over the source, then the rest over the 2^-run-sized
// intermediate. Each stage is a legal plan, and the second starts from
// exactly the intermediate the unsharded cascade would have reached.
//
// Every split keeps results bit-identical to the unsharded cascade at any
// (shards, threads, dispatch) point, and the analytic cost partitions
// exactly: per stage, tasks * local cost + combine cost, summed over the
// stages, == the unsharded OpCounter total (checked at plan construction).
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
#include <string>
#include <vector>

#include "cube/tensor.h"
#include "haar/cascade.h"
#include "haar/scratch.h"
#include "haar/transform.h"
#include "util/query_context.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace vecube {

/// One independent sub-cascade of a ShardStage. Every task of a stage
/// shares the same local shape, step list, and cost; only the origin and
/// combine coordinates differ.
struct ShardTask {
  std::vector<uint32_t> in_begin;   // subrectangle origin, stage-input coords
  std::vector<uint32_t> out_begin;  // group-result origin, stage-output coords
  uint64_t in_offset = 0;           // flat input offset of in_begin
  uint64_t out_offset = 0;          // flat output offset of out_begin
  uint32_t group = 0;   // combine group (== task index when no merges)
  uint32_t lane = 0;    // lane within the group, in [0, 1 << merge_levels)
};

/// One stage of a ShardPlan: equal-cost independent tasks over the
/// stage's input, then a combine DAG of `merge_levels` pairwise levels
/// along `merge_dim`. Each stage is a legal one-stage plan on its own.
struct ShardStage {
  std::vector<uint32_t> in_extents;
  std::vector<uint32_t> out_extents;
  std::vector<uint32_t> split;  // concat split count per dimension
  std::vector<uint32_t> local_in_extents;
  std::vector<uint32_t> local_out_extents;
  /// The stage's steps minus the deferred (merged) suffix.
  std::vector<CascadeStep> local_steps;
  std::vector<ShardTask> tasks;
  /// Kind of each combine level, outermost deferred step first.
  std::vector<StepKind> merge_kinds;
  uint32_t merge_dim = 0;
  /// Combine depth d: lanes per group == 1 << d.
  uint32_t merge_levels = 0;
  /// Each task's input subrectangle is one contiguous run: the executor
  /// reads it in place instead of gathering it.
  bool in_contiguous = false;
  /// Each group's output block is one contiguous run: tasks (or the last
  /// combine level) write it in place instead of scattering it.
  bool out_contiguous = false;
  uint64_t local_volume = 0;
  uint64_t local_out_volume = 0;
  uint64_t local_cost = 0;    // analytic adds per task
  uint64_t combine_cost = 0;  // analytic adds of the combine DAG

  [[nodiscard]] uint64_t total_cost() const {
    return tasks.size() * local_cost + combine_cost;
  }
};

/// Splits one cascade into one or two stages of independent
/// dyadic-subrectangle sub-plans, each followed by a log-depth combine.
class ShardPlan {
 public:
  /// Decomposes `steps` over a row-major tensor of shape `extents` into
  /// stages of at most `max_shards` tasks (rounded down to a power of
  /// two). The step list must be valid for `extents` (AssemblyEngine
  /// plans are; an invalid one is a CHECK failure); non-dyadic shapes
  /// degrade to a single task. The lead dimension is the outermost one
  /// of extent > 1; splits are taken in this order: a concat split of
  /// the lead dimension, a merge split along it when the cascade ends in
  /// a lead-dimension run, concat splits of the inner dimensions
  /// outermost first, and last a merge split along the last step's
  /// dimension. When the cascade's leading lead-dimension run drops that
  /// extent below the shard count, the run becomes a first stage of its
  /// own, so its tasks read the source in place.
  static ShardPlan Build(const std::vector<uint32_t>& extents,
                         const std::vector<CascadeStep>& steps,
                         uint32_t max_shards);

  [[nodiscard]] const std::vector<uint32_t>& in_extents() const {
    return stages_.front().in_extents;
  }
  [[nodiscard]] const std::vector<uint32_t>& out_extents() const {
    return stages_.back().out_extents;
  }
  /// The stages, run in order; each stage's output is the next's input.
  [[nodiscard]] const std::vector<ShardStage>& stages() const {
    return stages_;
  }
  /// Degree of available parallelism (most tasks of any stage).
  [[nodiscard]] uint32_t parallelism() const;
  /// The sum of every stage's tasks * local_cost + combine_cost, which
  /// Build checks equals the unsharded cascade cost, so booking this
  /// keeps OpCounter totals invariant across every shard count.
  [[nodiscard]] uint64_t total_cost() const;
  /// One line per plan: per stage its shapes, task count, concat split
  /// per dimension, merge levels and dimension, local shape and step
  /// count, and whether tasks read their input in place or gather it.
  [[nodiscard]] std::string ToString() const;

 private:
  ShardPlan() = default;

  std::vector<ShardStage> stages_;
};

/// In-process executor: runs a plan stage by stage. Each stage fans its
/// tasks over a ThreadPool (tasks of one stage are equal-cost by
/// construction), each on a claimed execution lane owning a private
/// ShardScratch slab, then runs the combine DAG on the calling thread.
/// Safe for concurrent Execute() calls; a null pool runs everything
/// serially on the caller.
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

  // Runs one stage from `in` (shape stage.in_extents) into `out` (shape
  // stage.out_extents).
  [[nodiscard]] Status RunStage(const double* in, const ShardStage& stage,
                                double* out, const QueryContext* ctx);

  // The shard hot path: gather the task's subrectangle (or read it in
  // place), run its whole cascade serially out of `scratch`, and place
  // the result (output block, or combine-lane slot in `lane_buf`).
  // Lock-free by construction — enforced by vecube_check's
  // no-shared-scratch-on-shard-path rule.
  [[nodiscard]] Status RunTask(const double* in, const ShardStage& stage,
                               const ShardTask& task, double* out,
                               double* lane_buf, ShardScratch* scratch,
                               const QueryContext* ctx) const;

  ShardScratch* ClaimLane(uint32_t* slot);
  void ReleaseLane(uint32_t slot);

  ThreadPool* pool_;
  std::vector<std::unique_ptr<Lane>> lanes_;
};

}  // namespace vecube

#endif  // VECUBE_CORE_SHARD_PLAN_H_
