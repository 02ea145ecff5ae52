#include "core/shard_plan.h"

#include <algorithm>
#include <string>
#include <utility>

#include "haar/fused.h"
#include "haar/simd.h"
#include "util/bits.h"
#include "util/logging.h"

namespace vecube {

// Unqualified so the shard hot path's call graph stays visible to
// vecube_check's lexer backend (no-shared-scratch-on-shard-path).
using internal::ExecuteCascadeSerial;

namespace {

// Least output cells per lane when a stage's combine DAG is split across
// the pool: a smaller share costs more to fan out than its adds take.
constexpr uint64_t kCombineSplitCells = 2048;

std::vector<uint64_t> RowMajorStrides(const std::vector<uint32_t>& extents) {
  std::vector<uint64_t> strides(extents.size(), 1);
  for (size_t m = extents.size(); m-- > 1;) {
    strides[m - 1] = strides[m] * extents[m];
  }
  return strides;
}

uint64_t Volume(const std::vector<uint32_t>& extents) {
  uint64_t v = 1;
  for (const uint32_t e : extents) v *= e;
  return v;
}

// True iff every `local`-shaped subrectangle of a `global`-shaped
// row-major tensor is one contiguous run: every dimension before the
// innermost restricted one has local extent 1.
bool SubrectContiguous(const std::vector<uint32_t>& global,
                       const std::vector<uint32_t>& local) {
  size_t last = 0;
  for (size_t m = 0; m < global.size(); ++m) {
    if (local[m] != global[m]) last = m;
  }
  for (size_t m = 0; m < last; ++m) {
    if (local[m] != 1) return false;
  }
  return true;
}

// Copies the `local`-shaped subrectangle of `src` at `begin` into packed
// row-major `dst`. Runs are maximal contiguous spans (trailing full
// dimensions fold into the innermost restricted one).
void PackSubrect(const double* src, const std::vector<uint32_t>& src_extents,
                 const std::vector<uint32_t>& begin,
                 const std::vector<uint32_t>& local, double* dst) {
  const std::vector<uint64_t> strides = RowMajorStrides(src_extents);
  size_t last = 0;  // innermost restricted dimension
  for (size_t m = 0; m < src_extents.size(); ++m) {
    if (local[m] != src_extents[m]) last = m;
  }
  uint64_t run = local.empty() ? 1 : strides[last] * local[last];
  uint64_t base = 0;
  for (size_t m = 0; m < begin.size(); ++m) base += begin[m] * strides[m];
  // Odometer over the dimensions outside the run.
  std::vector<uint32_t> idx(last, 0);
  double* out = dst;
  for (;;) {
    uint64_t off = base;
    for (size_t m = 0; m < last; ++m) off += idx[m] * strides[m];
    std::copy(src + off, src + off + run, out);
    out += run;
    size_t m = last;
    while (m-- > 0) {
      if (++idx[m] < local[m]) break;
      idx[m] = 0;
      if (m == 0) return;
    }
    if (last == 0) return;
  }
}

// Inverse of PackSubrect: packed `local`-shaped `src` into the
// subrectangle of `dst` at `begin`.
void ScatterSubrect(const double* src, const std::vector<uint32_t>& dst_extents,
                    const std::vector<uint32_t>& begin,
                    const std::vector<uint32_t>& local, double* dst) {
  const std::vector<uint64_t> strides = RowMajorStrides(dst_extents);
  size_t last = 0;
  for (size_t m = 0; m < dst_extents.size(); ++m) {
    if (local[m] != dst_extents[m]) last = m;
  }
  const uint64_t run = local.empty() ? 1 : strides[last] * local[last];
  uint64_t base = 0;
  for (size_t m = 0; m < begin.size(); ++m) base += begin[m] * strides[m];
  std::vector<uint32_t> idx(last, 0);
  const double* in = src;
  for (;;) {
    uint64_t off = base;
    for (size_t m = 0; m < last; ++m) off += idx[m] * strides[m];
    std::copy(in, in + run, dst + off);
    in += run;
    size_t m = last;
    while (m-- > 0) {
      if (++idx[m] < local[m]) break;
      idx[m] = 0;
      if (m == 0) return;
    }
    if (last == 0) return;
  }
}

// Analytic adds of `steps` over `volume` cells: each step costs its
// output volume.
uint64_t CascadeCost(uint64_t volume, size_t steps) {
  uint64_t cost = 0;
  for (size_t s = 0; s < steps; ++s) {
    volume /= 2;
    cost += volume;
  }
  return cost;
}

// The outermost dimension of extent > 1: splits along it (and nothing
// before it) keep a subrectangle one contiguous run.
uint32_t LeadDim(const std::vector<uint32_t>& extents) {
  for (size_t m = 0; m < extents.size(); ++m) {
    if (extents[m] > 1) return static_cast<uint32_t>(m);
  }
  return 0;
}

std::string Dims(const std::vector<uint32_t>& extents) {
  std::string out;
  for (size_t m = 0; m < extents.size(); ++m) {
    if (m > 0) out += 'x';
    out += std::to_string(extents[m]);
  }
  return out;
}

// One stage over `extents`, which `steps` must be valid for, in at most
// `shards` (a power of two) tasks.
ShardStage BuildStage(const std::vector<uint32_t>& extents,
                      const std::vector<CascadeStep>& steps,
                      uint32_t shards) {
  ShardStage st;
  const size_t nd = extents.size();
  st.in_extents = extents;
  st.out_extents = extents;
  for (const CascadeStep& step : steps) st.out_extents[step.dim] /= 2;

  // The merge dimension is always the last step's, and the deferral depth
  // is capped by its trailing run: the deferred steps must be a suffix of
  // the stage's order or the per-cell association trees would change.
  const uint32_t mstar = steps.empty() ? 0 : steps.back().dim;
  uint32_t trail = 0;
  for (auto it = steps.rbegin(); it != steps.rend() && it->dim == mstar;
       ++it) {
    ++trail;
  }
  const uint32_t trail_cap =
      trail >= 31 ? (uint32_t{1} << 31) : (uint32_t{1} << trail);
  st.split.assign(nd, 1);
  uint32_t rem = shards;
  uint32_t merge = 1;
  auto take_merge = [&] {
    merge = std::min({rem, trail_cap, extents[mstar] / st.split[mstar]});
    rem /= merge;
  };
  // Lead-dimension splits first: they keep task inputs contiguous.
  const uint32_t lead = LeadDim(extents);
  st.split[lead] = std::min(rem, st.out_extents[lead]);
  rem /= st.split[lead];
  if (rem > 1 && !steps.empty() && mstar == lead) take_merge();
  for (size_t m = lead + 1; m < nd && rem > 1; ++m) {
    st.split[m] = std::min(rem, st.out_extents[m]);
    rem /= st.split[m];
  }
  // rem > 1 here means every output extent is fully split.
  if (rem > 1 && !steps.empty() && merge == 1) take_merge();

  const uint32_t dlev = ExactLog2(merge);
  st.merge_dim = mstar;
  st.merge_levels = dlev;
  for (uint32_t l = 0; l < dlev; ++l) {
    st.merge_kinds.push_back(steps[steps.size() - dlev + l].kind);
  }
  st.local_steps.assign(steps.begin(), steps.end() - dlev);

  st.local_in_extents.resize(nd);
  for (size_t m = 0; m < nd; ++m) {
    st.local_in_extents[m] = extents[m] / st.split[m];
  }
  if (merge > 1) st.local_in_extents[mstar] /= merge;
  st.local_out_extents = st.local_in_extents;
  for (const CascadeStep& step : st.local_steps) {
    st.local_out_extents[step.dim] /= 2;
  }
  st.local_volume = Volume(st.local_in_extents);
  st.local_out_volume = Volume(st.local_out_extents);
  st.local_cost = CascadeCost(st.local_volume, st.local_steps.size());

  uint32_t groups = 1;
  for (size_t m = 0; m < nd; ++m) groups *= st.split[m];
  for (uint32_t l = 0; l < dlev; ++l) {
    st.combine_cost +=
        uint64_t{groups} * (merge >> (l + 1)) * st.local_out_volume;
  }

  st.in_contiguous = SubrectContiguous(extents, st.local_in_extents);
  // A group's result covers the local output shape: its one-lane block.
  st.out_contiguous = SubrectContiguous(st.out_extents, st.local_out_extents);

  const std::vector<uint64_t> in_strides = RowMajorStrides(extents);
  const std::vector<uint64_t> out_strides = RowMajorStrides(st.out_extents);
  st.tasks.reserve(uint64_t{groups} * merge);
  std::vector<uint32_t> g(nd, 0);
  for (uint32_t grid = 0; grid < groups; ++grid) {
    uint32_t idx = grid;
    for (size_t m = nd; m-- > 0;) {
      g[m] = idx % st.split[m];
      idx /= st.split[m];
    }
    for (uint32_t lane = 0; lane < merge; ++lane) {
      ShardTask task;
      task.group = grid;
      task.lane = lane;
      task.in_begin.resize(nd);
      task.out_begin.resize(nd);
      for (size_t m = 0; m < nd; ++m) {
        task.in_begin[m] = g[m] * st.local_in_extents[m];
        task.out_begin[m] = g[m] * st.local_out_extents[m];
      }
      if (merge > 1) {
        task.in_begin[mstar] =
            (g[mstar] * merge + lane) * st.local_in_extents[mstar];
      }
      for (size_t m = 0; m < nd; ++m) {
        task.in_offset += task.in_begin[m] * in_strides[m];
        task.out_offset += task.out_begin[m] * out_strides[m];
      }
      st.tasks.push_back(std::move(task));
    }
  }
  return st;
}

}  // namespace

ShardPlan ShardPlan::Build(const std::vector<uint32_t>& extents,
                           const std::vector<CascadeStep>& steps,
                           uint32_t max_shards) {
  ShardPlan plan;
  const size_t nd = extents.size();
  VECUBE_CHECK(nd > 0) << "shard plan over a rank-0 tensor";

  // Apply the steps to a copy: confirms the list is valid for this shape
  // (the engine's planner guarantees it).
  std::vector<uint32_t> cur = extents;
  for (const CascadeStep& step : steps) {
    VECUBE_CHECK(step.dim < nd && cur[step.dim] >= 2 &&
                 cur[step.dim] % 2 == 0)
        << "cascade step list is invalid for the shard plan's extents";
    cur[step.dim] /= 2;
  }

  bool dyadic = true;
  for (const uint32_t e : extents) {
    if (!IsPowerOfTwo(e)) dyadic = false;
  }
  uint32_t shards = 1;
  if (dyadic && !steps.empty() && max_shards > 1) {
    shards = uint32_t{1} << FloorLog2(max_shards);
  }

  // Stage at the leading run: when the steps that open the cascade along
  // the lead dimension leave it fewer rows than shards, a one-stage plan
  // would split an inner dimension and gather; run the prefix alone on
  // contiguous merge lanes instead. The rest runs over the 2^-run-sized
  // intermediate in shards >> run tasks, so its tasks carry as many
  // cells as the first stage's: fewer would not repay waking the pool,
  // and the caller's combine has just written that intermediate.
  const uint32_t lead = LeadDim(extents);
  size_t run = 0;
  while (run < steps.size() && steps[run].dim == lead) ++run;
  if (run > 0 && run < steps.size() && (extents[lead] >> run) < shards) {
    const std::vector<CascadeStep> prefix(steps.begin(), steps.begin() + run);
    const std::vector<CascadeStep> rest(steps.begin() + run, steps.end());
    plan.stages_.push_back(BuildStage(extents, prefix, shards));
    plan.stages_.push_back(BuildStage(plan.stages_.front().out_extents, rest,
                                      std::max(shards >> run, 1u)));
  } else {
    plan.stages_.push_back(BuildStage(extents, steps, shards));
  }

  // The decomposition must book exactly what the unsharded cascade
  // books, per stage and in sum — the ops-invariance contract shard_test
  // pins.
  uint64_t volume = Volume(extents);
  for (const ShardStage& st : plan.stages_) {
    const size_t count = st.local_steps.size() + st.merge_levels;
    VECUBE_CHECK(st.total_cost() == CascadeCost(volume, count))
        << "shard stage does not partition its cascade cost";
    volume >>= count;
  }
  VECUBE_CHECK(plan.total_cost() == CascadeCost(Volume(extents), steps.size()))
      << "shard decomposition does not partition the cascade cost";
  return plan;
}

uint32_t ShardPlan::parallelism() const {
  size_t most = 0;
  for (const ShardStage& st : stages_) most = std::max(most, st.tasks.size());
  return static_cast<uint32_t>(most);
}

uint64_t ShardPlan::total_cost() const {
  uint64_t cost = 0;
  for (const ShardStage& st : stages_) cost += st.total_cost();
  return cost;
}

std::string ShardPlan::ToString() const {
  std::string out;
  for (size_t s = 0; s < stages_.size(); ++s) {
    const ShardStage& st = stages_[s];
    if (s > 0) out += " | ";
    out += "stage " + std::to_string(s + 1) + "/" +
           std::to_string(stages_.size()) + ": " + Dims(st.in_extents) +
           "->" + Dims(st.out_extents) +
           " tasks=" + std::to_string(st.tasks.size()) +
           " concat=" + Dims(st.split) + " merge=";
    out += st.merge_levels == 0
               ? std::string("none")
               : std::to_string(st.merge_levels) + "@dim" +
                     std::to_string(st.merge_dim);
    out += " local=" + Dims(st.local_in_extents) + "/" +
           std::to_string(st.local_steps.size()) + " steps" +
           (st.in_contiguous ? " in-place" : " gather");
  }
  return out;
}

ThreadedShardExecutor::ThreadedShardExecutor(ThreadPool* pool) : pool_(pool) {
  // One lane per pool participant plus one for an external caller; extra
  // concurrent callers fall back to a transient slab.
  const uint32_t lanes = (pool_ != nullptr ? pool_->num_threads() : 0) + 1;
  lanes_.reserve(lanes);
  for (uint32_t i = 0; i < lanes; ++i) {
    lanes_.push_back(std::make_unique<Lane>());
  }
}

ShardScratch* ThreadedShardExecutor::ClaimLane(uint32_t* slot) {
  // Start at the lane this thread held last: a lane's slabs sit in the
  // cache of the core that last wrote them, and a thread that takes over
  // another core's lane fetches every intermediate from there.
  static thread_local uint32_t last = 0;
  for (uint32_t k = 0; k < lanes_.size(); ++k) {
    const uint32_t i = static_cast<uint32_t>((last + k) % lanes_.size());
    bool expected = false;
    // order: acquire — pairs with the release in ReleaseLane so the
    // lane's slab bookkeeping written by the previous owner is visible.
    if (lanes_[i]->busy.compare_exchange_strong(expected, true,
                                                std::memory_order_acquire,
                                                std::memory_order_relaxed)) {
      *slot = i;
      last = i;
      return &lanes_[i]->scratch;
    }
  }
  *slot = kNoLane;
  return nullptr;
}

void ThreadedShardExecutor::ReleaseLane(uint32_t slot) {
  if (slot == kNoLane) return;
  // order: release — publishes this owner's slab bookkeeping to the next
  // ClaimLane acquire.
  lanes_[slot]->busy.store(false, std::memory_order_release);
}

Status ThreadedShardExecutor::RunTask(const double* in,
                                      const ShardStage& stage,
                                      const ShardTask& task, double* out,
                                      double* lane_buf, ShardScratch* scratch,
                                      const QueryContext* ctx) const {
  // Read the task's subrectangle in place when the split kept it
  // contiguous (every lead-dimension split), else gather it.
  const double* lane_in;
  if (stage.in_contiguous) {
    lane_in = in + task.in_offset;
  } else {
    double* gathered = scratch->Take(stage.local_volume);
    PackSubrect(in, stage.in_extents, task.in_begin, stage.local_in_extents,
                gathered);
    lane_in = gathered;
  }

  double* dst;
  if (stage.merge_levels > 0) {
    // Combine lane: results land group-major in the lane buffer; tasks
    // are enumerated group-major too, so the slot index is the task's
    // position.
    const uint64_t slot =
        (uint64_t{task.group} << stage.merge_levels) + task.lane;
    dst = lane_buf + slot * stage.local_out_volume;
  } else if (stage.out_contiguous) {
    dst = out + task.out_offset;
  } else {
    dst = scratch->Take(stage.local_out_volume);
  }

  VECUBE_RETURN_NOT_OK(ExecuteCascadeSerial(lane_in, stage.local_in_extents,
                                            stage.local_steps, dst, scratch,
                                            ctx));

  if (stage.merge_levels == 0 && !stage.out_contiguous) {
    ScatterSubrect(dst, stage.out_extents, task.out_begin,
                   stage.local_out_extents, out);
  }
  return Status::OK();
}

Status ThreadedShardExecutor::RunStage(const double* in,
                                       const ShardStage& stage, double* out,
                                       const QueryContext* ctx) {
  const std::vector<ShardTask>& tasks = stage.tasks;
  TensorBuffer lane_storage;
  double* lane_buf = nullptr;
  if (stage.merge_levels > 0) {
    lane_storage.resize(tasks.size() * stage.local_out_volume);
    lane_buf = lane_storage.data();
  }

  // First failure wins deterministically: statuses land in per-task slots
  // (no lock on the shard path) and are scanned in task order after the
  // fan-in barrier.
  std::vector<Status> task_status(tasks.size());
  std::atomic<bool> interrupted{false};

  auto worker = [&](uint64_t begin, uint64_t end) {
    uint32_t slot = kNoLane;
    ShardScratch* scratch = ClaimLane(&slot);
    std::unique_ptr<ShardScratch> transient;
    if (scratch == nullptr) {
      transient = std::make_unique<ShardScratch>();
      scratch = transient.get();
    }
    for (uint64_t t = begin; t < end; ++t) {
      // order: relaxed — a stop hint between sibling workers; nothing is
      // published through it (the output is abandoned on unwind).
      if (interrupted.load(std::memory_order_relaxed)) break;
      scratch->Reset();
      Status status =
          RunTask(in, stage, tasks[t], out, lane_buf, scratch, ctx);
      if (!status.ok()) {
        task_status[t] = std::move(status);
        // order: relaxed — see the load above.
        interrupted.store(true, std::memory_order_relaxed);
        break;
      }
    }
    ReleaseLane(slot);
  };

  if (pool_ != nullptr && pool_->num_threads() > 1 && tasks.size() > 1) {
    pool_->ParallelFor(tasks.size(), 1, worker);
  } else {
    worker(0, tasks.size());
  }

  // order: relaxed — ParallelFor's completion barrier already ordered
  // every worker's stores before this load.
  if (interrupted.load(std::memory_order_relaxed)) {
    for (Status& status : task_status) {
      if (!status.ok()) return std::move(status);
    }
    return Status::Cancelled("shard execution interrupted");
  }
  if (stage.merge_levels == 0) return Status::OK();

  // Combine DAG: merge_levels pairwise elementwise levels, front-packed
  // in place (slot p <- slot 2p ± slot 2p+1; every slot is read at
  // iteration p/2, before iteration p overwrites it, and slot 0 is
  // updated with dst == left, which the row kernels allow). Lane order
  // is the coordinate order along the merge dimension, so left = lower
  // coordinate, exactly the deferred steps' operand order. The last
  // level writes a contiguous group block straight into `out`. A cell
  // depends only on the same cell of its group's slots, so the lanes
  // split the cell range [begin, end) and every cell keeps its operands.
  const HaarVecOps& vec = VecOps();
  const uint64_t cells = stage.local_out_volume;
  const uint64_t groups = tasks.size() >> stage.merge_levels;
  auto combine = [&](uint64_t begin, uint64_t end) {
    for (uint64_t g = 0; g < groups; ++g) {
      double* base = lane_buf + (g << stage.merge_levels) * cells + begin;
      double* last = stage.out_contiguous
                         ? out + tasks[g << stage.merge_levels].out_offset +
                               begin
                         : base;
      uint32_t lanes = uint32_t{1} << stage.merge_levels;
      for (uint32_t l = 0; l < stage.merge_levels; ++l) {
        const bool add = stage.merge_kinds[l] == StepKind::kPartial;
        const uint32_t half = lanes / 2;
        for (uint32_t p = 0; p < half; ++p) {
          const double* left = base + uint64_t{2} * p * cells;
          double* dst = half == 1 ? last : base + uint64_t{p} * cells;
          if (add) {
            vec.add_rows(left, left + cells, dst, end - begin);
          } else {
            vec.sub_rows(left, left + cells, dst, end - begin);
          }
        }
        lanes = half;
      }
    }
  };
  if (pool_ != nullptr && pool_->num_threads() > 1 &&
      groups * cells >= kCombineSplitCells) {
    pool_->ParallelFor(cells, kCombineSplitCells / groups, combine);
  } else {
    combine(0, cells);
  }
  if (!stage.out_contiguous) {
    for (uint64_t g = 0; g < groups; ++g) {
      ScatterSubrect(lane_buf + (g << stage.merge_levels) * cells,
                     stage.out_extents, tasks[g << stage.merge_levels].out_begin,
                     stage.local_out_extents, out);
    }
  }
  return Status::OK();
}

Result<Tensor> ThreadedShardExecutor::Execute(const Tensor& source,
                                              const ShardPlan& plan,
                                              OpCounter* ops,
                                              const QueryContext* ctx) {
  if (source.extents() != plan.in_extents()) {
    return Status::InvalidArgument(
        "shard plan was built for a different source shape");
  }
  Tensor out;
  VECUBE_ASSIGN_OR_RETURN(out, Tensor::Uninitialized(plan.out_extents()));
  // A two-stage plan hands the first stage's output to the second
  // through one intermediate, 2^-run the source's size.
  TensorBuffer intermediate;
  const double* in = source.raw();
  const std::vector<ShardStage>& stages = plan.stages();
  for (size_t s = 0; s < stages.size(); ++s) {
    double* dst = out.raw();
    if (s + 1 < stages.size()) {
      intermediate.resize(Volume(stages[s].out_extents));
      dst = intermediate.data();
    }
    VECUBE_RETURN_NOT_OK(RunStage(in, stages[s], dst, ctx));
    in = dst;
  }

  // Book the whole cascade analytically on the calling thread: the plan's
  // partitioned total equals the unsharded total by construction, so
  // OpCounter stays invariant at every (shards, threads) point.
  if (ops != nullptr) ops->adds += plan.total_cost();
  return out;
}

}  // namespace vecube
