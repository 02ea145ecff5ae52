#include "core/assembly.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "util/failpoint.h"
#include "util/logging.h"
#include "util/sync.h"

namespace vecube {

namespace {
// A store holds only ids that fit its shape, so planning over them cannot
// fail.
Procedure3Planner PlannerOver(const ElementStore& store) {
  Result<Procedure3Planner> planner =
      Procedure3Planner::Make(store.shape(), store.Ids());
  VECUBE_CHECK(planner.ok());
  return std::move(*planner);
}

// The P1/R1 steps that cascade a stored ancestor down to `target`: per
// dimension, the remaining bits of the target's offset below the
// ancestor's level, most significant first. Executed as one fused
// cascade, the whole descent runs through scratch tiles instead of
// materializing a tensor per level; results and op totals are identical
// to the per-step loop this replaces.
std::vector<CascadeStep> DescentSteps(const ElementId& source,
                                      const ElementId& target) {
  std::vector<CascadeStep> steps;
  for (uint32_t m = 0; m < target.ndim(); ++m) {
    const DimCode from = source.dim(m);
    const DimCode to = target.dim(m);
    for (uint32_t bit = to.level - from.level; bit-- > 0;) {
      const bool residual = ((to.offset >> bit) & 1u) != 0;
      steps.push_back(CascadeStep{
          m, residual ? StepKind::kResidual : StepKind::kPartial});
    }
  }
  return steps;
}
}  // namespace

// Latched cross-target sub-result cache (see header). Entries are owned by
// shared_ptr so the map can grow while other threads hold their entry.
struct AssemblyEngine::BatchCache {
  struct Entry {
    Mutex mu;
    CondVar cv;
    bool ready VECUBE_GUARDED_BY(mu) = false;
    // non-OK when the owning computation failed
    Status status VECUBE_GUARDED_BY(mu);
    // The node's result, read in place: a stored element or `tensor`.
    const Tensor* result VECUBE_GUARDED_BY(mu) = nullptr;
    // Written by the owning thread before it sets `ready` and read only
    // after `ready` is seen, so `mu` orders every access.
    Tensor tensor;
  };
  Mutex mu;
  std::unordered_map<uint64_t, std::shared_ptr<Entry>> map
      VECUBE_GUARDED_BY(mu);
  // Kernel ops of the computed nodes, each booked once by its owner.
  std::atomic<uint64_t> adds{0};
};

AssemblyEngine::AssemblyEngine(const ElementStore* store, ThreadPool* pool,
                               uint32_t num_shards)
    : store_(store),
      pool_(pool),
      num_shards_(num_shards != 0
                      ? num_shards
                      : (pool != nullptr ? pool->num_threads() : 1)),
      shard_exec_(pool),
      shape_(store->shape()),
      indexer_(shape_),
      planner_(PlannerOver(*store)) {
  VECUBE_CHECK(store != nullptr);
}

ShardPlan AssemblyEngine::PlanCascade(const std::vector<uint32_t>& extents,
                                      const std::vector<CascadeStep>& steps)
    const {
  // Split only cascades with enough cells to amortize the per-task setup
  // (the threshold the kernels use for pool fan-out); a smaller one runs
  // as a single in-place task on the caller's lane.
  uint64_t cells = 1;
  for (const uint32_t e : extents) cells *= e;
  const uint32_t shards = cells >= kParallelKernelCells ? num_shards_ : 1;
  return ShardPlan::Build(extents, steps, shards);
}

Result<Tensor> AssemblyEngine::RunCascade(const Tensor& source,
                                          const std::vector<CascadeStep>& steps,
                                          OpCounter* ops,
                                          const QueryContext* ctx) {
  return shard_exec_.Execute(source, PlanCascade(source.extents(), steps),
                             ops, ctx);
}

std::vector<ShardPlan> AssemblyEngine::CascadePlans(const ElementId& target) {
  const Procedure3Planner::Node node = planner_.Plan(target);
  if (node.choice == Procedure3Planner::Choice::kAggregate) {
    const ElementId source = planner_.SourceOf(target);
    if (source == target) return {};
    return {PlanCascade(source.DataExtents(shape_),
                        DescentSteps(source, target))};
  }
  if (node.choice != Procedure3Planner::Choice::kSynthesize) return {};
  std::vector<ShardPlan> plans;
  for (const StepKind kind : {StepKind::kPartial, StepKind::kResidual}) {
    Result<ElementId> child = target.Child(node.split_dim, kind, shape_);
    if (!child.ok()) return {};
    std::vector<ShardPlan> sub = CascadePlans(*child);
    for (ShardPlan& plan : sub) plans.push_back(std::move(plan));
  }
  return plans;
}

void AssemblyEngine::Invalidate() {
  planner_ = PlannerOver(*store_);
}

uint64_t AssemblyEngine::PlanCost(const ElementId& target) {
  return planner_.Cost(target);
}

Result<const Tensor*> AssemblyEngine::Execute(const ElementId& target,
                                              Tensor* slot, BatchCache* cache,
                                              OpCounter* ops,
                                              const QueryContext* ctx) {
  if (ctx != nullptr) VECUBE_RETURN_NOT_OK(ctx->Check());
  // Chaos hook: lets latency tests stall every plan node (kDelay) or fail
  // the assembly mid-plan (kError). Unarmed cost: one relaxed load.
  if (std::optional<FailpointAction> fp =
          Failpoints::HitWithDelay("assembly.node");
      fp.has_value() && fp->kind == FailpointAction::Kind::kError) {
    return Status::Internal(
        "injected assembly failure (failpoint assembly.node)");
  }
  std::shared_ptr<BatchCache::Entry> entry;
  OpCounter local;
  if (cache != nullptr) {
    bool owner = false;
    {
      MutexLock lock(cache->mu);
      auto [it, inserted] =
          cache->map.try_emplace(indexer_.Encode(target), nullptr);
      if (inserted) {
        it->second = std::make_shared<BatchCache::Entry>();
        owner = true;
      }
      entry = it->second;
    }
    if (!owner) {
      // Another thread owns this node. Waits follow child edges of the plan
      // DAG only, and owners are always running threads, so this
      // terminates; the timed slices bound each wait (no-unbounded-wait)
      // and let an expired context unwind instead of riding out a slow
      // owner.
      MutexLock lock(entry->mu);
      while (!entry->ready) {
        if (ctx != nullptr) {
          Status live = ctx->Check();
          if (!live.ok()) return live;
        }
        entry->cv.WaitFor(entry->mu, std::chrono::milliseconds(100));
      }
      if (!entry->status.ok()) return entry->status;
      return entry->result;
    }
    // The entry owns this node's result, and its kernel work lands in a
    // local counter published once, keeping the batch total an
    // order-independent sum of per-node costs at every thread count.
    slot = &entry->tensor;
    ops = &local;
  }

  Result<const Tensor*> result = [&]() -> Result<const Tensor*> {
    // Batch plans were warmed serially by AssembleBatch: a memo read.
    const Procedure3Planner::Node node = planner_.Plan(target);
    switch (node.choice) {
      case Procedure3Planner::Choice::kAggregate: {
        const ElementId source = planner_.SourceOf(target);
        const Tensor* data;
        VECUBE_ASSIGN_OR_RETURN(data, store_->Get(source));
        if (source == target) return data;
        VECUBE_ASSIGN_OR_RETURN(
            *slot, RunCascade(*data, DescentSteps(source, target), ops, ctx));
        return slot;
      }
      case Procedure3Planner::Choice::kSynthesize: {
        ElementId p_id, r_id;
        VECUBE_ASSIGN_OR_RETURN(
            p_id, target.Child(node.split_dim, StepKind::kPartial, shape_));
        VECUBE_ASSIGN_OR_RETURN(
            r_id, target.Child(node.split_dim, StepKind::kResidual, shape_));
        // Computed children live only as long as this frame.
        Tensor p_slot, r_slot;
        const Tensor* p;
        const Tensor* r;
        VECUBE_ASSIGN_OR_RETURN(p, Execute(p_id, &p_slot, cache, ops, ctx));
        VECUBE_ASSIGN_OR_RETURN(r, Execute(r_id, &r_slot, cache, ops, ctx));
        VECUBE_ASSIGN_OR_RETURN(
            *slot, SynthesizePair(*p, *r, node.split_dim, ops, pool_));
        return slot;
      }
      case Procedure3Planner::Choice::kNone:
        break;
    }
    return Status::Incomplete("stored element set cannot reconstruct " +
                              target.ToString());
  }();
  if (entry == nullptr) return result;

  // order: relaxed — pure op accounting; the total is read only after
  // ParallelFor's completion barrier has ordered all chunk writes.
  cache->adds.fetch_add(local.adds, std::memory_order_relaxed);
  {
    MutexLock lock(entry->mu);
    if (result.ok()) {
      entry->result = *result;
    } else {
      entry->status = result.status();
    }
    entry->ready = true;
  }
  entry->cv.NotifyAll();
  return result;
}

Result<Tensor> AssemblyEngine::Assemble(const ElementId& target,
                                        OpCounter* ops,
                                        const QueryContext* ctx) {
  VECUBE_RETURN_NOT_OK(target.Validate(shape_));
  Tensor answer;
  const Tensor* result;
  VECUBE_ASSIGN_OR_RETURN(result, Execute(target, &answer, nullptr, ops, ctx));
  // Only a stored target comes back borrowed; the caller gets a copy.
  if (result != &answer) return *result;
  return answer;
}

Result<std::vector<Tensor>> AssemblyEngine::AssembleBatch(
    const std::vector<ElementId>& targets, OpCounter* ops,
    const QueryContext* ctx) {
  for (const ElementId& target : targets) {
    VECUBE_RETURN_NOT_OK(target.Validate(shape_));
  }

  // Phase 1 — serial planning: memoize the plan of every node execution
  // can touch. The memo tables are unlocked, so the concurrent phase must
  // only ever read them.
  std::unordered_set<uint64_t> visited;
  for (const ElementId& target : targets) planner_.Warm(target, &visited);

  // Phase 2 — execution, fanned out across targets when a pool is
  // available. The latched cache makes every distinct sub-element compute
  // exactly once regardless of scheduling.
  BatchCache cache;
  const uint64_t count = targets.size();
  std::vector<std::optional<Result<const Tensor*>>> results(count);

  // Cost-weighted scheduling: fan targets out largest-Procedure-3-cost
  // first (plans are already memoized, so PlanCost is a table read). The
  // grain-1 dynamic claiming then keeps every straggler small instead of
  // letting a heavyweight target land last on a skewed batch. Order
  // affects timing only — the latched cache computes each sub-element
  // once regardless, so results and op totals are scheduling-invariant.
  std::vector<uint64_t> order(count);
  for (uint64_t i = 0; i < count; ++i) order[i] = i;
  const bool fan_out = pool_ != nullptr && pool_->num_threads() > 1 &&
                       count > 1;
  if (fan_out) {
    std::vector<uint64_t> costs(count);
    for (uint64_t i = 0; i < count; ++i) costs[i] = PlanCost(targets[i]);
    std::stable_sort(order.begin(), order.end(), [&](uint64_t a, uint64_t b) {
      return costs[a] > costs[b];
    });
  }
  auto run_targets = [&](uint64_t begin, uint64_t end) {
    for (uint64_t i = begin; i < end; ++i) {
      const uint64_t t = order[i];
      results[t] = Execute(targets[t], nullptr, &cache, nullptr, ctx);
    }
  };
  if (fan_out) {
    pool_->ParallelFor(count, 1, run_targets);
  } else {
    run_targets(0, count);
  }

  // A computed answer moves out of its entry; a stored target, or a
  // repeat of an earlier target, is copied.
  std::vector<Tensor> out;
  out.reserve(count);
  std::unordered_map<uint64_t, uint64_t> first;  // element index -> i
  MutexLock lock(cache.mu);
  for (uint64_t i = 0; i < count; ++i) {
    if (!results[i]->ok()) return results[i]->status();
    const Tensor* result = **results[i];
    const uint64_t index = indexer_.Encode(targets[i]);
    const auto [it, fresh] = first.try_emplace(index, i);
    Tensor& owned = cache.map.at(index)->tensor;
    if (!fresh) {
      out.push_back(out[it->second]);
    } else if (result == &owned) {
      out.push_back(std::move(owned));
    } else {
      out.push_back(*result);
    }
  }
  // order: relaxed — every contributor finished inside ParallelFor's
  // acq_rel completion barrier, which ordered their fetch_adds here.
  if (ops != nullptr) ops->adds += cache.adds.load(std::memory_order_relaxed);
  return out;
}

Result<Tensor> AssemblyEngine::AssembleView(uint32_t aggregated_mask,
                                            OpCounter* ops,
                                            const QueryContext* ctx) {
  ElementId view;
  VECUBE_ASSIGN_OR_RETURN(view,
                          ElementId::AggregatedView(aggregated_mask, shape_));
  return Assemble(view, ops, ctx);
}

}  // namespace vecube
