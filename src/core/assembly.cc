#include "core/assembly.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <memory>
#include <optional>

#include "haar/fused.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/sync.h"

namespace vecube {

namespace {
// Flat memo tables up to this many graph nodes: at most 192 MiB of address
// space (4 + 8 bytes per node), of which only the pages holding visited
// nodes are ever backed. Larger graphs use hash maps over the visited nodes.
constexpr uint64_t kDenseMemoLimit = uint64_t{1} << 24;

// Plan-memo word: (cost + 1) << 6 | split_dim << 2 | choice. cost + 1 wraps
// kInfiniteCost to 0, and a finite cost makes the word nonzero, so 0 stays
// free for "not yet planned".
constexpr uint32_t kPlanCostShift = 6;
constexpr uint64_t kMaxPackedCost = (uint64_t{1} << (64 - kPlanCostShift)) - 1;

Status TooManyDims() {
  return Status::InvalidArgument(
      "at most 16 dimensions supported for assembly planning");
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
    const DimCode& from = source.dim(m);
    const DimCode& to = target.dim(m);
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
                               ScratchArena* arena, uint32_t num_shards)
    : store_(store),
      pool_(pool),
      arena_(arena),
      num_shards_(num_shards != 0
                      ? num_shards
                      : (pool != nullptr ? pool->num_threads() : 1)),
      shape_(store->shape()),
      indexer_(shape_) {
  VECUBE_CHECK(store != nullptr);
  if (num_shards_ > 1) {
    shard_exec_ = std::make_unique<ThreadedShardExecutor>(pool_);
  }
  dense_memos_ = indexer_.size() <= kDenseMemoLimit;
  Invalidate();
}

Result<Tensor> AssemblyEngine::RunCascade(const Tensor& source,
                                          const std::vector<CascadeStep>& steps,
                                          OpCounter* ops,
                                          const QueryContext* ctx) {
  // Shard only cascades with enough cells to amortize the per-task setup
  // (same threshold the kernels use for pool fan-out); tiny descents and
  // degenerate decompositions take the pooled fused path unchanged.
  if (shard_exec_ != nullptr && !steps.empty() &&
      source.size() >= kParallelKernelCells) {
    const ShardPlan plan =
        ShardPlan::Build(source.extents(), steps, num_shards_);
    if (plan.parallelism() > 1) {
      return shard_exec_->Execute(source, plan, ops, ctx);
    }
  }
  return CascadeAnalysis(source, steps, ops, pool_, arena_, ctx);
}

template <typename Word>
void AssemblyEngine::WordMemo<Word>::Set(uint64_t index, Word word) {
  if (!dense_) {
    map_[index] = word;
    return;
  }
  if (words_ == nullptr) {
    words_.reset(static_cast<Word*>(std::calloc(universe_, sizeof(Word))));
    VECUBE_CHECK(words_ != nullptr);
  }
  words_[index] = word;
}

void AssemblyEngine::Invalidate() {
  const std::vector<ElementId> ids = store_->Ids();
  VECUBE_CHECK(ids.size() < std::numeric_limits<uint32_t>::max() - 1);
  stored_slot_.clear();
  stored_.assign(1, StoredRef{0, kInfiniteCost});
  stored_codes_.clear();
  for (const ElementId& id : ids) {
    const uint64_t index = indexer_.Encode(id);
    stored_slot_[index] = static_cast<uint32_t>(stored_.size());
    stored_.push_back(StoredRef{index, id.DataVolume(shape_)});
    stored_codes_.insert(stored_codes_.end(), id.codes().begin(),
                         id.codes().end());
  }

  ancestor_memo_.Reset(indexer_.size(), dense_memos_);
  plan_memo_.Reset(indexer_.size(), dense_memos_);
}

uint64_t AssemblyEngine::EncodeRaw(const DimCode* codes) const {
  uint64_t index = 0;
  uint64_t weight = 1;
  for (uint32_t m = shape_.ndim(); m-- > 0;) {
    index += (((uint64_t{1} << codes[m].level) - 1) + codes[m].offset) * weight;
    weight *= 2ull * shape_.extent(m) - 1;
  }
  return index;
}

uint64_t AssemblyEngine::VolumeRaw(const DimCode* codes) const {
  uint64_t volume = 1;
  for (uint32_t m = 0; m < shape_.ndim(); ++m) {
    volume *= shape_.extent(m) >> codes[m].level;
  }
  return volume;
}

uint32_t AssemblyEngine::MinAncestorRaw(DimCode* codes) {
  const uint64_t index = EncodeRaw(codes);
  if (const uint32_t hit = ancestor_memo_.Get(index); hit != 0) return hit;
  uint32_t best = 1;  // the "none" sentinel
  if (auto it = stored_slot_.find(index); it != stored_slot_.end()) {
    best = it->second + 1;
  }
  for (uint32_t m = 0; m < shape_.ndim(); ++m) {
    if (codes[m].level == 0) continue;
    const DimCode saved = codes[m];
    codes[m] = DimCode{saved.level - 1, saved.offset >> 1};
    const uint32_t parent = MinAncestorRaw(codes);
    codes[m] = saved;
    if (stored_[parent - 1].volume < stored_[best - 1].volume) best = parent;
  }
  ancestor_memo_.Set(index, best);
  return best;
}

bool AssemblyEngine::HasFinerRelativeRaw(const DimCode* codes) const {
  const uint32_t ndim = shape_.ndim();
  for (size_t base = 0; base < stored_codes_.size(); base += ndim) {
    const DimCode* s = &stored_codes_[base];
    bool finer = false;
    uint32_t m = 0;
    for (; m < ndim; ++m) {
      // Comparable along m: the coarser code is a dyadic prefix of the finer.
      const DimCode a = codes[m];
      const DimCode b = s[m];
      if (a.level <= b.level) {
        if ((b.offset >> (b.level - a.level)) != a.offset) break;
        finer |= a.level < b.level;
      } else if ((a.offset >> (a.level - b.level)) != b.offset) {
        break;
      }
    }
    if (m == ndim && finer) return true;
  }
  return false;
}

AssemblyEngine::PlanNode AssemblyEngine::PlanRaw(DimCode* codes) {
  const uint64_t index = EncodeRaw(codes);
  if (const uint64_t word = plan_memo_.Get(index); word != 0) {
    return PlanNode{(word >> kPlanCostShift) - 1,
                    static_cast<Choice>(word & 3u),
                    static_cast<uint32_t>(word >> 2) & 15u};
  }

  PlanNode node;
  const uint64_t vol = VolumeRaw(codes);
  // F option: aggregate down from the smallest stored ancestor (a stored
  // target is the ancestor==self case with cost 0).
  const uint64_t ancestor_volume = stored_[MinAncestorRaw(codes) - 1].volume;
  if (ancestor_volume != kInfiniteCost) {
    node.cost = ancestor_volume - vol;
    node.choice = Choice::kAggregate;
  }

  // R option: synthesize from the P/R children along the best dimension.
  // It is explored only where it can win (DESIGN.md §1, Procedure 3):
  //  - any synthesis costs at least Vol(n) (the final stage alone), so
  //    aggregation at cost <= Vol(n) settles the node;
  //  - every leaf of a synthesis tree aggregates from a stored element
  //    comparable with n in every dimension. If none of those is finer
  //    than n anywhere, all are ancestors of n of volume >= A (the best
  //    ancestor's), and the >= 2 leaves cost >= 2A > A - Vol(n) = F_n, or
  //    cannot be produced at all when n has no stored ancestor.
  const bool may_synthesize = node.cost > vol && HasFinerRelativeRaw(codes);
  // Cheap first pass: bound each dimension's synthesis option by the
  // children's *aggregation-only* costs (no recursive exploration). This
  // often establishes the Vol(n) floor immediately — e.g. when both
  // children are stored — and lets the deep pass be skipped entirely.
  if (may_synthesize) {
    for (uint32_t m = 0; m < shape_.ndim(); ++m) {
      if (codes[m].level >= shape_.log_extent(m)) continue;
      const DimCode saved = codes[m];
      codes[m] = DimCode{saved.level + 1, saved.offset * 2};
      const uint64_t ap = stored_[MinAncestorRaw(codes) - 1].volume;
      const uint64_t child_vol = VolumeRaw(codes);
      codes[m] = DimCode{saved.level + 1, saved.offset * 2 + 1};
      const uint64_t ar = stored_[MinAncestorRaw(codes) - 1].volume;
      codes[m] = saved;
      if (ap == kInfiniteCost || ar == kInfiniteCost) continue;
      const uint64_t cost = vol + (ap - child_vol) + (ar - child_vol);
      if (cost < node.cost) {
        node.cost = cost;
        node.choice = Choice::kSynthesize;
        node.split_dim = m;
      }
      if (node.cost <= vol) break;
    }
  }
  if (may_synthesize && node.cost > vol) {
    for (uint32_t m = 0; m < shape_.ndim(); ++m) {
      if (codes[m].level >= shape_.log_extent(m)) continue;
      const DimCode saved = codes[m];
      codes[m] = DimCode{saved.level + 1, saved.offset * 2};
      const uint64_t tp = PlanRaw(codes).cost;
      codes[m] = DimCode{saved.level + 1, saved.offset * 2 + 1};
      const uint64_t tr = PlanRaw(codes).cost;
      codes[m] = saved;
      if (tp == kInfiniteCost || tr == kInfiniteCost) continue;
      const uint64_t cost = vol + tp + tr;
      if (cost < node.cost) {
        node.cost = cost;
        node.choice = Choice::kSynthesize;
        node.split_dim = m;
      }
      if (node.cost <= vol) break;
    }
  }

  VECUBE_CHECK(node.cost == kInfiniteCost || node.cost < kMaxPackedCost);
  plan_memo_.Set(index, ((node.cost + 1) << kPlanCostShift) |
                            (uint64_t{node.split_dim} << 2) |
                            static_cast<uint64_t>(node.choice));
  return node;
}

void AssemblyEngine::WarmPlanRaw(DimCode* codes,
                                 std::unordered_set<uint64_t>* visited) {
  const uint64_t index = EncodeRaw(codes);
  if (!visited->insert(index).second) return;
  const PlanNode node = PlanRaw(codes);
  if (node.choice != Choice::kSynthesize) return;
  // Execution will recurse into exactly these two children. (The cheap
  // first pass of PlanRaw can choose kSynthesize without ever having
  // planned the children, so warming must descend explicitly.)
  const uint32_t m = node.split_dim;
  const DimCode saved = codes[m];
  codes[m] = DimCode{saved.level + 1, saved.offset * 2};
  WarmPlanRaw(codes, visited);
  codes[m] = DimCode{saved.level + 1, saved.offset * 2 + 1};
  WarmPlanRaw(codes, visited);
  codes[m] = saved;
}

uint64_t AssemblyEngine::PlanCost(const ElementId& target) {
  // Guard the fixed-arity code buffers below: a shape beyond kMaxAssemblyDims
  // must not reach the std::array copy (stack overflow otherwise).
  if (shape_.ndim() > kMaxAssemblyDims) return kInfiniteCost;
  // A code outside the shape would index past the memo tables.
  if (!target.Validate(shape_).ok()) return kInfiniteCost;
  std::array<DimCode, kMaxAssemblyDims> codes{};
  std::copy(target.codes().begin(), target.codes().end(), codes.begin());
  return PlanRaw(codes.data()).cost;
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
  std::array<DimCode, kMaxAssemblyDims> codes{};
  std::copy(target.codes().begin(), target.codes().end(), codes.begin());
  const uint64_t index = EncodeRaw(codes.data());

  std::shared_ptr<BatchCache::Entry> entry;
  OpCounter local;
  if (cache != nullptr) {
    bool owner = false;
    {
      MutexLock lock(cache->mu);
      auto [it, inserted] = cache->map.try_emplace(index, nullptr);
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
    const PlanNode node = PlanRaw(codes.data());
    switch (node.choice) {
      case Choice::kAggregate: {
        const ElementId source = indexer_.Decode(SourceOf(index));
        const Tensor* data;
        VECUBE_ASSIGN_OR_RETURN(data, store_->Get(source));
        if (source == target) return data;
        VECUBE_ASSIGN_OR_RETURN(
            *slot, RunCascade(*data, DescentSteps(source, target), ops, ctx));
        return slot;
      }
      case Choice::kSynthesize: {
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
      case Choice::kNone:
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
  if (shape_.ndim() > kMaxAssemblyDims) return TooManyDims();
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
  if (shape_.ndim() > kMaxAssemblyDims) return TooManyDims();
  for (const ElementId& target : targets) {
    VECUBE_RETURN_NOT_OK(target.Validate(shape_));
  }

  // Phase 1 — serial planning: memoize the plan of every node execution
  // can touch. The memo tables are unlocked, so the concurrent phase must
  // only ever read them.
  std::unordered_set<uint64_t> visited;
  for (const ElementId& target : targets) {
    std::array<DimCode, kMaxAssemblyDims> codes{};
    std::copy(target.codes().begin(), target.codes().end(), codes.begin());
    WarmPlanRaw(codes.data(), &visited);
  }

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
