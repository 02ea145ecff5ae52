#include "range/range_engine.h"

#include <optional>
#include <vector>

#include "core/update.h"
#include "util/failpoint.h"
#include "util/logging.h"

namespace vecube {

namespace {
/// Follower retries after leader-local aborts before the abort cause
/// surfaces (prevents retry livelock on a repeatedly failing leader).
constexpr uint32_t kMaxFollowerRetries = 3;
}  // namespace

RangeEngine::RangeEngine(const ElementStore* store,
                         MissingElementPolicy policy, ThreadPool* pool,
                         ViewCache* cache, ScratchArena* arena,
                         uint32_t num_shards)
    : store_(store),
      policy_(policy),
      engine_(store, pool, arena, num_shards),
      cache_(cache),
      assembled_cache_(store->shape()) {
  VECUBE_CHECK(store != nullptr);
}

Result<double> RangeEngine::RangeSum(const RangeSpec& range,
                                     RangeQueryStats* stats,
                                     const QueryContext& ctx) {
  const CubeShape& shape = store_->shape();
  if (range.ndim() != shape.ndim()) {
    return Status::InvalidArgument("range arity does not match store");
  }
  RangeSpec checked;
  VECUBE_ASSIGN_OR_RETURN(
      checked, RangeSpec::Make(range.start, range.width, shape));

  const uint32_t d = shape.ndim();
  std::vector<std::vector<DyadicBlock>> blocks(d);
  for (uint32_t m = 0; m < d; ++m) {
    blocks[m] =
        DecomposeInterval(range.start[m], range.width[m], shape.log_extent(m));
  }

  // Odometer over block combinations.
  std::vector<size_t> pick(d, 0);
  std::vector<uint32_t> levels(d);
  std::vector<uint32_t> coords(d);
  double total = 0.0;
  uint64_t terms = 0;
  uint32_t follower_retries = 0;
  for (;;) {
    VECUBE_RETURN_NOT_OK(ctx.Check());
    for (uint32_t m = 0; m < d; ++m) {
      levels[m] = blocks[m][pick[m]].level;
      coords[m] = blocks[m][pick[m]].index;
    }
    ElementId id;
    VECUBE_ASSIGN_OR_RETURN(id, ElementId::Intermediate(levels, shape));

    const Tensor* element = nullptr;
    std::shared_ptr<const Tensor> cached;      // keeps a filled answer alive
    ViewCache::ReadHandle pinned;              // keeps a cache hit alive
    if (store_->Contains(id)) {
      VECUBE_ASSIGN_OR_RETURN(element, store_->Get(id));
    } else if (cache_ != nullptr &&
               policy_ == MissingElementPolicy::kAssemble) {
      // Single-flight through the serving cache: a hit is a pinned,
      // refcount-free read scoped to this odometer step; concurrent
      // misses on the same intermediate assemble it exactly once.
      while (element == nullptr) {
        ViewCache::LookupOutcome outcome = cache_->LookupOrBegin(id);
        if (outcome.hit) {
          pinned = std::move(outcome.hit);
          break;
        }
        if (!outcome.fill.leader()) {
          ViewCache::FillWait wait = cache_->WaitFill(outcome.fill, ctx);
          if (wait.status.ok()) {
            cached = std::move(wait.data);
            element = cached.get();
            break;
          }
          VECUBE_RETURN_NOT_OK(ctx.Check());  // our own budget ran out
          // Leader-local aborts are retried a bounded number of times;
          // the element's own failure — or exhausted retries — surfaces.
          const bool leader_local = wait.status.IsDeadlineExceeded() ||
                                    wait.status.IsCancelled() ||
                                    wait.status.IsUnavailable();
          if (!leader_local || follower_retries >= kMaxFollowerRetries) {
            return wait.status;
          }
          ++follower_retries;
          cache_->RecordFollowerRetry();
          continue;
        }
        if (std::optional<FailpointAction> fp =
                Failpoints::HitWithDelay("range.fill");
            fp.has_value() && fp->kind == FailpointAction::Kind::kError) {
          Status injected = Status::Internal(
              "injected fill failure (failpoint range.fill)");
          cache_->AbortFill(std::move(outcome.fill), injected);
          return injected;
        }
        if (stats != nullptr) ++stats->elements_missing;
        OpCounter ops;
        Result<Tensor> data = engine_.Assemble(id, &ops, &ctx);
        if (!data.ok()) {
          cache_->AbortFill(std::move(outcome.fill), data.status());
          return data.status();
        }
        if (stats != nullptr) stats->assembly_ops += ops.adds;
        cached = cache_->CompleteFill(std::move(outcome.fill),
                                      std::move(data).value(),
                                      engine_.PlanCost(id));
        element = cached.get();
      }
    } else if (assembled_cache_.Contains(id)) {
      VECUBE_ASSIGN_OR_RETURN(element, assembled_cache_.Get(id));
    } else if (policy_ == MissingElementPolicy::kAssemble) {
      if (stats != nullptr) ++stats->elements_missing;
      OpCounter ops;
      Tensor data;
      VECUBE_ASSIGN_OR_RETURN(data, engine_.Assemble(id, &ops, &ctx));
      if (stats != nullptr) stats->assembly_ops += ops.adds;
      VECUBE_RETURN_NOT_OK(assembled_cache_.Put(id, std::move(data)));
      VECUBE_ASSIGN_OR_RETURN(element, assembled_cache_.Get(id));
    } else {
      return Status::NotFound("intermediate element " + id.ToString() +
                              " not materialized");
    }

    // A cache hit reads through the handle, which applies the entry's
    // pending write patches to the cell.
    total += pinned ? pinned.At(coords) : element->At(coords);
    ++terms;
    if (stats != nullptr) ++stats->cell_reads;

    // Advance the odometer.
    uint32_t m = 0;
    for (; m < d; ++m) {
      if (++pick[m] < blocks[m].size()) break;
      pick[m] = 0;
    }
    if (m == d) break;
  }
  if (stats != nullptr && terms > 0) stats->additions += terms - 1;
  return total;
}

Status RangeEngine::ApplyPointDelta(const std::vector<uint32_t>& coords,
                                    double delta) {
  return vecube::ApplyPointDelta(&assembled_cache_, coords, delta);
}

Result<double> NaiveRangeSum(const Tensor& cube, const CubeShape& shape,
                             const RangeSpec& range, uint64_t* cells_read) {
  if (cube.extents() != shape.extents()) {
    return Status::InvalidArgument("cube extents do not match shape");
  }
  RangeSpec checked;
  VECUBE_ASSIGN_OR_RETURN(
      checked, RangeSpec::Make(range.start, range.width, shape));

  const uint32_t d = shape.ndim();
  std::vector<uint32_t> coords(range.start);
  double total = 0.0;
  uint64_t reads = 0;
  for (;;) {
    total += cube.At(coords);
    ++reads;
    uint32_t m = 0;
    for (; m < d; ++m) {
      if (++coords[m] < range.start[m] + range.width[m]) break;
      coords[m] = range.start[m];
    }
    if (m == d) break;
  }
  if (cells_read != nullptr) *cells_read += reads;
  return total;
}

}  // namespace vecube
