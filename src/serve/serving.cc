#include "serve/serving.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "util/failpoint.h"
#include "util/sync.h"

namespace vecube {

namespace {

/// Assembly throughput that converts a context's remaining wall time into
/// an op budget when it carries no explicit one.
constexpr uint64_t kOpsPerMs = 256 * 1024;
/// Follower retries after leader-local aborts before giving up.
constexpr uint32_t kFollowerRetries = 3;
/// Pause between follower retries (clamped to the query's remaining
/// deadline) so a rapidly re-aborting leader is not hammered.
constexpr std::chrono::milliseconds kFollowerBackoff{1};

/// True for abort causes local to the leader (its deadline, its
/// cancellation, or an unspecified abort) — the element itself may be
/// fine, so a follower with budget left should retry. Element-local
/// failures (Incomplete, Internal, ...) propagate instead.
bool LeaderLocalAbort(const Status& status) {
  return status.IsDeadlineExceeded() || status.IsCancelled() ||
         status.IsUnavailable();
}

}  // namespace

ElementServer::ElementServer(AssemblyEngine* engine,
                             const ElementStore* store, ViewCache* cache,
                             FillVerifier verify_fill)
    : engine_(engine),
      store_(store),
      cache_(cache),
      verify_fill_(std::move(verify_fill)) {}

uint64_t ElementServer::OpsBudget(const QueryContext& ctx) const {
  if (ctx.ops_budget() != 0) return ctx.ops_budget();
  if (!ctx.has_deadline()) return kInfiniteCost;
  const QueryContext::Clock::duration remaining = ctx.remaining();
  if (remaining >= std::chrono::hours(1)) return kInfiniteCost;
  const uint64_t micros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(remaining)
          .count());
  return micros * kOpsPerMs / 1000;
}

Status ElementServer::Fail(Status status) {
  if (cache_ != nullptr &&
      (status.IsDeadlineExceeded() || status.IsCancelled())) {
    cache_->RecordDeadlineExceeded();
  }
  return status;
}

Status ElementServer::Check(const QueryContext& ctx) {
  Status live = ctx.Check();
  if (!live.ok()) return Fail(std::move(live));
  return live;
}

void ElementServer::Backoff(const QueryContext& ctx) const {
  const QueryContext::Clock::duration pause =
      std::min<QueryContext::Clock::duration>(kFollowerBackoff,
                                              ctx.remaining());
  if (pause <= QueryContext::Clock::duration::zero()) return;
  // A private, never-notified CondVar: a bounded sleep that stays inside
  // the annotated sync primitives (and under the deadline).
  Mutex m;
  CondVar cv;
  MutexLock lock(m);
  cv.WaitFor(m, pause);
}

Result<QueryAnswer> ElementServer::Serve(const ElementId& id,
                                         const QueryContext& ctx) {
  ViewCache::ReadHandle hit;
  Result<QueryAnswer> answer = Resolve(id, ctx, &hit);
  if (hit) answer->data = hit.Value();
  return answer;
}

Result<QueryAnswer> ElementServer::Resolve(const ElementId& id,
                                           const QueryContext& ctx,
                                           ViewCache::ReadHandle* hit) {
  VECUBE_RETURN_NOT_OK(Check(ctx));
  if (cache_ == nullptr) return FillDirect(id, ctx);

  uint32_t retries = 0;
  for (;;) {
    ViewCache::LookupOutcome outcome = cache_->LookupOrBegin(id);
    if (outcome.hit) {
      *hit = std::move(outcome.hit);
      return QueryAnswer();
    }
    if (outcome.fill.leader()) {
      return FillAsLeader(id, std::move(outcome.fill), ctx);
    }
    ViewCache::FillWait wait = cache_->WaitFill(outcome.fill, ctx);
    if (wait.status.ok()) {
      QueryAnswer answer;
      answer.data = AnswerTensor(std::move(wait.data));
      return answer;
    }
    // Our own budget may have run out while waiting (distinct from the
    // leader's — the leader may still complete for others).
    VECUBE_RETURN_NOT_OK(Check(ctx));
    if (!LeaderLocalAbort(wait.status)) {
      // The element itself failed (Incomplete, injected fill error,
      // verify failure): retrying would fail identically.
      return wait.status;
    }
    if (retries >= kFollowerRetries) {
      // Give up before this turns into a retry livelock. With
      // degradation allowed there is still a bounded answer to give.
      if (ctx.allow_degraded()) return Degrade(id, OpsBudget(ctx), ctx);
      return Fail(std::move(wait.status));
    }
    ++retries;
    cache_->RecordFollowerRetry();
    Backoff(ctx);
  }
}

Result<QueryAnswer> ElementServer::FillAsLeader(const ElementId& id,
                                                ViewCache::FillTicket ticket,
                                                const QueryContext& ctx) {
  // Chaos hook: stall the leader (kDelay — followers keep waiting or
  // time out) or fail the fill outright (kError).
  if (std::optional<FailpointAction> fp =
          Failpoints::HitWithDelay("serve.fill");
      fp.has_value() && fp->kind == FailpointAction::Kind::kError) {
    Status injected =
        Status::Internal("injected fill failure (failpoint serve.fill)");
    cache_->AbortFill(std::move(ticket), injected);
    return injected;
  }
  const uint64_t cost = engine_->PlanCost(id);
  if (cost == kInfiniteCost) {
    Status incomplete = Status::Incomplete(
        "stored element set cannot reconstruct " + id.ToString());
    cache_->AbortFill(std::move(ticket), incomplete);
    return incomplete;
  }
  const uint64_t budget = OpsBudget(ctx);
  if (cost > budget) {
    // Not starting an assembly that cannot finish in time. The abort
    // cause is leader-local: followers with looser budgets retry and
    // one of them becomes the next leader.
    Status cause = Status::DeadlineExceeded(
        "plan cost " + std::to_string(cost) + " exceeds op budget " +
        std::to_string(budget) + " for " + id.ToString());
    cache_->AbortFill(std::move(ticket), cause);
    if (ctx.allow_degraded()) return Degrade(id, budget, ctx);
    return Fail(std::move(cause));
  }
  OpCounter ops;
  Result<Tensor> assembled = engine_->Assemble(id, &ops, &ctx);
  if (!assembled.ok()) {
    cache_->AbortFill(std::move(ticket), assembled.status());
    return Fail(assembled.status());
  }
  if (verify_fill_) {
    if (Status verified = verify_fill_(id, ops.adds); !verified.ok()) {
      cache_->AbortFill(std::move(ticket), verified);
      return verified;
    }
  }
  std::shared_ptr<const Tensor> served = cache_->CompleteFill(
      std::move(ticket), std::move(assembled).value(), cost);
  QueryAnswer answer;
  answer.data = AnswerTensor(std::move(served));
  answer.ops = ops.adds;
  answer.muls = ops.muls;
  return answer;
}

Result<QueryAnswer> ElementServer::FillDirect(const ElementId& id,
                                              const QueryContext& ctx) {
  const uint64_t cost = engine_->PlanCost(id);
  if (cost == kInfiniteCost) {
    return Status::Incomplete("stored element set cannot reconstruct " +
                              id.ToString());
  }
  const uint64_t budget = OpsBudget(ctx);
  if (cost > budget) {
    if (ctx.allow_degraded()) return Degrade(id, budget, ctx);
    return Fail(Status::DeadlineExceeded(
        "plan cost " + std::to_string(cost) + " exceeds op budget " +
        std::to_string(budget) + " for " + id.ToString()));
  }
  OpCounter ops;
  Tensor assembled;
  VECUBE_ASSIGN_OR_RETURN(assembled, engine_->Assemble(id, &ops, &ctx));
  if (verify_fill_) VECUBE_RETURN_NOT_OK(verify_fill_(id, ops.adds));
  QueryAnswer answer;
  answer.data = AnswerTensor(std::move(assembled));
  answer.ops = ops.adds;
  answer.muls = ops.muls;
  return answer;
}

Result<QueryAnswer> ElementServer::Degrade(const ElementId& id,
                                           uint64_t budget,
                                           const QueryContext& ctx) {
  if (approx_ == nullptr) {
    approx_ = std::make_unique<ApproxAssembler>(engine_, store_);
  }
  Result<DegradedAnswer> degraded = approx_->AssembleWithin(id, budget, &ctx);
  if (!degraded.ok()) return Fail(degraded.status());
  // A budget generous enough after all yields an exact answer; only a
  // truly approximate one counts as degraded.
  if (cache_ != nullptr && degraded->degraded) cache_->RecordDegraded();
  QueryAnswer answer;
  answer.data = AnswerTensor(std::move(degraded->data));
  answer.degraded = degraded->degraded;
  answer.l2_bound = degraded->l2_bound;
  answer.ops = degraded->ops;
  return answer;
}

}  // namespace vecube
