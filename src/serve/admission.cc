#include "serve/admission.h"

#include <algorithm>
#include <string>

namespace vecube {

AdmissionController::AdmissionController(AdmissionOptions options)
    : options_(options) {
  if (options_.max_inflight == 0) options_.max_inflight = 1;
}

void AdmissionController::Permit::Release() {
  if (controller_ != nullptr) {
    controller_->ReleaseSlot();
    controller_ = nullptr;
  }
}

// Every operation on `inflight_` and `sleepers_` is seq_cst: a waiter
// registers in `sleepers_` and then reads `inflight_`, a release
// decrements `inflight_` and then reads `sleepers_` (the store-then-load
// pairing that needs one total order). In that order either the release
// sees the registration, and notifies under mu_, or the waiter's read
// follows the decrement and it takes the freed slot without waiting.

bool AdmissionController::TryTakeSlot() {
  // order: seq_cst — see the pairing note above.
  uint32_t occupied = inflight_.load(std::memory_order_seq_cst);
  while (occupied < options_.max_inflight) {
    // order: seq_cst — see the pairing note above; a failed CAS reloads
    // `occupied` and re-tests the limit.
    if (inflight_.compare_exchange_weak(occupied, occupied + 1,
                                        std::memory_order_seq_cst)) {
      return true;
    }
  }
  return false;
}

void AdmissionController::ReleaseSlot() {
  // order: seq_cst — see the pairing note above.
  inflight_.fetch_sub(1, std::memory_order_seq_cst);
  // order: seq_cst — see the pairing note above.
  if (sleepers_.load(std::memory_order_seq_cst) == 0) return;
  // A registered sleeper holds mu_ from its registration until its wait
  // begins, so taking mu_ here orders this notify after that wait, or
  // this decrement before its re-check. All wake: deadlines differ, so
  // the nearest-deadline waiter is not necessarily the one NotifyOne
  // would pick.
  MutexLock lock(mu_);
  cv_.NotifyAll();
}

Result<AdmissionController::Permit> AdmissionController::Admit(
    const QueryContext& ctx) {
  if (!TryTakeSlot()) return AdmitQueued(ctx);
  // Checked after the slot is taken: an arrival racing Shutdown() either
  // sees the flag here or holds a slot that Drain() waits for.
  // order: seq_cst — pairs with Shutdown()'s store and Drain()'s read of
  // `inflight_` in the one total order.
  if (shutdown_.load(std::memory_order_seq_cst)) {
    ReleaseSlot();
    // order: relaxed — outcome counter, read only by Metrics().
    rejected_shutdown_.fetch_add(1, std::memory_order_relaxed);
    return Status::Unavailable("server shutting down");
  }
  // order: relaxed — outcome counter, read only by Metrics().
  admitted_.fetch_add(1, std::memory_order_relaxed);
  return Permit(this);
}

Result<AdmissionController::Permit> AdmissionController::AdmitQueued(
    const QueryContext& ctx) {
  MutexLock lock(mu_);
  // order: relaxed — stored under mu_, which is held.
  if (shutdown_.load(std::memory_order_relaxed)) {
    // order: relaxed — outcome counter, read only by Metrics().
    rejected_shutdown_.fetch_add(1, std::memory_order_relaxed);
    return Status::Unavailable("server shutting down");
  }
  if (!TryTakeSlot()) {
    if (queued_ >= options_.max_queue) {
      ++shed_;
      return Status::ResourceExhausted(
          "admission queue full; retry after " +
          std::to_string(options_.retry_after.count()) + "ms");
    }
    ++queued_;
    // order: seq_cst — registers before the re-check below (see the
    // pairing note above).
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    Status waited = Status::OK();
    while (!TryTakeSlot()) {
      waited = ctx.Check();
      if (!waited.ok()) break;
      // Bounded slices: re-check the deadline every 100 ms at worst, so a
      // waiter can never be parked past its budget (no-unbounded-wait).
      const QueryContext::Clock::duration slice =
          std::min<QueryContext::Clock::duration>(
              std::chrono::milliseconds(100), ctx.remaining());
      cv_.WaitFor(mu_, slice);
    }
    // order: seq_cst — see the pairing note above.
    sleepers_.fetch_sub(1, std::memory_order_seq_cst);
    --queued_;
    if (!waited.ok()) {
      ++deadline_exceeded_;
      return waited;
    }
  }
  // order: relaxed — outcome counter, read only by Metrics().
  admitted_.fetch_add(1, std::memory_order_relaxed);
  return Permit(this);
}

void AdmissionController::Shutdown() {
  {
    MutexLock lock(mu_);
    // order: seq_cst — see Admit's read after its CAS.
    shutdown_.store(true, std::memory_order_seq_cst);
  }
  cv_.NotifyAll();
}

bool AdmissionController::Drain(std::chrono::milliseconds timeout) {
  const QueryContext ctx = QueryContext::WithTimeout(timeout);
  MutexLock lock(mu_);
  // order: seq_cst — registers before the first read of `inflight_`, so
  // the release of the last slot notifies (see the pairing note above).
  sleepers_.fetch_add(1, std::memory_order_seq_cst);
  bool drained = false;
  for (;;) {
    // order: seq_cst — see the pairing note above.
    if (inflight_.load(std::memory_order_seq_cst) == 0 && queued_ == 0) {
      drained = true;
      break;
    }
    if (ctx.expired()) break;
    const QueryContext::Clock::duration slice =
        std::min<QueryContext::Clock::duration>(
            std::chrono::milliseconds(100), ctx.remaining());
    cv_.WaitFor(mu_, slice);
  }
  // order: seq_cst — see the pairing note above.
  sleepers_.fetch_sub(1, std::memory_order_seq_cst);
  return drained;
}

AdmissionMetrics AdmissionController::Metrics() const {
  MutexLock lock(mu_);
  AdmissionMetrics metrics;
  // order: relaxed — point-in-time snapshot; a fast-path admit or release
  // racing it lands in this read or the next.
  metrics.admitted = admitted_.load(std::memory_order_relaxed);
  metrics.shed = shed_;
  metrics.deadline_exceeded = deadline_exceeded_;
  // order: relaxed — snapshot, as above.
  metrics.rejected_shutdown =
      rejected_shutdown_.load(std::memory_order_relaxed);
  // order: relaxed — snapshot, as above.
  metrics.inflight = inflight_.load(std::memory_order_relaxed);
  metrics.queued = queued_;
  return metrics;
}

}  // namespace vecube
