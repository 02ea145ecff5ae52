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

// Every operation on `state_` is a read or read-modify-write of the one
// word, so all of them fall in its single modification order: of a
// release's decrement and a sleeper's registering CAS, the later one
// sees the earlier. acquire/acq_rel order a permit's critical section
// between its admission and its release, as for any semaphore; the
// hand-off itself is ordered by mu_.

namespace {
uint32_t Occupied(uint64_t state) { return static_cast<uint32_t>(state); }
}  // namespace

bool AdmissionController::TryTakeSlot() {
  // order: acquire — see the note above.
  uint64_t state = state_.load(std::memory_order_acquire);
  while (state < kSleeper && Occupied(state) < options_.max_inflight) {
    // order: acq_rel — see the note above; a failed CAS reloads `state`
    // and re-tests for a free slot and a sleeper.
    if (state_.compare_exchange_weak(state, state + 1,
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      return true;
    }
  }
  return false;
}

void AdmissionController::ReleaseSlot() {
  // order: acq_rel — see the note above.
  if (state_.fetch_sub(1, std::memory_order_acq_rel) < kSleeper) return;
  // A sleeper registered before this release, while holding mu_, and
  // holds mu_ until its wait begins, so under mu_ this release sees every
  // registered waiter. While one is queued no arrival can take a slot:
  // the fast path defers to any sleeper, and a locked arrival queues
  // behind it. So every free slot seen here was freed for the queue —
  // by this release, or by a racing one that has not locked yet (and
  // then finds nothing left to hand on).
  MutexLock lock(mu_);
  while (!waiters_.empty()) {
    // order: acquire — see the note above.
    const uint64_t state = state_.load(std::memory_order_acquire);
    if (Occupied(state) >= options_.max_inflight) break;
    // Hand the slot to the oldest waiter: it occupies the slot again and
    // stops sleeping.
    Waiter* next = waiters_.front();
    waiters_.pop_front();
    next->granted = true;
    // order: acq_rel — see the note above.
    state_.fetch_sub(kSleeper - 1, std::memory_order_acq_rel);
    next->cv.NotifyOne();
  }
  if (drainers_ > 0) cv_.NotifyAll();
}

Result<AdmissionController::Permit> AdmissionController::Admit(
    const QueryContext& ctx) {
  if (!TryTakeSlot()) return AdmitQueued(ctx);
  // Checked after the slot is taken: an arrival racing Shutdown() either
  // sees the flag here or holds a slot that Drain() waits for. Drain()
  // registers with a read-modify-write of `state_`: before this arrival's
  // CAS it would have sent the arrival to the locked path, which reads
  // the flag under mu_; after it, Drain() sees the slot.
  // order: seq_cst — pairs with Shutdown()'s store.
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
  // Take a free slot when nobody is queued ahead, else register as a
  // sleeper — one CAS either way, re-testing whatever a racing
  // fast-path release changed (see the note above).
  // order: acquire — see the note above.
  uint64_t state = state_.load(std::memory_order_acquire);
  for (;;) {
    if (waiters_.empty() && Occupied(state) < options_.max_inflight) {
      // order: acq_rel — see the note above.
      if (state_.compare_exchange_weak(state, state + 1,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
        // order: relaxed — outcome counter, read only by Metrics().
        admitted_.fetch_add(1, std::memory_order_relaxed);
        return Permit(this);
      }
      continue;
    }
    if (queued_ >= options_.max_queue) {
      ++shed_;
      return Status::ResourceExhausted(
          "admission queue full; retry after " +
          std::to_string(options_.retry_after.count()) + "ms");
    }
    // order: acq_rel — see the note above.
    if (state_.compare_exchange_weak(state, state + kSleeper,
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      break;
    }
  }
  Waiter self;
  waiters_.push_back(&self);
  ++queued_;
  Status waited = Status::OK();
  while (!self.granted) {
    waited = ctx.Check();
    if (!waited.ok()) break;
    // Bounded slices: re-check the deadline every 100 ms at worst, so a
    // waiter can never be parked past its budget (no-unbounded-wait).
    const QueryContext::Clock::duration slice =
        std::min<QueryContext::Clock::duration>(
            std::chrono::milliseconds(100), ctx.remaining());
    self.cv.WaitFor(mu_, slice);
  }
  --queued_;
  if (!self.granted) {
    // Leaving the queue: no release can hand this waiter a slot now.
    waiters_.erase(std::find(waiters_.begin(), waiters_.end(), &self));
    // order: acq_rel — see the note above.
    state_.fetch_sub(kSleeper, std::memory_order_acq_rel);
    ++deadline_exceeded_;
    return waited;
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
  // A registered sleeper sends every release through the locked path,
  // which notifies drainers (see the note above).
  ++drainers_;
  // order: acq_rel — see the note above.
  state_.fetch_add(kSleeper, std::memory_order_acq_rel);
  bool drained = false;
  for (;;) {
    // order: acquire — see the note above.
    if (Occupied(state_.load(std::memory_order_acquire)) == 0 &&
        queued_ == 0) {
      drained = true;
      break;
    }
    if (ctx.expired()) break;
    const QueryContext::Clock::duration slice =
        std::min<QueryContext::Clock::duration>(
            std::chrono::milliseconds(100), ctx.remaining());
    cv_.WaitFor(mu_, slice);
  }
  // order: acq_rel — see the note above.
  state_.fetch_sub(kSleeper, std::memory_order_acq_rel);
  --drainers_;
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
  metrics.inflight = Occupied(state_.load(std::memory_order_relaxed));
  metrics.queued = queued_;
  return metrics;
}

}  // namespace vecube
