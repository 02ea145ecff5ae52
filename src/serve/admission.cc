#include "serve/admission.h"

#include <algorithm>
#include <string>

#include "util/failpoint.h"

namespace vecube {

namespace {

// A thread's round-robin ticket, drawn on its first Admit: clients that
// start together hold consecutive tickets, so up to a controller's stripe
// count of them own distinct stripes.
uint32_t ThreadAdmissionTicket() {
  static std::atomic<uint32_t> next_ticket{0};
  // order: relaxed — a round-robin ticket; nothing is published through it.
  thread_local const uint32_t ticket =
      next_ticket.fetch_add(1, std::memory_order_relaxed);
  return ticket;
}

uint32_t Occupied(uint64_t state) { return static_cast<uint32_t>(state); }

}  // namespace

AdmissionController::AdmissionController(AdmissionOptions options)
    : options_(options) {
  if (options_.max_inflight == 0) options_.max_inflight = 1;
  num_stripes_ = std::min(options_.max_inflight, kAdmissionStripes);
  for (uint32_t i = 0; i < num_stripes_; ++i) {
    stripes_[i].capacity = options_.max_inflight / num_stripes_ +
                           (i < options_.max_inflight % num_stripes_ ? 1 : 0);
  }
}

void AdmissionController::Permit::Release() {
  if (controller_ != nullptr) {
    controller_->ReleaseSlot(stripe_);
    controller_ = nullptr;
  }
}

// Every operation on a stripe's `state` is a read or read-modify-write of
// that one word, so all of them fall in its single modification order: of
// a release's decrement and a sleeper's registering CAS on that stripe,
// the later one sees the earlier. A sleeper registers on every stripe
// before it queues, so each release either freed its slot before the
// registration reached its stripe (and the registering CAS sees the free
// slot) or sees the sleeper in the value it decremented. acquire/acq_rel
// order a permit's critical section between its admission and its
// release, as for any semaphore; the hand-off itself is ordered by mu_.

AdmissionController::Take AdmissionController::TakeOnStripe(uint32_t stripe) {
  std::atomic<uint64_t>& word = stripes_[stripe].state;
  const uint32_t capacity = stripes_[stripe].capacity;
  // order: acquire — see the note above.
  uint64_t state = word.load(std::memory_order_acquire);
  for (;;) {
    if (state >= kSleeper) return Take::kSleeper;
    if (Occupied(state) >= capacity) return Take::kFull;
    // order: acq_rel — see the note above; a failed CAS reloads `state`
    // and re-tests for a free slot and a sleeper.
    if (word.compare_exchange_weak(state, state + 1, std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
      return Take::kTaken;
    }
  }
}

uint32_t AdmissionController::TryTakeSlot() {
  // Own stripe first; a full one sends the arrival round the others. A
  // sleeper on any stripe is registered on all of them (or soon will be),
  // so the arrival defers to it on the locked path.
  uint32_t stripe = ThreadAdmissionTicket() % num_stripes_;
  for (uint32_t tried = 0; tried < num_stripes_; ++tried) {
    switch (TakeOnStripe(stripe)) {
      case Take::kTaken:
        return stripe;
      case Take::kSleeper:
        return num_stripes_;
      case Take::kFull:
        break;
    }
    if (++stripe == num_stripes_) stripe = 0;
  }
  return num_stripes_;
}

bool AdmissionController::DropSlot(uint32_t stripe) {
  // order: acq_rel — see the note above.
  return stripes_[stripe].state.fetch_sub(1, std::memory_order_acq_rel) >=
         kSleeper;
}

void AdmissionController::Unregister(uint32_t count) {
  for (uint32_t i = 0; i < count; ++i) {
    // order: acq_rel — see the note above.
    stripes_[i].state.fetch_sub(kSleeper, std::memory_order_acq_rel);
  }
}

uint32_t AdmissionController::FreeStripe() const {
  for (uint32_t i = 0; i < num_stripes_; ++i) {
    // order: acquire — see the note above.
    const uint64_t state = stripes_[i].state.load(std::memory_order_acquire);
    if (Occupied(state) < stripes_[i].capacity) return i;
  }
  return num_stripes_;
}

void AdmissionController::ReleaseSlot(uint32_t stripe) {
  if (!DropSlot(stripe)) return;
  // Chaos tests stall here to hold open the window between the decrement
  // and the hand-off, where a barging arrival could take the freed slot.
  Failpoints::HitWithDelay("admit.handoff");
  // A sleeper registered on this stripe before this release, while
  // holding mu_, and holds mu_ until its wait begins, so under mu_ this
  // release sees every registered waiter. While one is queued no arrival
  // can take a slot on any stripe: each waiter is registered on all of
  // them, the fast path defers to any sleeper, and a locked arrival queues
  // behind it. So every free slot seen here was freed for the queue — by
  // this release, or by a racing one that has not locked yet (and then
  // finds nothing left to hand on).
  MutexLock lock(mu_);
  while (!waiters_.empty()) {
    const uint32_t free = FreeStripe();
    if (free == num_stripes_) break;
    // Hand the slot to the oldest waiter: it occupies the slot again and
    // stops sleeping on every stripe.
    Waiter* next = waiters_.front();
    waiters_.pop_front();
    next->granted = true;
    next->stripe = free;
    // Occupy first: unregistered first, the last sleeper would leave the
    // slot free for a fast-path arrival to take.
    // order: acq_rel — see the note above.
    stripes_[free].state.fetch_add(1, std::memory_order_acq_rel);
    Unregister(num_stripes_);
    next->cv.NotifyOne();
  }
  if (drainers_ > 0) cv_.NotifyAll();
}

Result<AdmissionController::Permit> AdmissionController::Admit(
    const QueryContext& ctx) {
  const uint32_t stripe = TryTakeSlot();
  if (stripe == num_stripes_) return AdmitQueued(ctx);
  // Checked after the slot is taken: an arrival racing Shutdown() either
  // sees the flag here or holds a slot that Drain() waits for. Drain()
  // registers with a read-modify-write of every stripe: before this
  // arrival's CAS on its stripe it would have sent the arrival to the
  // locked path, which reads the flag under mu_; after it, Drain() sees
  // the slot.
  // order: seq_cst — pairs with Shutdown()'s store.
  if (shutdown_.load(std::memory_order_seq_cst)) {
    ReleaseSlot(stripe);
    // order: relaxed — outcome counter, read only by Metrics().
    rejected_shutdown_.fetch_add(1, std::memory_order_relaxed);
    return Status::Unavailable("server shutting down");
  }
  // order: relaxed — outcome counter, read only by Metrics().
  stripes_[stripe].admitted.fetch_add(1, std::memory_order_relaxed);
  return Permit(this, stripe);
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
  // One pass over the stripes. On each, one CAS either takes a free slot
  // (only when nobody is queued ahead) or registers this arrival as a
  // sleeper, re-testing whatever a racing fast-path release changed (see
  // the note above). A slot found partway through is taken, and the
  // stripes already marked are unmarked. A full queue only scans.
  const bool may_take = waiters_.empty();
  const bool may_queue = queued_ < options_.max_queue;
  for (uint32_t i = 0; i < num_stripes_; ++i) {
    Stripe& stripe = stripes_[i];
    // order: acquire — see the note above.
    uint64_t state = stripe.state.load(std::memory_order_acquire);
    for (;;) {
      if (may_take && Occupied(state) < stripe.capacity) {
        // order: acq_rel — see the note above.
        if (stripe.state.compare_exchange_weak(state, state + 1,
                                               std::memory_order_acq_rel,
                                               std::memory_order_acquire)) {
          if (may_queue) Unregister(i);
          // order: relaxed — outcome counter, read only by Metrics().
          stripe.admitted.fetch_add(1, std::memory_order_relaxed);
          return Permit(this, i);
        }
        continue;
      }
      if (!may_queue) break;
      // order: acq_rel — see the note above.
      if (stripe.state.compare_exchange_weak(state, state + kSleeper,
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire)) {
        break;
      }
    }
  }
  if (!may_queue) {
    ++shed_;
    return Status::ResourceExhausted(
        "admission queue full; retry after " +
        std::to_string(options_.retry_after.count()) + "ms");
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
    Unregister(num_stripes_);
    ++deadline_exceeded_;
    return waited;
  }
  // order: relaxed — outcome counter, read only by Metrics().
  stripes_[self.stripe].admitted.fetch_add(1, std::memory_order_relaxed);
  return Permit(this, self.stripe);
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
  for (uint32_t i = 0; i < num_stripes_; ++i) {
    // order: acq_rel — see the note above.
    stripes_[i].state.fetch_add(kSleeper, std::memory_order_acq_rel);
  }
  bool drained = false;
  for (;;) {
    uint32_t occupied = 0;
    for (uint32_t i = 0; i < num_stripes_; ++i) {
      // order: acquire — see the note above.
      occupied += Occupied(stripes_[i].state.load(std::memory_order_acquire));
    }
    if (occupied == 0 && queued_ == 0) {
      drained = true;
      break;
    }
    if (ctx.expired()) break;
    const QueryContext::Clock::duration slice =
        std::min<QueryContext::Clock::duration>(
            std::chrono::milliseconds(100), ctx.remaining());
    cv_.WaitFor(mu_, slice);
  }
  Unregister(num_stripes_);
  --drainers_;
  return drained;
}

AdmissionMetrics AdmissionController::Metrics() const {
  MutexLock lock(mu_);
  AdmissionMetrics metrics;
  for (uint32_t i = 0; i < num_stripes_; ++i) {
    // order: relaxed — point-in-time snapshot; a fast-path admit or
    // release racing it lands in this read or the next.
    metrics.admitted += stripes_[i].admitted.load(std::memory_order_relaxed);
    // order: relaxed — snapshot, as above.
    metrics.inflight +=
        Occupied(stripes_[i].state.load(std::memory_order_relaxed));
  }
  metrics.shed = shed_;
  metrics.deadline_exceeded = deadline_exceeded_;
  // order: relaxed — snapshot, as above.
  metrics.rejected_shutdown =
      rejected_shutdown_.load(std::memory_order_relaxed);
  metrics.queued = queued_;
  return metrics;
}

}  // namespace vecube
