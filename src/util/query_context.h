// QueryContext: per-query deadline + cooperative cancellation.
//
// Threaded by const reference from the public API (OlapSession,
// ElementServer, RangeEngine) down through AssemblyEngine into the
// fused cascade loops, which check it at tile granularity. The contract
// is cooperative: code never preempts a running kernel, it polls Check()
// at natural yield points (plan nodes, cascade groups, slab/tile chunks,
// odometer steps) and unwinds with kDeadlineExceeded / kCancelled.
//
// A default-constructed context is unbounded and non-cancellable and
// costs nothing to check — the legacy entry points pass exactly that.
// Copies are cheap and share the cancellation token, so a monitoring
// thread can RequestCancel() a context whose copy a worker is serving.
//
// The deadline is a steady_clock time point (never wall-clock:
// system_clock jumps would turn NTP steps into spurious query failures,
// and the determinism lint bans it in the engine directories anyway).

#ifndef VECUBE_UTIL_QUERY_CONTEXT_H_
#define VECUBE_UTIL_QUERY_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

#include "util/status.h"

namespace vecube {

class QueryContext {
 public:
  using Clock = std::chrono::steady_clock;

  /// Unbounded, non-cancellable (the implicit context of every legacy
  /// call site). Check() on it is two branch tests — no clock read.
  QueryContext() = default;

  static QueryContext Unbounded() { return QueryContext(); }

  /// Absolute deadline; also allocates a cancellation token.
  static QueryContext WithDeadline(Clock::time_point deadline) {
    QueryContext ctx;
    ctx.deadline_ = deadline;
    ctx.cancel_ = std::make_shared<std::atomic<bool>>(false);
    return ctx;
  }

  /// Deadline `timeout` from now.
  template <typename Rep, typename Period>
  static QueryContext WithTimeout(
      const std::chrono::duration<Rep, Period>& timeout) {
    return WithDeadline(Clock::now() +
                        std::chrono::duration_cast<Clock::duration>(timeout));
  }

  /// No deadline, but cancellable via RequestCancel() on any copy.
  static QueryContext Cancellable() {
    QueryContext ctx;
    ctx.cancel_ = std::make_shared<std::atomic<bool>>(false);
    return ctx;
  }

  [[nodiscard]] bool has_deadline() const {
    return deadline_ != Clock::time_point::max();
  }
  [[nodiscard]] Clock::time_point deadline() const { return deadline_; }

  /// Time left before the deadline; a very large value when unbounded,
  /// zero (never negative) once expired.
  [[nodiscard]] Clock::duration remaining() const {
    if (!has_deadline()) return Clock::duration::max();
    const Clock::time_point now = Clock::now();
    return now >= deadline_ ? Clock::duration::zero() : deadline_ - now;
  }

  [[nodiscard]] bool expired() const {
    return has_deadline() && Clock::now() >= deadline_;
  }

  /// Requests cooperative cancellation; visible to every copy sharing
  /// this context's token. No-op on a non-cancellable context.
  void RequestCancel() const {
    // order: relaxed — a standalone flag polled by Check(); no data is
    // published through it (the canceller and the query share nothing
    // but the intent to stop).
    if (cancel_ != nullptr) cancel_->store(true, std::memory_order_relaxed);
  }

  [[nodiscard]] bool cancel_requested() const {
    // order: relaxed — see RequestCancel.
    return cancel_ != nullptr && cancel_->load(std::memory_order_relaxed);
  }

  /// The cooperative poll: OK while the query may keep running,
  /// kCancelled / kDeadlineExceeded once it must unwind. Cancellation is
  /// checked first so an expired-and-cancelled query reports the
  /// caller's intent rather than the clock.
  [[nodiscard]] Status Check() const {
    if (cancel_requested()) return Status::Cancelled("query cancelled");
    if (expired()) return Status::DeadlineExceeded("query deadline exceeded");
    return Status::OK();
  }

  /// Opt-in graceful degradation: when the remaining budget cannot cover
  /// the Procedure-3 plan cost, the serving layer may answer from
  /// resident elements approximately (with an L2 error bound) instead of
  /// failing with kDeadlineExceeded. See serve/serving.h.
  QueryContext& set_allow_degraded(bool allow) {
    allow_degraded_ = allow;
    return *this;
  }
  [[nodiscard]] bool allow_degraded() const { return allow_degraded_; }

  /// Explicit assembly-op budget override (0 = derive from remaining()
  /// wall time via the server's ops-per-millisecond estimate). Tests use
  /// this for deterministic degradation without wall-clock flakiness.
  QueryContext& set_ops_budget(uint64_t ops) {
    ops_budget_ = ops;
    return *this;
  }
  [[nodiscard]] uint64_t ops_budget() const { return ops_budget_; }

 private:
  Clock::time_point deadline_ = Clock::time_point::max();
  std::shared_ptr<std::atomic<bool>> cancel_;  // null = non-cancellable
  bool allow_degraded_ = false;
  uint64_t ops_budget_ = 0;
};

}  // namespace vecube

#endif  // VECUBE_UTIL_QUERY_CONTEXT_H_
