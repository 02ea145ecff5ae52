// AdmissionController: bounded-queue load shedding for the serving stack
// (DESIGN.md §13).
//
// Every query acquires a Permit before touching the assembly engine. At
// most `max_inflight` permits are outstanding; the next `max_queue`
// arrivals wait (in bounded timed slices, honoring their own deadlines);
// anything beyond that is shed immediately with kResourceExhausted and a
// retry-after hint — the server stays responsive by refusing work it
// cannot finish in time, instead of queueing unboundedly and missing
// every deadline at once.
//
// Shutdown is graceful: new arrivals are refused with kUnavailable, but
// already-queued waiters keep their place and are admitted as slots
// free, so an operator-initiated drain (vecube_cli serve on SIGINT)
// finishes the work it already accepted.
//
// Slots are handed out first come, first served: a queued waiter is
// never overtaken. A release that finds waiters queued hands its slot
// straight to the oldest one (FIFO) instead of freeing it for whoever
// races to it first, and an arrival only takes a free slot when nobody
// is queued.
//
// The fast path takes no lock (DESIGN.md §12): the occupied-slot count
// and the count of registered sleepers (queued waiters plus running
// Drain() calls) share one atomic word. An arrival takes a slot with one
// CAS while the word shows a free slot and no sleeper; a release is one
// atomic decrement. Everything else runs under the mutex: queueing (with
// `max_queue` shedding and the timed slices), the hand-off, Drain and
// Shutdown. A sleeper registers in the word, under the mutex, with the
// same CAS that re-checks for a free slot, so a release either frees the
// slot before the registration (and the arrival takes it) or sees the
// registration in the value it decremented and hands the slot on under
// the mutex — no wake-up is lost.

#ifndef VECUBE_SERVE_ADMISSION_H_
#define VECUBE_SERVE_ADMISSION_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <utility>

#include "util/query_context.h"
#include "util/result.h"
#include "util/status.h"
#include "util/sync.h"

namespace vecube {

struct AdmissionOptions {
  /// Queries allowed to execute concurrently.
  uint32_t max_inflight = 4;
  /// Queries allowed to wait for a slot; arrivals beyond this are shed.
  uint32_t max_queue = 16;
  /// Hint embedded in the kResourceExhausted message of a shed query.
  std::chrono::milliseconds retry_after{50};
};

struct AdmissionMetrics {
  uint64_t admitted = 0;           ///< permits granted
  uint64_t shed = 0;               ///< refused: queue full
  uint64_t deadline_exceeded = 0;  ///< gave up waiting for a slot
  uint64_t rejected_shutdown = 0;  ///< refused: controller shut down
  uint64_t inflight = 0;           ///< point-in-time outstanding permits
  uint64_t queued = 0;             ///< point-in-time waiters
};

/// Thread-safe. One controller fronts one serving endpoint; workers call
/// Admit() per query and hold the Permit for the query's duration.
class AdmissionController {
 public:
  explicit AdmissionController(AdmissionOptions options = {});

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// RAII slot: releases on destruction, handing the slot to the oldest
  /// queued waiter if there is one and waking any drainer.
  class Permit {
   public:
    Permit() noexcept = default;
    Permit(Permit&& other) noexcept
        : controller_(std::exchange(other.controller_, nullptr)) {}
    Permit& operator=(Permit&& other) noexcept {
      if (this != &other) {
        Release();
        controller_ = std::exchange(other.controller_, nullptr);
      }
      return *this;
    }
    Permit(const Permit&) = delete;
    Permit& operator=(const Permit&) = delete;
    ~Permit() { Release(); }

    [[nodiscard]] bool valid() const { return controller_ != nullptr; }
    void Release();

   private:
    friend class AdmissionController;
    explicit Permit(AdmissionController* controller) noexcept
        : controller_(controller) {}

    AdmissionController* controller_ = nullptr;
  };

  /// Grants a slot, queues for one (first come, first served; bounded
  /// timed waits, never past the context's deadline), or refuses:
  ///  * kResourceExhausted — queue full; the message carries the
  ///    retry-after hint. The caller should answer the client
  ///    immediately (load shedding).
  ///  * kDeadlineExceeded / kCancelled — the context gave out while
  ///    queued; no slot was consumed.
  ///  * kUnavailable — controller shut down.
  Result<Permit> Admit(const QueryContext& ctx = QueryContext());

  /// Stops admitting new queries (kUnavailable). Queued waiters keep
  /// their place and drain normally. An arrival racing Shutdown() is
  /// either refused or holds a slot that Drain() waits for.
  void Shutdown();

  /// Blocks (in bounded slices) until no permits are outstanding and the
  /// queue is empty, or `timeout` elapses. Returns true when drained.
  /// Call after Shutdown() for a clean stop.
  bool Drain(std::chrono::milliseconds timeout);

  [[nodiscard]] AdmissionMetrics Metrics() const;

 private:
  /// A queued arrival. Lives on its waiter's stack; `granted` is guarded
  /// by mu_ and set by the release that hands it a slot.
  struct Waiter {
    CondVar cv;
    bool granted = false;
  };

  /// One sleeper in the high half of `state_`; the low half counts
  /// occupied slots.
  static constexpr uint64_t kSleeper = uint64_t{1} << 32;

  /// Takes a slot if one is free and nobody sleeps (one CAS on
  /// `state_`); false otherwise.
  bool TryTakeSlot();
  /// Admit's slow path: queues under `mu_` behind every earlier waiter.
  Result<Permit> AdmitQueued(const QueryContext& ctx) VECUBE_EXCLUDES(mu_);
  void ReleaseSlot() VECUBE_EXCLUDES(mu_);

  AdmissionOptions options_;  ///< immutable after construction
  // Lock-free state: the atomics' contracts are their `// order:`
  // comments in admission.cc.
  /// Occupied slots (low 32 bits) and sleepers (high 32 bits). The
  /// sleeper half changes only under mu_; either half is read lock-free.
  std::atomic<uint64_t> state_{0};
  /// Set once, under mu_; read lock-free after every fast-path CAS.
  std::atomic<bool> shutdown_{false};
  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> rejected_shutdown_{0};

  mutable Mutex mu_;
  CondVar cv_;  ///< drainers wait here; waiters on their own Waiter::cv
  /// Queued waiters, oldest first; the next released slot goes to front().
  std::deque<Waiter*> waiters_ VECUBE_GUARDED_BY(mu_);
  uint32_t drainers_ VECUBE_GUARDED_BY(mu_) = 0;
  uint32_t queued_ VECUBE_GUARDED_BY(mu_) = 0;
  uint64_t shed_ VECUBE_GUARDED_BY(mu_) = 0;
  uint64_t deadline_exceeded_ VECUBE_GUARDED_BY(mu_) = 0;
};

}  // namespace vecube

#endif  // VECUBE_SERVE_ADMISSION_H_
