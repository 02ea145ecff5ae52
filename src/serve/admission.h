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
// The fast path takes no lock (DESIGN.md §12). The `max_inflight` slots
// are split across up to kAdmissionStripes stripes, each one atomic word
// on its own cache line holding that stripe's occupied-slot count (low
// half) and its count of registered sleepers (high half: queued waiters
// plus running Drain() calls). A thread draws its own stripe round robin
// on its first Admit. An arrival takes a slot with one CAS on its own
// stripe while the word shows a free slot and no sleeper, trying the
// other stripes the same way when its own is full; the Permit records
// the stripe, and a release is one atomic decrement of it. Concurrent
// clients thus write disjoint lines. Everything else runs under the
// mutex: queueing (with `max_queue` shedding and the timed slices), the
// hand-off, Drain and Shutdown. A sleeper registers on every stripe,
// under the mutex, with the same CAS that re-checks that stripe for a
// free slot, so a release either frees its slot before the registration
// reaches its stripe (and the arrival takes it) or sees the registration
// in the value it decremented and hands the slot on under the mutex —
// no wake-up is lost. With max_inflight = 1 there is one stripe and this
// is the one-word design.
//
// Failpoint: "admit.handoff" (delay) stalls a release between its
// decrement and the locked hand-off it owes the queue.

#ifndef VECUBE_SERVE_ADMISSION_H_
#define VECUBE_SERVE_ADMISSION_H_

#include <array>
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
        : controller_(std::exchange(other.controller_, nullptr)),
          stripe_(other.stripe_) {}
    Permit& operator=(Permit&& other) noexcept {
      if (this != &other) {
        Release();
        controller_ = std::exchange(other.controller_, nullptr);
        stripe_ = other.stripe_;
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
    Permit(AdmissionController* controller, uint32_t stripe) noexcept
        : controller_(controller), stripe_(stripe) {}

    AdmissionController* controller_ = nullptr;
    uint32_t stripe_ = 0;  ///< the stripe whose slot this permit holds
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
  /// A queued arrival. Lives on its waiter's stack; `granted` and
  /// `stripe` are guarded by mu_ and set by the release that hands it a
  /// slot.
  struct Waiter {
    CondVar cv;
    bool granted = false;
    uint32_t stripe = 0;
  };

  /// One stripe's permit word and admission count, on a cache line of
  /// their own.
  struct alignas(64) Stripe {
    /// Occupied slots (low 32 bits) and sleepers (high 32 bits). The
    /// sleeper half changes only under mu_; either half is read
    /// lock-free.
    std::atomic<uint64_t> state{0};
    /// Permits granted on this stripe; Metrics() sums the stripes.
    std::atomic<uint64_t> admitted{0};
    uint32_t capacity = 0;  ///< immutable after construction
  };

  /// The most permit words one controller spreads its slots over. Like
  /// the view cache's hit stripes, up to this many concurrent clients
  /// write disjoint cache lines.
  static constexpr uint32_t kAdmissionStripes = 8;
  /// One sleeper in the high half of a stripe's `state`; the low half
  /// counts occupied slots.
  static constexpr uint64_t kSleeper = uint64_t{1} << 32;

  enum class Take : uint8_t { kTaken, kFull, kSleeper };
  /// Takes a slot on `stripe` if it has one free and nobody sleeps (one
  /// CAS); otherwise says which of the two stopped it.
  Take TakeOnStripe(uint32_t stripe);
  /// Takes a slot on the calling thread's stripe, else on the first other
  /// stripe with one free, while nobody sleeps. Returns the stripe, or
  /// num_stripes_ when every stripe is full or a sleeper is registered.
  uint32_t TryTakeSlot();
  /// Gives back a slot on `stripe` with one decrement. Returns true when
  /// the decremented value showed a sleeper: the caller then owes the
  /// locked hand-off.
  bool DropSlot(uint32_t stripe);
  /// Admit's slow path: queues under `mu_` behind every earlier waiter.
  Result<Permit> AdmitQueued(const QueryContext& ctx) VECUBE_EXCLUDES(mu_);
  void ReleaseSlot(uint32_t stripe) VECUBE_EXCLUDES(mu_);
  /// Withdraws one sleeper from stripes [0, count).
  void Unregister(uint32_t count) VECUBE_REQUIRES(mu_);
  /// The first stripe with a free slot, or num_stripes_.
  uint32_t FreeStripe() const VECUBE_REQUIRES(mu_);

  // Read-mostly: written only by the constructor and (shutdown_) once.
  AdmissionOptions options_;  ///< immutable after construction
  uint32_t num_stripes_ = 1;  ///< min(max_inflight, kAdmissionStripes)
  /// Set once, under mu_; read lock-free after every fast-path CAS.
  std::atomic<bool> shutdown_{false};

  // Lock-free state: the atomics' contracts are their `// order:`
  // comments in admission.cc.
  std::array<Stripe, kAdmissionStripes> stripes_;

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
