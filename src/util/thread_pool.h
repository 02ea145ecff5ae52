// ThreadPool: a small fixed-size pool with a chunk-claiming ParallelFor.
//
// Design constraints, in order:
//  * Deterministic results. ParallelFor partitions [0, n) into disjoint
//    chunks; callers must make each chunk's work independent, so the
//    output is bit-identical to the serial loop regardless of scheduling.
//  * Deadlock-free nesting. The calling thread always participates in its
//    own loop and claims chunks until none remain, so a ParallelFor issued
//    from inside a pool task completes even when every worker is busy —
//    helpers are pure opportunism. This is what lets the assembly
//    engine fan out over batch targets while the Haar kernels underneath
//    fan out over row blocks on the same pool.
//  * A cheap fan-out: chunks run for microseconds. A call fills one of the
//    pool's job slots and bumps one atomic generation word — no lock, no
//    allocation, and no syscall unless a worker is parked. Idle workers
//    spin on that word for a bounded window before they park on it, so a
//    query's back-to-back fan-outs find them awake.

#ifndef VECUBE_UTIL_THREAD_POOL_H_
#define VECUBE_UTIL_THREAD_POOL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

namespace vecube {

class ThreadPool {
 public:
  /// A borrowed `void(uint64_t begin, uint64_t end)` callable; nothing is
  /// copied or allocated. A lambda in ParallelFor's argument list outlives
  /// the call.
  class ChunkFn {
   public:
    template <typename Fn>
    ChunkFn(const Fn& fn)  // NOLINT(google-explicit-constructor)
        : fn_(&fn), call_([](const void* f, uint64_t begin, uint64_t end) {
            (*static_cast<const Fn*>(f))(begin, end);
          }) {}
    void operator()(uint64_t begin, uint64_t end) const {
      call_(fn_, begin, end);
    }

   private:
    const void* fn_;
    void (*call_)(const void*, uint64_t, uint64_t);
  };

  /// Hardware concurrency, at least 1.
  static uint32_t DefaultThreadCount();

  /// A pool of `num_threads` execution lanes: the calling thread plus
  /// `num_threads - 1` workers. 0 means DefaultThreadCount().
  explicit ThreadPool(uint32_t num_threads = 0);
  /// Joins every worker, spinning or parked. No call may be in flight.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] uint32_t num_threads() const { return num_threads_; }

  /// Invokes fn(begin, end) over disjoint chunks covering [0, n), each at
  /// least `grain` items (except possibly the last). Runs inline when the
  /// pool is single-threaded, the range is below the grain, or all
  /// `num_threads - 1` job slots are taken. Blocks until every chunk has
  /// completed. Safe to call from inside a pool task and from several
  /// threads at once.
  void ParallelFor(uint64_t n, uint64_t grain, ChunkFn fn);

 private:
  struct Job;
  void WorkerLoop();

  uint32_t num_threads_;
  std::unique_ptr<Job[]> jobs_;  // one slot per worker
  std::vector<std::thread> workers_;
  std::atomic<uint32_t> generation_{0};  // bumped per publication and stop
  std::atomic<uint32_t> parked_{0};      // workers asleep on generation_
  std::atomic<bool> stop_{false};
};

}  // namespace vecube

#endif  // VECUBE_UTIL_THREAD_POOL_H_
