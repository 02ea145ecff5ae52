#include "util/thread_pool.h"

#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <climits>
#include <ctime>

namespace vecube {

namespace {

using Clock = std::chrono::steady_clock;

// How long an idle lane spins before it sleeps: a worker between jobs, a
// caller waiting on chunks other lanes hold. It spans the gaps between a
// query's fan-outs; past it, a wake-up costs a syscall and a reschedule.
constexpr Clock::duration kSpinWindow = std::chrono::microseconds(50);
// One sleep of a waiting caller; the last chunk cuts it short.
constexpr timespec kWaitSlice{0, 100 * 1000 * 1000};

enum : uint32_t { kFree, kFilling, kLive };  // job slot states

void Futex(std::atomic<uint32_t>* word, int op, uint32_t val,
           const timespec* timeout) {
  syscall(SYS_futex, word, op, val, timeout, nullptr, 0);
}

// Polls `done()` for up to kSpinWindow; returns done(). Each turn yields:
// a thread the scheduler stacked on this CPU (often the very client or
// worker being waited for) then runs at once instead of after the window.
template <typename Pred>
bool SpinFor(const Pred& done) {
  const Clock::time_point until = Clock::now() + kSpinWindow;
  while (!done()) {
    if (Clock::now() >= until) return false;
    std::this_thread::yield();
  }
  return true;
}

}  // namespace

// A job slot's life: kFree -> kFilling (a caller owns it and writes the
// fields) -> kLive (workers may join) -> kFilling (retracted; the caller
// waits out `joined`) -> kFree.
struct alignas(64) ThreadPool::Job {
  std::atomic<uint32_t> state{kFree};
  std::atomic<uint32_t> joined{0};  // workers inside the job
  std::atomic<uint32_t> done{0};    // chunks finished
  std::atomic<uint32_t> caller_parked{0};
  std::atomic<uint64_t> next{0};  // next chunk index to claim
  const ChunkFn* fn = nullptr;
  uint64_t n = 0;
  uint64_t chunk = 0;
  uint32_t num_chunks = 0;

  void RunChunks() {
    for (;;) {
      // order: relaxed — claiming only needs atomicity (each index is
      // claimed once); the chunks' data is partitioned by index.
      const uint64_t index = next.fetch_add(1, std::memory_order_relaxed);
      if (index >= num_chunks) return;
      const uint64_t begin = index * chunk;
      (*fn)(begin, std::min(n, begin + chunk));
      // order: seq_cst — releases the chunk's writes to the caller; against
      // its `caller_parked` store and `done` reload, either the caller
      // sees the final count or the last chunk sees it parked and wakes it.
      if (done.fetch_add(1, std::memory_order_seq_cst) + 1 == num_chunks &&
          caller_parked.load(std::memory_order_seq_cst) != 0) {
        Futex(&done, FUTEX_WAKE_PRIVATE, 1, nullptr);
      }
    }
  }
};

uint32_t ThreadPool::DefaultThreadCount() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<uint32_t>(hw);
}

ThreadPool::ThreadPool(uint32_t num_threads)
    : num_threads_(num_threads == 0 ? DefaultThreadCount() : num_threads),
      jobs_(std::make_unique<Job[]>(num_threads_ - 1)) {
  workers_.reserve(num_threads_ - 1);
  for (uint32_t i = 0; i + 1 < num_threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  // order: seq_cst — a worker reads stop_ after a generation load that
  // sees this bump, so it never parks on the old generation again.
  stop_.store(true, std::memory_order_seq_cst);
  generation_.fetch_add(1, std::memory_order_seq_cst);
  Futex(&generation_, FUTEX_WAKE_PRIVATE, INT_MAX, nullptr);
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    // order: seq_cst — read after a publication's (or ~ThreadPool's)
    // bump, it makes that job (or stop_) visible below.
    const uint32_t gen = generation_.load(std::memory_order_seq_cst);
    if (stop_.load(std::memory_order_seq_cst)) return;
    for (uint32_t s = 0; s + 1 < num_threads_; ++s) {
      Job& job = jobs_[s];
      // order: relaxed — a peek; the seq_cst re-check below decides.
      if (job.state.load(std::memory_order_relaxed) != kLive) continue;
      // order: seq_cst join and re-check, against the caller's retract
      // (state store, then `joined` load): the caller waits for this worker
      // or this worker sees the retract. The re-check acquires the fields;
      // the release orders this worker's last touch before the slot's reuse.
      job.joined.fetch_add(1, std::memory_order_seq_cst);
      if (job.state.load(std::memory_order_seq_cst) == kLive) job.RunChunks();
      job.joined.fetch_sub(1, std::memory_order_release);
    }
    // order: relaxed — only detects the next bump; the load above orders.
    if (SpinFor([&] {
          return generation_.load(std::memory_order_relaxed) != gen;
        })) {
      continue;
    }
    // order: seq_cst — parked before the futex compares, against
    // ParallelFor's bump then parked_ load: either the compare sees the
    // new generation or the caller sees this worker parked and wakes it.
    parked_.fetch_add(1, std::memory_order_seq_cst);
    Futex(&generation_, FUTEX_WAIT_PRIVATE, gen, nullptr);
    parked_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void ThreadPool::ParallelFor(uint64_t n, uint64_t grain, ChunkFn fn) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  const uint64_t max_chunks = (n + grain - 1) / grain;
  Job* job = nullptr;
  for (uint32_t s = 0; max_chunks > 1 && !job && s + 1 < num_threads_; ++s) {
    uint32_t expected = kFree;
    // order: acquire — pairs with the release that last freed the slot.
    if (jobs_[s].state.compare_exchange_strong(expected, kFilling,
                                               std::memory_order_acquire,
                                               std::memory_order_relaxed)) {
      job = &jobs_[s];
    }
  }
  if (job == nullptr) {  // one lane, one chunk, or every slot taken
    fn(0, n);
    return;
  }

  // Several chunks per lane smooths imbalance without shrinking chunks
  // below the grain.
  const uint64_t target_chunks =
      std::min<uint64_t>(max_chunks, uint64_t{num_threads_} * 4);
  job->fn = &fn;
  job->n = n;
  job->chunk = (n + target_chunks - 1) / target_chunks;
  job->num_chunks = static_cast<uint32_t>((n + job->chunk - 1) / job->chunk);
  // order: relaxed — not live yet; the kLive store below publishes these.
  job->next.store(0, std::memory_order_relaxed);
  job->done.store(0, std::memory_order_relaxed);
  job->caller_parked.store(0, std::memory_order_relaxed);
  // order: seq_cst — kLive releases the fields to joining workers; the
  // bump then parked_ load pairs with WorkerLoop's park (see there).
  job->state.store(kLive, std::memory_order_seq_cst);
  generation_.fetch_add(1, std::memory_order_seq_cst);
  if (parked_.load(std::memory_order_seq_cst) != 0) {
    Futex(&generation_, FUTEX_WAKE_PRIVATE, job->num_chunks - 1, nullptr);
  }
  job->RunChunks();

  // Completion: spin, then sleep in bounded slices (vecube_check rule
  // no-unbounded-wait). A joined worker always finishes the chunks it
  // claimed, so this ends by construction.
  // order: acquire — pairs with RunChunks' fetch_add: once every chunk is
  // counted, every chunk's writes are visible here.
  const auto all_done = [job] {
    return job->done.load(std::memory_order_acquire) == job->num_chunks;
  };
  if (!SpinFor(all_done)) {
    // order: seq_cst — against RunChunks' last fetch_add (see there).
    job->caller_parked.store(1, std::memory_order_seq_cst);
    for (uint32_t seen; (seen = job->done.load(std::memory_order_seq_cst)) !=
                        job->num_chunks;) {
      Futex(&job->done, FUTEX_WAIT_PRIVATE, seen, &kWaitSlice);
    }
  }

  // Retract the job, wait out the workers still inside it (each is past
  // its last chunk), and free the slot.
  // order: seq_cst retract, as in WorkerLoop; release pairs with the claim.
  job->state.store(kFilling, std::memory_order_seq_cst);
  while (!SpinFor([job] {
    return job->joined.load(std::memory_order_seq_cst) == 0;
  })) {
  }
  job->state.store(kFree, std::memory_order_release);
}

}  // namespace vecube
