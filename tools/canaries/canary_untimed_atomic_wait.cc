// Checker canary: a ParallelFor whose completion wait parks on
// std::atomic<T>::wait, which takes no timeout. A caller parked there
// sleeps until the last chunk notifies, however long that takes; the
// no-unbounded-wait rule must flag it through call-graph reachability
// even though ParallelFor's own body looks clean. NOT compiled —
// consumed by tools/vecube_check.py --canaries as a self-test.
//
// vecube-check-as: src/util/thread_pool.cc
// vecube-check-expect: no-unbounded-wait

#include "util/thread_pool.h"

#include <atomic>
#include <cstdint>

namespace vecube {

namespace {

void AwaitChunks(std::atomic<uint32_t>& done, uint32_t num_chunks) {
  // order: acquire — canary; the ordering is not what is under test.
  for (uint32_t seen; (seen = done.load(std::memory_order_acquire)) !=
                      num_chunks;) {
    done.wait(seen);  // BUG: untimed — no bounded slice
  }
}

}  // namespace

void ThreadPool::ParallelFor(uint64_t n, uint64_t grain, ChunkFn fn) {
  (void)grain;
  std::atomic<uint32_t> done{0};
  fn(0, n);
  done.store(1);
  AwaitChunks(done, 1);  // reaches the untimed wait above
}

}  // namespace vecube
