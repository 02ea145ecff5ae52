// Checker canary: a raw futex wait with a null timeout reachable from
// ParallelFor. Like an untimed std::atomic<T>::wait, it sleeps until
// someone wakes it, however long that takes; the no-unbounded-wait rule
// must flag the null timeout argument. NOT compiled — consumed by
// tools/vecube_check.py --canaries as a self-test.
//
// vecube-check-as: src/util/thread_pool.cc
// vecube-check-expect: no-unbounded-wait

#include "util/thread_pool.h"

#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>

namespace vecube {

void ThreadPool::ParallelFor(uint64_t n, uint64_t grain, ChunkFn fn) {
  (void)grain;
  std::atomic<uint32_t> done{0};
  fn(0, n);
  syscall(SYS_futex, &done, FUTEX_WAIT_PRIVATE, 0, nullptr, nullptr, 0);
}

}  // namespace vecube
