// Checker canary: the shard hot path taking a lock through a helper.
// RunTask's own body looks clean — the MutexLock hides one call away,
// which is exactly what call-graph reachability must catch: every engine
// cascade runs through RunTask, so a shard task that serializes on a
// shared mutex defeats the decomposition's whole contention model
// (DESIGN.md §14). NOT compiled — consumed by tools/vecube_check.py
// --canaries as a self-test.
//
// vecube-check-as: src/core/shard_plan.cc
// vecube-check-expect: no-shared-scratch-on-shard-path

#include "core/shard_plan.h"
#include "util/sync.h"

namespace vecube {

namespace {

Mutex g_gather_mu;
uint64_t g_gathered_cells = 0;

void CountGather(uint64_t cells) {
  MutexLock lock(g_gather_mu);  // BUG: a shared lock on the shard path
  g_gathered_cells += cells;
}

}  // namespace

Status ThreadedShardExecutor::RunTask(const double* in,
                                      const ShardStage& stage,
                                      const ShardTask& task, double* out,
                                      double* lane_buf, ShardScratch* scratch,
                                      const QueryContext* ctx) const {
  CountGather(stage.local_volume);  // reaches the lock
  (void)in;
  (void)task;
  (void)out;
  (void)lane_buf;
  (void)scratch;
  (void)ctx;
  return Status::OK();
}

}  // namespace vecube
