// Parallel batch-assembly benchmark: times AssembleBatch over all 2^d
// aggregated views of a d-dimensional cube across a thread sweep and a
// dyadic shard sweep, and verifies the determinism invariant along the
// way — measured OpCounter totals must be identical at every thread
// count AND every shard count (threading and sharding change wall time,
// never the operation count the paper's cost model predicts).
//
// Default configuration is the 2^24-cell cube (extent 64, 4 dims) with
// the cube-only store (the paper's [D] strategy) — batch assembly then
// aggregates every marginal from the base cube, the memory-friendly way
// to exercise the threaded kernels at this scale. Emits
// BENCH_parallel.json in the working directory so the perf trajectory
// can accumulate across revisions.
//
// Usage: bench_parallel [--smoke] [extent] [ndim] [threads]
//   --smoke  CI mode: a 2^16-cell cube, 1 rep — fast enough for the
//            release job while still crossing the shard-routing
//            threshold, so the ops-invariance accounting gates all run
//   extent   per-dimension domain size (default 64; 16 under --smoke)
//   ndim     number of dimensions      (default 4)
//   threads  max sweep thread count    (default: hardware concurrency)

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "core/assembly.h"
#include "core/basis.h"
#include "core/computer.h"
#include "cube/shape.h"
#include "cube/synthetic.h"
#include "haar/transform.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

struct RunResult {
  uint32_t threads = 1;
  uint32_t shards = 1;
  double best_ms = 0.0;
  uint64_t ops = 0;
};

// Best-of-kReps timed batch over `targets`; returns false on failure or
// on op-count drift across reps.
bool TimedBatch(const vecube::ElementStore& store,
                const std::vector<vecube::ElementId>& targets,
                uint32_t threads, uint32_t shards, int reps,
                RunResult* out) {
  std::unique_ptr<vecube::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<vecube::ThreadPool>(threads);
  vecube::AssemblyEngine engine(&store, pool.get(), shards);

  out->threads = threads;
  out->shards = shards;
  out->best_ms = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    vecube::OpCounter ops;
    const auto start = std::chrono::steady_clock::now();
    auto batch = engine.AssembleBatch(targets, &ops);
    const double ms = MillisSince(start);
    if (!batch.ok()) {
      std::fprintf(stderr, "assembly failed: %s\n",
                   batch.status().ToString().c_str());
      return false;
    }
    if (ms < out->best_ms) out->best_ms = ms;
    if (rep == 0) {
      out->ops = ops.adds;
    } else if (ops.adds != out->ops) {
      std::fprintf(stderr, "FAIL: op count drifted across reps\n");
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int pos = 1;
  if (argc > pos && std::strcmp(argv[pos], "--smoke") == 0) {
    smoke = true;
    ++pos;
  }
  const uint32_t extent =
      argc > pos ? std::atoi(argv[pos]) : (smoke ? 16u : 64u);
  const uint32_t ndim = argc > pos + 1 ? std::atoi(argv[pos + 1]) : 4;
  const uint32_t hardware_threads = std::max(
      1u, static_cast<uint32_t>(std::thread::hardware_concurrency()));
  const uint32_t max_threads = argc > pos + 2
                                   ? std::atoi(argv[pos + 2])
                                   : vecube::ThreadPool::DefaultThreadCount();
  const int reps = smoke ? 1 : 3;

  auto shape_result = vecube::CubeShape::MakeSquare(ndim, extent);
  if (!shape_result.ok()) {
    std::fprintf(stderr, "bad shape: %s\n",
                 shape_result.status().ToString().c_str());
    return 1;
  }
  const vecube::CubeShape shape = *shape_result;
  std::printf("parallel batch assembly: %u^%u cube (%llu cells), cube-only "
              "store, %u hardware threads%s\n",
              extent, ndim, static_cast<unsigned long long>(shape.volume()),
              hardware_threads, smoke ? " [smoke]" : "");

  vecube::Rng rng(24);
  auto cube = vecube::UniformIntegerCube(shape, &rng, -9, 9);
  if (!cube.ok()) return 1;
  vecube::ElementComputer computer(shape, &*cube);
  auto store = computer.Materialize(vecube::CubeOnlySet(shape));
  if (!store.ok()) {
    std::fprintf(stderr, "materialize failed: %s\n",
                 store.status().ToString().c_str());
    return 1;
  }

  // All 2^d aggregated views: the canonical "answer every marginal" batch.
  std::vector<vecube::ElementId> targets;
  for (uint32_t mask = 0; mask < (1u << ndim); ++mask) {
    auto view = vecube::ElementId::AggregatedView(mask, shape);
    if (!view.ok()) return 1;
    targets.push_back(*view);
  }

  vecube::AssemblyEngine planner(&*store);
  uint64_t sum_plan_cost = 0;
  for (const vecube::ElementId& target : targets) {
    const uint64_t plan = planner.PlanCost(target);
    if (plan == vecube::kInfiniteCost) {
      std::fprintf(stderr, "unassemblable target\n");
      return 1;
    }
    sum_plan_cost += plan;
  }

  // Thread sweep: powers of two from 1 up to the requested maximum (the
  // shard budget follows the pool by default), then a shard sweep at the
  // top thread count to isolate decomposition effects from pool size.
  std::vector<RunResult> thread_runs;
  uint32_t top_threads = 1;
  for (uint32_t threads = 1; threads <= max_threads; threads *= 2) {
    top_threads = threads;
    RunResult run;
    if (!TimedBatch(*store, targets, threads, 0, reps, &run)) return 1;
    thread_runs.push_back(run);
    std::printf("  threads=%-3u best of %d: %10.2f ms   ops=%llu\n", threads,
                reps, run.best_ms, static_cast<unsigned long long>(run.ops));
  }

  std::vector<RunResult> shard_runs;
  for (uint32_t shards : {1u, 2u, 4u, 8u}) {
    RunResult run;
    if (!TimedBatch(*store, targets, top_threads, shards, reps, &run)) {
      return 1;
    }
    shard_runs.push_back(run);
    std::printf("  shards=%-3u (threads=%u) best of %d: %10.2f ms   "
                "ops=%llu\n",
                shards, top_threads, reps, run.best_ms,
                static_cast<unsigned long long>(run.ops));
  }

  // Determinism invariant: identical measured ops at every thread count
  // and every shard count, and batch sharing never exceeds the sum of
  // individual plan costs. This is the accounting gate the CI smoke run
  // exists for.
  const uint64_t baseline_ops = thread_runs.front().ops;
  for (const RunResult& run : thread_runs) {
    if (run.ops != baseline_ops) {
      std::fprintf(stderr, "FAIL: ops differ across thread counts\n");
      return 1;
    }
  }
  for (const RunResult& run : shard_runs) {
    if (run.ops != baseline_ops) {
      std::fprintf(stderr, "FAIL: ops differ across shard counts\n");
      return 1;
    }
  }
  if (baseline_ops > sum_plan_cost) {
    std::fprintf(stderr, "FAIL: batch ops exceed summed plan costs\n");
    return 1;
  }
  const double speedup = thread_runs.size() > 1
                             ? thread_runs.front().best_ms /
                                   thread_runs.back().best_ms
                             : 1.0;
  std::printf("  batch ops %llu <= sum of plan costs %llu; speedup %.2fx\n",
              static_cast<unsigned long long>(baseline_ops),
              static_cast<unsigned long long>(sum_plan_cost), speedup);

  std::FILE* json = std::fopen("BENCH_parallel.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_parallel.json\n");
    return 1;
  }
  std::fprintf(json, "{\n");
  std::fprintf(json, "  \"bench\": \"parallel_batch_assembly\",\n");
  std::fprintf(json, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(json, "  \"extent\": %u,\n  \"ndim\": %u,\n", extent, ndim);
  std::fprintf(json, "  \"cells\": %llu,\n",
               static_cast<unsigned long long>(shape.volume()));
  std::fprintf(json, "  \"hardware_threads\": %u,\n", hardware_threads);
  std::fprintf(json, "  \"targets\": %zu,\n", targets.size());
  std::fprintf(json, "  \"sum_plan_cost\": %llu,\n",
               static_cast<unsigned long long>(sum_plan_cost));
  std::fprintf(json, "  \"runs\": [\n");
  for (size_t i = 0; i < thread_runs.size(); ++i) {
    std::fprintf(json,
                 "    {\"threads\": %u, \"best_ms\": %.3f, \"ops\": %llu}%s\n",
                 thread_runs[i].threads, thread_runs[i].best_ms,
                 static_cast<unsigned long long>(thread_runs[i].ops),
                 i + 1 < thread_runs.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n");
  std::fprintf(json, "  \"shard_runs\": [\n");
  for (size_t i = 0; i < shard_runs.size(); ++i) {
    std::fprintf(json,
                 "    {\"shards\": %u, \"threads\": %u, \"best_ms\": %.3f, "
                 "\"ops\": %llu}%s\n",
                 shard_runs[i].shards, shard_runs[i].threads,
                 shard_runs[i].best_ms,
                 static_cast<unsigned long long>(shard_runs[i].ops),
                 i + 1 < shard_runs.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n");
  std::fprintf(json, "  \"speedup\": %.3f\n", speedup);
  std::fprintf(json, "}\n");
  std::fclose(json);
  std::printf("  wrote BENCH_parallel.json\n");
  return 0;
}
