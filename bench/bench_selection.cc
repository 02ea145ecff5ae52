// Selection-algorithm runtime ablation: Algorithm 1's space-frequency DP
// across graph sizes, and one greedy Algorithm-2 stage across
// candidate-pool sizes. The paper bounds the DP by O((d+1) N_ve); the
// containment prune solves only the nodes some query overlaps without
// containing, plus their children (about half of N_ve on 32^4), so the
// `graph_nodes` counter is an upper bound on the work. Args({4, 32, ...})
// is the graph perfbench's workloads select over. The third argument is the
// number of ThreadPool lanes the DP fans out over (1 is the serial DP); each
// row reports it beside `hardware_threads`.

#include <benchmark/benchmark.h>

#include "core/basis.h"
#include "core/graph.h"
#include "select/algorithm1.h"
#include "select/algorithm2.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/population.h"

namespace {

void BM_Algorithm1(benchmark::State& state) {
  const uint32_t d = static_cast<uint32_t>(state.range(0));
  const uint32_t n = static_cast<uint32_t>(state.range(1));
  const uint32_t lanes = static_cast<uint32_t>(state.range(2));
  auto shape = vecube::CubeShape::MakeSquare(d, n);
  vecube::Rng rng(31);
  auto population = vecube::RandomViewPopulation(*shape, &rng);
  vecube::ThreadPool pool(lanes);
  for (auto _ : state) {
    auto selection = vecube::SelectMinCostBasis(*shape, *population, &pool);
    benchmark::DoNotOptimize(selection->predicted_cost);
  }
  state.counters["graph_nodes"] = static_cast<double>(
      vecube::ViewElementGraph(*shape).NumElements());
  state.counters["lanes"] = lanes;
  state.counters["hardware_threads"] =
      vecube::ThreadPool::DefaultThreadCount();
}
BENCHMARK(BM_Algorithm1)
    ->Args({2, 16, 1})
    ->Args({2, 256, 1})
    ->Args({3, 16, 1})
    ->Args({4, 8, 1})
    ->Args({4, 16, 1})
    ->Args({4, 16, 4})
    ->Args({4, 32, 1})
    ->Args({4, 32, 4})
    ->Unit(benchmark::kMillisecond);

void BM_Procedure3Evaluation(benchmark::State& state) {
  // One full Procedure-3 evaluation of a redundant set — the inner loop of
  // the greedy Algorithm 2.
  auto shape = vecube::CubeShape::MakeSquare(4, 4);
  vecube::Rng rng(32);
  auto population = vecube::RandomViewPopulation(*shape, &rng);
  auto selection = vecube::SelectMinCostBasis(*shape, *population);
  std::vector<vecube::ElementId> set = selection->basis;
  set.push_back(vecube::ElementId::Root(4));
  for (auto _ : state) {
    auto total = vecube::TotalProcessingCost(*shape, set, *population);
    benchmark::DoNotOptimize(*total);
  }
}
BENCHMARK(BM_Procedure3Evaluation);

void BM_Algorithm2OneStage(benchmark::State& state) {
  // A single greedy stage: scan the full candidate pool once.
  auto shape = vecube::CubeShape::MakeSquare(4, 4);
  vecube::Rng rng(33);
  auto population = vecube::RandomViewPopulation(*shape, &rng);
  auto selection = vecube::SelectMinCostBasis(*shape, *population);
  const uint64_t base_storage =
      vecube::StorageVolume(selection->basis, *shape);
  for (auto _ : state) {
    vecube::GreedyOptions options;
    // Room for exactly one largest addition: a single greedy stage.
    options.storage_target_cells = base_storage + 1;
    auto frontier = vecube::GreedySelect(*shape, *population,
                                         selection->basis, options);
    benchmark::DoNotOptimize(frontier->size());
  }
  state.counters["candidates"] = static_cast<double>(
      vecube::ViewElementGraph(*shape).NumElements());
  state.SetLabel("one greedy stage over the full element pool");
}
BENCHMARK(BM_Algorithm2OneStage)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
