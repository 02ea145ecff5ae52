// Assembly-engine ablation: measured work to answer aggregated-view
// queries from (a) the data cube only, (b) the wavelet basis, (c) the
// Algorithm-1 basis tuned to the workload, and (d) a redundant Algorithm-2
// selection. This executes the actual Haar kernels — wall-clock numbers
// for the analytic costs that Figures 8 and 9 report.

#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include "core/assembly.h"
#include "core/basis.h"
#include "core/computer.h"
#include "core/graph.h"
#include "cube/synthetic.h"
#include "select/algorithm1.h"
#include "select/algorithm2.h"
#include "util/rng.h"
#include "workload/population.h"

namespace {

struct Setup {
  vecube::CubeShape shape;
  vecube::Tensor cube;
  vecube::QueryPopulation population;
};

Setup MakeSetup() {
  auto shape = vecube::CubeShape::MakeSquare(4, 16);
  vecube::Rng rng(7);
  auto cube = vecube::UniformIntegerCube(*shape, &rng);
  vecube::Rng prng(8);
  auto population = vecube::ZipfViewPopulation(*shape, &prng, 1.2);
  return Setup{*shape, std::move(cube).value(),
               std::move(population).value()};
}

void RunWorkload(benchmark::State& state,
                 const std::vector<vecube::ElementId>& set) {
  Setup setup = MakeSetup();
  vecube::ElementComputer computer(setup.shape, &setup.cube);
  auto store = computer.Materialize(set);
  if (!store.ok()) {
    state.SkipWithError("materialization failed");
    return;
  }
  vecube::AssemblyEngine engine(&*store);
  vecube::Rng rng(9);
  uint64_t total_ops = 0;
  for (auto _ : state) {
    const vecube::ElementId& view = setup.population.Sample(&rng);
    vecube::OpCounter ops;
    auto answer = engine.Assemble(view, &ops);
    benchmark::DoNotOptimize(answer->raw());
    total_ops += ops.adds;
  }
  state.counters["adds_per_query"] = benchmark::Counter(
      static_cast<double>(total_ops), benchmark::Counter::kAvgIterations);
  state.counters["storage_rel"] = store->RelativeStorage();
}

void BM_AssembleFromCubeOnly(benchmark::State& state) {
  Setup setup = MakeSetup();
  RunWorkload(state, vecube::CubeOnlySet(setup.shape));
}
BENCHMARK(BM_AssembleFromCubeOnly);

void BM_AssembleFromWaveletBasis(benchmark::State& state) {
  Setup setup = MakeSetup();
  RunWorkload(state, vecube::WaveletBasisSet(setup.shape));
}
BENCHMARK(BM_AssembleFromWaveletBasis);

void BM_AssembleFromAlgorithm1Basis(benchmark::State& state) {
  Setup setup = MakeSetup();
  auto selection = vecube::SelectMinCostBasis(setup.shape, setup.population);
  if (!selection.ok()) {
    state.SkipWithError("selection failed");
    return;
  }
  RunWorkload(state, selection->basis);
}
BENCHMARK(BM_AssembleFromAlgorithm1Basis);

void BM_AssembleFromViewHierarchy(benchmark::State& state) {
  Setup setup = MakeSetup();
  RunWorkload(state, vecube::ViewHierarchySet(setup.shape));
}
BENCHMARK(BM_AssembleFromViewHierarchy);

// Multi-query optimization targets: the full intermediate pyramid of a
// 3-D cube nests heavily (every level is the P-child of the previous),
// so batching shares almost all synthesis work.
std::vector<vecube::ElementId> PyramidTargets(const vecube::CubeShape& shape) {
  return vecube::ViewElementGraph(shape).IntermediateElements();
}

void BM_AssemblePyramidIndividually(benchmark::State& state) {
  auto shape = vecube::CubeShape::MakeSquare(3, 16);
  vecube::Rng rng(7);
  auto cube = vecube::UniformIntegerCube(*shape, &rng);
  vecube::ElementComputer computer(*shape, &*cube);
  auto store = computer.Materialize(vecube::WaveletBasisSet(*shape));
  vecube::AssemblyEngine engine(&*store);
  const auto targets = PyramidTargets(*shape);
  uint64_t total_ops = 0;
  for (auto _ : state) {
    for (const vecube::ElementId& id : targets) {
      vecube::OpCounter ops;
      auto out = engine.Assemble(id, &ops);
      benchmark::DoNotOptimize(out->raw());
      total_ops += ops.adds;
    }
  }
  state.counters["adds_per_round"] = benchmark::Counter(
      static_cast<double>(total_ops), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_AssemblePyramidIndividually);

void BM_AssemblePyramidBatched(benchmark::State& state) {
  auto shape = vecube::CubeShape::MakeSquare(3, 16);
  vecube::Rng rng(7);
  auto cube = vecube::UniformIntegerCube(*shape, &rng);
  vecube::ElementComputer computer(*shape, &*cube);
  auto store = computer.Materialize(vecube::WaveletBasisSet(*shape));
  vecube::AssemblyEngine engine(&*store);
  const auto targets = PyramidTargets(*shape);
  uint64_t total_ops = 0;
  for (auto _ : state) {
    vecube::OpCounter ops;
    auto out = engine.AssembleBatch(targets, &ops);
    benchmark::DoNotOptimize(out->size());
    total_ops += ops.adds;
  }
  state.counters["adds_per_round"] = benchmark::Counter(
      static_cast<double>(total_ops), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_AssemblePyramidBatched);

int64_t MinorFaults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

// The full cube of a 32^4 cube (8 MiB) from three stored dim-1 elements,
// synthesized in two stages: the store and the heaviest query of
// perfbench's cold_assembly workload. Stored leaves are read in place, so
// the only memory a query touches beyond the kernels' is its answer and
// one 4 MiB child; minor_faults_per_query (getrusage) exposes any copy or
// fresh mapping outside the Procedure-3 cost model.
void BM_AssembleFullCubeFromDim1Store(benchmark::State& state) {
  auto shape = vecube::CubeShape::MakeSquare(4, 32);
  vecube::Rng rng(7);
  auto cube = vecube::UniformIntegerCube(*shape, &rng);
  std::vector<vecube::ElementId> set;
  for (const vecube::DimCode code :
       {vecube::DimCode{1, 1}, vecube::DimCode{2, 0}, vecube::DimCode{2, 1}}) {
    set.push_back(
        *vecube::ElementId::Make({{0, 0}, code, {0, 0}, {0, 0}}, *shape));
  }
  vecube::ElementComputer computer(*shape, &*cube);
  auto store = computer.Materialize(set);
  if (!store.ok()) {
    state.SkipWithError("materialization failed");
    return;
  }
  vecube::AssemblyEngine engine(&*store);
  const vecube::ElementId full = vecube::ElementId::Root(4);
  // Plan and first-touch the answer's pages outside the loop.
  benchmark::DoNotOptimize(engine.Assemble(full)->raw());
  uint64_t total_ops = 0;
  const int64_t faults_before = MinorFaults();
  for (auto _ : state) {
    vecube::OpCounter ops;
    auto out = engine.Assemble(full, &ops);
    benchmark::DoNotOptimize(out->raw());
    total_ops += ops.adds;
  }
  state.counters["adds_per_query"] = benchmark::Counter(
      static_cast<double>(total_ops), benchmark::Counter::kAvgIterations);
  state.counters["minor_faults_per_query"] = benchmark::Counter(
      static_cast<double>(MinorFaults() - faults_before),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_AssembleFullCubeFromDim1Store)->Unit(benchmark::kMicrosecond);

void BM_PlanningOverhead(benchmark::State& state) {
  // Cost of the Procedure-3 planning pass alone (memoized afterwards).
  Setup setup = MakeSetup();
  vecube::ElementComputer computer(setup.shape, &setup.cube);
  auto selection = vecube::SelectMinCostBasis(setup.shape, setup.population);
  auto store = computer.Materialize(selection->basis);
  for (auto _ : state) {
    vecube::AssemblyEngine engine(&*store);  // fresh memo each iteration
    uint64_t total = 0;
    for (const vecube::QuerySpec& q : setup.population.queries()) {
      total += engine.PlanCost(q.view);
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_PlanningOverhead);

}  // namespace

BENCHMARK_MAIN();
