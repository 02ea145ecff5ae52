// Kernel throughput: the Haar partial-aggregation pair and its synthesis
// inverse (the building blocks of every view element operation), across
// cube sizes and axis positions. Not a paper figure — an ablation that
// documents the cost of the substrate.
//
// The headline comparison times total aggregation of a cube two ways and
// prints fused-vs-baseline and GB/s columns:
//   baseline  step-at-a-time cascade (one materialized tensor per level)
//             with the scalar kernel table forced — the pre-fusion path.
//   fused     the fused kernel layer (haar/fused.h, CascadeAnalysis):
//             whole cascade groups in one pass through scratch tiles,
//             runtime-dispatched vector kernels.
// Both paths must produce bit-identical totals and equal OpCounter adds;
// the binary exits nonzero if they do not. Results are appended to
// BENCH_kernels.json in the working directory so the perf trajectory can
// accumulate across revisions.
//
// Usage: bench_kernels [--smoke] [--reps=N] [google-benchmark flags...]
//   --smoke   headline on a small cube only and skip the google-benchmark
//             suites (fast enough for a CI smoke step)
//   --reps=N  timing repetitions per path (best-of, default 3)

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "cube/shape.h"
#include "cube/synthetic.h"
#include "haar/cascade.h"
#include "haar/fused.h"
#include "haar/simd.h"
#include "haar/transform.h"
#include "util/rng.h"

namespace {

vecube::Tensor MakeCube(uint32_t d, uint32_t n, uint64_t seed) {
  auto shape = vecube::CubeShape::MakeSquare(d, n);
  vecube::Rng rng(seed);
  auto cube = vecube::UniformIntegerCube(*shape, &rng);
  return std::move(cube).value();
}

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// The pre-fusion total aggregation: cascade P1 one level at a time along
// every dimension, materializing each intermediate, with the scalar kernel
// table forced for the duration. This is what the grand total compiled to
// before the fused layer existed.
double BaselineGrandTotal(const vecube::Tensor& cube, vecube::OpCounter* ops) {
  vecube::internal::OverrideVecOpsForTesting(
      &vecube::internal::ScalarVecOps());
  vecube::Tensor current = cube;
  for (uint32_t m = 0; m < cube.ndim(); ++m) {
    while (current.extent(m) > 1) {
      auto next = vecube::PartialSum(current, m, ops);
      if (!next.ok()) {
        std::fprintf(stderr, "baseline PartialSum failed: %s\n",
                     next.status().ToString().c_str());
        std::exit(1);
      }
      current = std::move(*next);
    }
  }
  vecube::internal::OverrideVecOpsForTesting(nullptr);
  return current.raw()[0];
}

// The fused grand total (Eq. 16): one CascadeAnalysis over every
// dimension's total-aggregation steps.
vecube::Result<double> FusedGrandTotal(const vecube::Tensor& cube,
                                       vecube::OpCounter* ops) {
  std::vector<vecube::CascadeStep> steps;
  for (uint32_t m = 0; m < cube.ndim(); ++m) {
    for (uint32_t e = cube.extent(m); e > 1; e /= 2) {
      steps.push_back(vecube::CascadeStep{m, vecube::StepKind::kPartial});
    }
  }
  vecube::Tensor total;
  VECUBE_ASSIGN_OR_RETURN(total, vecube::CascadeAnalysis(cube, steps, ops));
  return total[0];
}

struct HeadlineResult {
  uint32_t ndim = 0;
  uint32_t extent = 0;
  uint64_t cells = 0;
  double baseline_ms = 0.0;
  double fused_ms = 0.0;
  uint64_t ops = 0;
  bool bit_identical = false;
  bool ops_equal = false;
};

// GB/s over the cube's input bytes: both paths read the same cube, so the
// column doubles as an apples-to-apples throughput figure whose ratio is
// exactly the speedup.
double InputGBps(uint64_t cells, double ms) {
  if (ms <= 0.0) return 0.0;
  return static_cast<double>(cells) * 8.0 / (ms * 1e6);
}

HeadlineResult RunHeadlineCase(uint32_t d, uint32_t n, int reps) {
  HeadlineResult r;
  r.ndim = d;
  r.extent = n;
  const vecube::Tensor cube = MakeCube(d, n, 5);
  r.cells = cube.size();

  vecube::OpCounter base_ops;
  double base_total = 0.0;
  r.baseline_ms = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    base_ops.Reset();
    const auto start = std::chrono::steady_clock::now();
    base_total = BaselineGrandTotal(cube, &base_ops);
    const double ms = MillisSince(start);
    if (ms < r.baseline_ms) r.baseline_ms = ms;
  }

  vecube::OpCounter fused_ops;
  double fused_total = 0.0;
  r.fused_ms = 1e300;
  for (int rep = 0; rep <= reps; ++rep) {  // extra rep 0 warms the heap
    fused_ops.Reset();
    const auto start = std::chrono::steady_clock::now();
    auto total = FusedGrandTotal(cube, &fused_ops);
    const double ms = MillisSince(start);
    if (!total.ok()) {
      std::fprintf(stderr, "fused grand total failed: %s\n",
                   total.status().ToString().c_str());
      std::exit(1);
    }
    fused_total = *total;
    if (rep > 0 && ms < r.fused_ms) r.fused_ms = ms;
  }

  r.bit_identical =
      std::memcmp(&base_total, &fused_total, sizeof(double)) == 0;
  r.ops_equal =
      base_ops.adds == fused_ops.adds && base_ops.muls == fused_ops.muls;
  r.ops = fused_ops.adds;
  return r;
}

void BM_PartialSumInnermostAxis(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  const vecube::Tensor cube = MakeCube(2, n, 1);
  for (auto _ : state) {
    auto out = vecube::PartialSum(cube, 1);
    benchmark::DoNotOptimize(out->raw());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(cube.size()));
}
BENCHMARK(BM_PartialSumInnermostAxis)->Arg(64)->Arg(256)->Arg(1024);

void BM_PartialSumOutermostAxis(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  const vecube::Tensor cube = MakeCube(2, n, 2);
  for (auto _ : state) {
    auto out = vecube::PartialSum(cube, 0);
    benchmark::DoNotOptimize(out->raw());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(cube.size()));
}
BENCHMARK(BM_PartialSumOutermostAxis)->Arg(64)->Arg(256)->Arg(1024);

void BM_PartialPairFused(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  const vecube::Tensor cube = MakeCube(2, n, 3);
  for (auto _ : state) {
    vecube::Tensor p, r;
    auto st = vecube::PartialPair(cube, 1, &p, &r);
    benchmark::DoNotOptimize(p.raw());
    benchmark::DoNotOptimize(r.raw());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(cube.size()));
}
BENCHMARK(BM_PartialPairFused)->Arg(64)->Arg(256)->Arg(1024);

void BM_SynthesizePair(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  const vecube::Tensor cube = MakeCube(2, n, 4);
  vecube::Tensor p, r;
  auto st = vecube::PartialPair(cube, 1, &p, &r);
  for (auto _ : state) {
    auto out = vecube::SynthesizePair(p, r, 1);
    benchmark::DoNotOptimize(out->raw());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(cube.size()));
}
BENCHMARK(BM_SynthesizePair)->Arg(64)->Arg(256)->Arg(1024);

void BM_TotalAggregation(benchmark::State& state) {
  const uint32_t d = static_cast<uint32_t>(state.range(0));
  const uint32_t n = static_cast<uint32_t>(state.range(1));
  const vecube::Tensor cube = MakeCube(d, n, 5);
  for (auto _ : state) {
    auto total = FusedGrandTotal(cube, nullptr);
    benchmark::DoNotOptimize(*total);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(cube.size()));
}
BENCHMARK(BM_TotalAggregation)
    ->Args({2, 256})
    ->Args({3, 64})
    ->Args({4, 16})
    ->Args({6, 8});

void BM_FullWaveletDecomposition(benchmark::State& state) {
  // Analysis of the whole cube into the wavelet basis (every block of the
  // cascade computed once).
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  auto shape = vecube::CubeShape::MakeSquare(2, n);
  vecube::Rng rng(6);
  auto cube = vecube::UniformIntegerCube(*shape, &rng);
  for (auto _ : state) {
    vecube::Tensor low = *cube;
    while (low.extent(0) > 1 || low.extent(1) > 1) {
      for (uint32_t m = 0; m < 2; ++m) {
        if (low.extent(m) < 2) continue;
        vecube::Tensor p, r;
        auto st = vecube::PartialPair(low, m, &p, &r);
        benchmark::DoNotOptimize(r.raw());
        low = std::move(p);
      }
    }
    benchmark::DoNotOptimize(low.raw());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(cube->size()));
}
BENCHMARK(BM_FullWaveletDecomposition)->Arg(64)->Arg(256)->Arg(1024);

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int reps = 3;
  std::vector<char*> bench_argv;
  bench_argv.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--reps=", 7) == 0) {
      reps = std::atoi(argv[i] + 7);
      if (reps < 1) reps = 1;
    } else {
      bench_argv.push_back(argv[i]);
    }
  }

  // Headline: fused+vectorized total aggregation vs the step-at-a-time
  // scalar baseline. The 64^4 cube (2^24 cells) is the acceptance case;
  // smoke mode shrinks it so CI can run the comparison in milliseconds.
  std::vector<std::pair<uint32_t, uint32_t>> cases;  // (ndim, extent)
  if (smoke) {
    cases = {{4, 16}};
  } else {
    cases = {{4, 16}, {3, 64}, {4, 64}};
  }

  std::printf("fused vs baseline total aggregation (dispatch: %s, best of "
              "%d)\n",
              vecube::VecOps().name, reps);
  std::printf("%-10s %12s %14s %14s %10s %10s %9s\n", "cube", "cells",
              "baseline ms", "fused ms", "base GB/s", "fused GB/s",
              "speedup");

  std::vector<HeadlineResult> results;
  bool ok = true;
  for (const auto& [d, n] : cases) {
    HeadlineResult r = RunHeadlineCase(d, n, reps);
    results.push_back(r);
    char label[32];
    std::snprintf(label, sizeof(label), "%u^%u", n, d);
    std::printf("%-10s %12llu %14.3f %14.3f %10.2f %10.2f %8.2fx\n", label,
                static_cast<unsigned long long>(r.cells), r.baseline_ms,
                r.fused_ms, InputGBps(r.cells, r.baseline_ms),
                InputGBps(r.cells, r.fused_ms), r.baseline_ms / r.fused_ms);
    if (!r.bit_identical || !r.ops_equal) {
      std::fprintf(stderr,
                   "FAIL %s: bit_identical=%d ops_equal=%d — fused path "
                   "diverged from baseline\n",
                   label, r.bit_identical ? 1 : 0, r.ops_equal ? 1 : 0);
      ok = false;
    }
  }

  std::FILE* json = std::fopen("BENCH_kernels.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n  \"bench\": \"kernels\",\n");
    std::fprintf(json, "  \"dispatch\": \"%s\",\n", vecube::VecOps().name);
    std::fprintf(json, "  \"reps\": %d,\n", reps);
    std::fprintf(json, "  \"cases\": [\n");
    for (size_t i = 0; i < results.size(); ++i) {
      const HeadlineResult& r = results[i];
      std::fprintf(
          json,
          "    {\"name\": \"grand_total\", \"ndim\": %u, \"extent\": %u, "
          "\"cells\": %llu, \"ops\": %llu, \"baseline_ms\": %.3f, "
          "\"fused_ms\": %.3f, \"baseline_gbps\": %.3f, \"fused_gbps\": "
          "%.3f, \"speedup\": %.3f, \"bit_identical\": %s, \"ops_equal\": "
          "%s}%s\n",
          r.ndim, r.extent, static_cast<unsigned long long>(r.cells),
          static_cast<unsigned long long>(r.ops), r.baseline_ms, r.fused_ms,
          InputGBps(r.cells, r.baseline_ms), InputGBps(r.cells, r.fused_ms),
          r.baseline_ms / r.fused_ms, r.bit_identical ? "true" : "false",
          r.ops_equal ? "true" : "false",
          i + 1 < results.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("wrote BENCH_kernels.json\n");
  } else {
    std::fprintf(stderr, "could not write BENCH_kernels.json\n");
    ok = false;
  }
  if (!ok) return 1;
  if (smoke) return 0;

  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
