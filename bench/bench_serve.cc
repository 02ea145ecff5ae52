// Concurrent serving benchmark: replays a Zipf-skewed view-query workload
// through the sharded ViewCache at several thread counts and reports hit
// rate and assembly operations saved versus uncached serving.
//
// Each worker owns a private AssemblyEngine (the engine's memo tables are
// not thread-safe) over the shared read-only store; all workers share one
// ViewCache. The query sequence is pre-generated deterministically and
// partitioned across workers, so the set of views served is identical at
// every thread count; assembly itself is deterministic, so whichever
// worker wins the single-flight ticket for a view, every reader sees
// bit-identical data — verified against a single-threaded reference at
// the end.
//
// A second, open-loop SLO phase replays a prefix of the traffic on a
// Poisson arrival schedule through the full robustness stack
// (AdmissionController + per-worker ElementServer) with tight deadlines
// and a degradation-eligible slice, gating that every query resolves to
// exactly one of ok / deadline_exceeded / shed / degraded, that exact
// answers stay bit-identical, and that degraded answers honor their L2
// bound. Reports p50/p99 served latency and shed/degraded rates.
//
// The baseline is Σ PlanCost(query) over the whole sequence: the ops an
// uncached server would spend (measured ops == plan cost is a library
// invariant, tested elsewhere). Every run must satisfy the serving
// accounting identity
//
//   ops_saved + ops_executed == baseline_ops
//
// and — absent evictions — ops_executed must be identical at every
// thread count: single-flight miss coalescing means concurrency changes
// who assembles, never how much is assembled. Workers start behind a
// latch so the timed region excludes thread spawn. Emits
// BENCH_serve.json.
//
// Usage: bench_serve [extent] [ndim] [queries] [threads]
//        bench_serve --smoke
//   extent   per-dimension domain size     (default 16)
//   ndim     number of dimensions          (default 4)
//   queries  total queries per run         (default 40000)
//   threads  max worker thread count       (default: hardware concurrency)
//   --smoke  small CI workload (8^3 cube, 4000 queries, <=4 threads) with
//            a relaxed scaling gate tolerant of noisy shared runners
//
// Exit status is nonzero on any correctness failure, on a broken
// accounting identity, on a hit rate below 90% when queries >= 1000, and
// on multi-threaded runs failing the scaling gate (strictly faster than
// one thread in full runs; within 1.5x in --smoke runs).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <algorithm>
#include <cmath>

#include "core/assembly.h"
#include "core/basis.h"
#include "core/computer.h"
#include "cube/shape.h"
#include "cube/synthetic.h"
#include "serve/admission.h"
#include "serve/serving.h"
#include "serve/view_cache.h"
#include "util/query_context.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/population.h"

namespace {

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Per-worker outcome tally of the open-loop SLO phase. Every issued
/// query lands in exactly one bucket; `other` (any status outside the
/// robustness contract) fails the run.
struct SloTally {
  uint64_t ok = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t shed = 0;
  uint64_t degraded = 0;
  uint64_t other = 0;
  std::vector<double> served_latency_ms;  // ok + degraded only
};

double Percentile(std::vector<double>* sorted_in_place, double p) {
  if (sorted_in_place->empty()) return 0.0;
  std::sort(sorted_in_place->begin(), sorted_in_place->end());
  const size_t idx = static_cast<size_t>(
      p * static_cast<double>(sorted_in_place->size() - 1));
  return (*sorted_in_place)[idx];
}

struct RunResult {
  uint32_t threads = 1;
  double best_ms = 0.0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t coalesced_hits = 0;
  uint64_t ops_saved = 0;
  uint64_t ops_executed = 0;
  uint64_t evictions = 0;

  [[nodiscard]] double HitRate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const uint32_t extent =
      smoke ? 8 : (argc > 1 ? std::atoi(argv[1]) : 16);
  const uint32_t ndim = smoke ? 3 : (argc > 2 ? std::atoi(argv[2]) : 4);
  const uint64_t queries =
      smoke ? 4000 : (argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 40000);
  const uint32_t hardware = vecube::ThreadPool::DefaultThreadCount();
  const uint32_t max_threads =
      smoke ? (hardware < 4 ? hardware : 4)
            : (argc > 4 ? std::atoi(argv[4]) : hardware);
  constexpr int kReps = 3;

  auto shape_result = vecube::CubeShape::MakeSquare(ndim, extent);
  if (!shape_result.ok()) {
    std::fprintf(stderr, "bad shape: %s\n",
                 shape_result.status().ToString().c_str());
    return 1;
  }
  const vecube::CubeShape shape = *shape_result;
  std::printf("serving bench%s: %u^%u cube (%llu cells), cube-only store, "
              "%llu Zipf(1.1) queries\n",
              smoke ? " (smoke)" : "", extent, ndim,
              static_cast<unsigned long long>(shape.volume()),
              static_cast<unsigned long long>(queries));

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

  auto population = vecube::ZipfViewPopulation(shape, &rng, 1.1);
  if (!population.ok()) {
    std::fprintf(stderr, "population failed: %s\n",
                 population.status().ToString().c_str());
    return 1;
  }

  // Pre-generate the query sequence so every run serves the same traffic.
  std::vector<vecube::ElementId> sequence;
  sequence.reserve(queries);
  for (uint64_t q = 0; q < queries; ++q) {
    sequence.push_back(population->Sample(&rng));
  }

  // Uncached baseline and single-threaded reference answers.
  vecube::AssemblyEngine reference(&*store);
  uint64_t baseline_ops = 0;
  std::map<vecube::ElementId, vecube::Tensor> expected;
  for (const vecube::ElementId& view : sequence) {
    baseline_ops += reference.PlanCost(view);
    if (!expected.count(view)) {
      auto data = reference.Assemble(view);
      if (!data.ok()) {
        std::fprintf(stderr, "reference assembly failed: %s\n",
                     data.status().ToString().c_str());
        return 1;
      }
      expected.emplace(view, std::move(data).value());
    }
  }
  std::printf("  %zu distinct views, baseline %llu assembly ops\n",
              expected.size(),
              static_cast<unsigned long long>(baseline_ops));

  std::vector<uint32_t> thread_counts;
  for (uint32_t t : {1u, 4u, 8u}) {
    if (t == 1 || t <= max_threads) thread_counts.push_back(t);
  }

  std::vector<RunResult> results;
  for (uint32_t threads : thread_counts) {
    RunResult run;
    run.threads = threads;
    run.best_ms = 1e300;
    double checksum = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      vecube::ViewCacheOptions cache_options;
      cache_options.enabled = true;
      vecube::ViewCache cache(cache_options);

      std::vector<uint64_t> ops_by_thread(threads, 0);
      std::vector<double> sum_by_thread(threads, 0.0);
      std::vector<int> failed(threads, 0);
      // Start latch: every worker parks behind `go` once it has built its
      // engine, so the timed region measures serving, not thread spawn.
      std::atomic<uint32_t> ready{0};
      std::atomic<bool> go{false};
      std::chrono::steady_clock::time_point start;
      double ms = 0.0;
      {
        std::vector<std::thread> workers;
        workers.reserve(threads);
        for (uint32_t w = 0; w < threads; ++w) {
          workers.emplace_back([&, w]() {
            vecube::AssemblyEngine engine(&*store);
            ready.fetch_add(1, std::memory_order_acq_rel);
            while (!go.load(std::memory_order_acquire)) {
              std::this_thread::yield();  // oversubscribed boxes: free the core
            }
            const uint64_t lo = queries * w / threads;
            const uint64_t hi = queries * (w + 1) / threads;
            for (uint64_t q = lo; q < hi; ++q) {
              const vecube::ElementId& view = sequence[q];
              double cell0 = 0.0;
              for (;;) {
                vecube::ViewCache::LookupOutcome outcome =
                    cache.LookupOrBegin(view);
                if (outcome.hit) {
                  cell0 = outcome.hit.At(uint64_t{0});
                  break;
                }
                if (!outcome.fill.leader()) {
                  vecube::ViewCache::FillWait wait =
                      cache.WaitFill(outcome.fill);
                  if (!wait.status.ok()) continue;  // leader aborted — retry
                  cell0 = (*wait.data)[0];
                  break;
                }
                vecube::OpCounter ops;
                auto data = engine.Assemble(view, &ops);
                if (!data.ok()) {
                  cache.AbortFill(std::move(outcome.fill));
                  failed[w] = 1;
                  return;
                }
                ops_by_thread[w] += ops.adds;
                auto served = cache.CompleteFill(std::move(outcome.fill),
                                                 std::move(data).value(),
                                                 engine.PlanCost(view));
                cell0 = (*served)[0];
                break;
              }
              sum_by_thread[w] += cell0;
            }
          });
        }
        while (ready.load(std::memory_order_acquire) < threads) {
          std::this_thread::yield();
        }
        start = std::chrono::steady_clock::now();
        go.store(true, std::memory_order_release);
        for (std::thread& worker : workers) worker.join();
        ms = MillisSince(start);
      }
      for (uint32_t w = 0; w < threads; ++w) {
        if (failed[w]) {
          std::fprintf(stderr, "FAIL: worker assembly error\n");
          return 1;
        }
      }
      // Snapshot counters before the verification pass below adds its own
      // lookups, so the reported numbers describe the timed workload only.
      const vecube::ServeMetrics metrics = cache.Metrics();

      // Accounting identity: every query either paid its plan cost
      // (leader miss) or saved it (hit / coalesced follower).
      if (metrics.assembly_ops_saved + metrics.assembly_ops_executed !=
          baseline_ops) {
        std::fprintf(stderr,
                     "FAIL: ops_saved %llu + ops_executed %llu != "
                     "baseline %llu at %u threads\n",
                     static_cast<unsigned long long>(
                         metrics.assembly_ops_saved),
                     static_cast<unsigned long long>(
                         metrics.assembly_ops_executed),
                     static_cast<unsigned long long>(baseline_ops), threads);
        return 1;
      }
      uint64_t measured = 0;
      for (uint32_t w = 0; w < threads; ++w) measured += ops_by_thread[w];
      if (measured != metrics.assembly_ops_executed) {
        std::fprintf(stderr,
                     "FAIL: measured assembly ops %llu != accounted "
                     "ops_executed %llu\n",
                     static_cast<unsigned long long>(measured),
                     static_cast<unsigned long long>(
                         metrics.assembly_ops_executed));
        return 1;
      }

      // Bit-exact check: every entry still resident matches the reference.
      uint64_t verified = 0;
      for (const auto& [id, tensor] : expected) {
        auto cached = cache.Lookup(id);
        if (cached == nullptr) continue;  // evicted — nothing to compare
        if (cached->data() != tensor.data()) {
          std::fprintf(stderr, "FAIL: cached %s differs from reference\n",
                       id.ToString().c_str());
          return 1;
        }
        ++verified;
      }
      if (verified == 0) {
        std::fprintf(stderr, "FAIL: nothing resident to verify\n");
        return 1;
      }

      double total = 0.0;
      for (uint32_t w = 0; w < threads; ++w) total += sum_by_thread[w];
      if (checksum == 0.0) {
        checksum = total;
      } else if (total != checksum) {
        std::fprintf(stderr, "FAIL: checksum drifted across reps\n");
        return 1;
      }

      if (ms < run.best_ms) {
        run.best_ms = ms;
        run.hits = metrics.hits;
        run.misses = metrics.misses;
        run.coalesced_hits = metrics.coalesced_hits;
        run.ops_saved = metrics.assembly_ops_saved;
        run.ops_executed = metrics.assembly_ops_executed;
        run.evictions = metrics.evictions;
      }
    }
    results.push_back(run);
    std::printf("  threads=%-3u best of %d: %10.2f ms   hit_rate=%.4f "
                "ops_saved=%llu executed=%llu coalesced=%llu "
                "evictions=%llu\n",
                run.threads, kReps, run.best_ms, run.HitRate(),
                static_cast<unsigned long long>(run.ops_saved),
                static_cast<unsigned long long>(run.ops_executed),
                static_cast<unsigned long long>(run.coalesced_hits),
                static_cast<unsigned long long>(run.evictions));
  }

  bool any_evictions = false;
  for (const RunResult& run : results) {
    if (run.evictions > 0) any_evictions = true;
  }
  for (const RunResult& run : results) {
    if (queries >= 1000 && run.HitRate() < 0.90) {
      std::fprintf(stderr,
                   "FAIL: hit rate %.4f below 0.90 at %u threads\n",
                   run.HitRate(), run.threads);
      return 1;
    }
    // Single-flight makes the assembled work independent of concurrency;
    // only eviction-driven re-assembly (timing dependent) excuses drift.
    if (!any_evictions && run.ops_executed != results[0].ops_executed) {
      std::fprintf(stderr,
                   "FAIL: ops_executed %llu at %u threads != %llu at 1 "
                   "thread (misses not coalesced?)\n",
                   static_cast<unsigned long long>(run.ops_executed),
                   run.threads,
                   static_cast<unsigned long long>(results[0].ops_executed));
      return 1;
    }
  }

  // Scaling gate: the contention-free hit path must not anti-scale. Full
  // runs demand a strict win over one thread; smoke runs (tiny workload,
  // shared CI runners) only reject catastrophic regressions.
  const double tolerance = smoke ? 1.5 : 1.0;
  for (const RunResult& run : results) {
    if (run.threads == 1 || run.threads > hardware) continue;
    if (run.best_ms >= results[0].best_ms * tolerance) {
      std::fprintf(stderr,
                   "FAIL: %u threads took %.2f ms vs %.2f ms single-threaded "
                   "(gate %.2fx)\n",
                   run.threads, run.best_ms, results[0].best_ms, tolerance);
      return 1;
    }
  }

  // ------------------------------------------------------------------
  // Open-loop SLO phase (DESIGN.md §13): a pre-generated Poisson arrival
  // schedule replays a prefix of the same Zipf traffic through the full
  // robustness stack — AdmissionController in front, per-worker
  // ElementServer behind, shared fresh ViewCache — with tight per-query
  // deadlines. Arrivals are anchored to the schedule, not to completions,
  // so an overloaded server must shed or miss deadlines rather than
  // silently serializing. Every 8th query opts into degradation with a
  // deliberately tiny op budget, so some leaders answer approximately;
  // their returned L2 bound is verified against the exact reference
  // tensor. Gates: every query resolves to exactly one of
  // ok / deadline_exceeded / shed / degraded; exact answers stay
  // bit-identical to the reference (degraded answers are excluded from
  // that identity and checked against their bound instead).
  // ------------------------------------------------------------------
  // Robustness, not throughput: oversubscribing a small box is fine (and
  // useful — it creates the queueing the admission controller exists for).
  const uint32_t slo_threads = std::max(4u, thread_counts.back());
  const uint64_t slo_queries =
      queries < (smoke ? 2000ull : 8000ull) ? queries
                                            : (smoke ? 2000ull : 8000ull);
  const double mean_interarrival_us = smoke ? 100.0 : 50.0;
  const std::chrono::milliseconds slo_deadline{smoke ? 25 : 10};
  constexpr uint64_t kDegradedOpsBudget = 48;  // << any plan cost here

  std::vector<std::chrono::microseconds> arrival(slo_queries);
  {
    double at_us = 0.0;
    for (uint64_t q = 0; q < slo_queries; ++q) {
      // Exponential inter-arrival via inversion (1 - U in (0, 1]).
      at_us += -mean_interarrival_us * std::log(1.0 - rng.UniformDouble());
      arrival[q] = std::chrono::microseconds(static_cast<int64_t>(at_us));
    }
  }

  vecube::ViewCacheOptions slo_cache_options;
  slo_cache_options.enabled = true;
  vecube::ViewCache slo_cache(slo_cache_options);
  vecube::AdmissionOptions admission_options;
  admission_options.max_inflight = slo_threads > 1 ? slo_threads / 2 : 1;
  admission_options.max_queue = 4;
  admission_options.retry_after = std::chrono::milliseconds(5);
  vecube::AdmissionController admission(admission_options);

  std::vector<SloTally> tallies(slo_threads);
  std::vector<std::string> slo_errors(slo_threads);
  {
    std::atomic<uint32_t> ready{0};
    std::atomic<bool> go{false};
    std::chrono::steady_clock::time_point slo_start;
    std::vector<std::thread> workers;
    workers.reserve(slo_threads);
    for (uint32_t w = 0; w < slo_threads; ++w) {
      workers.emplace_back([&, w]() {
        vecube::AssemblyEngine engine(&*store);
        vecube::ElementServer server(&engine, &*store, &slo_cache);
        SloTally& tally = tallies[w];
        ready.fetch_add(1, std::memory_order_acq_rel);
        while (!go.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        for (uint64_t q = w; q < slo_queries; q += slo_threads) {
          const std::chrono::steady_clock::time_point due =
              slo_start + arrival[q];
          std::this_thread::sleep_until(due);  // open-loop: arrivals fixed
          const vecube::ElementId& view = sequence[q];
          vecube::QueryContext ctx =
              vecube::QueryContext::WithDeadline(due + slo_deadline);
          // Every 8th query opts in; q == 0 as well, since the very first
          // arrival is all but certain to lead its fill on a cold cache
          // and therefore actually exercise the degradation path.
          const bool degrade_eligible = q % 8 == 7 || q == 0;
          if (degrade_eligible) {
            ctx.set_allow_degraded(true).set_ops_budget(kDegradedOpsBudget);
          }
          auto permit = admission.Admit(ctx);
          if (!permit.ok()) {
            if (permit.status().IsResourceExhausted()) {
              slo_cache.RecordShed();
              ++tally.shed;
            } else if (permit.status().IsDeadlineExceeded() ||
                       permit.status().IsCancelled()) {
              slo_cache.RecordDeadlineExceeded();
              ++tally.deadline_exceeded;
            } else {
              ++tally.other;
              slo_errors[w] = permit.status().ToString();
            }
            continue;
          }
          auto answer = server.Serve(view, ctx);
          if (!answer.ok()) {
            if (answer.status().IsDeadlineExceeded() ||
                answer.status().IsCancelled()) {
              ++tally.deadline_exceeded;  // ElementServer recorded it
            } else {
              ++tally.other;
              slo_errors[w] = answer.status().ToString();
            }
            continue;
          }
          const double latency_ms =
              std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - due)
                  .count();
          const vecube::Tensor& exact = expected.at(view);
          if (answer->degraded) {
            // Soundness of the degradation contract: the actual L2 error
            // must not exceed the bound the answer carried.
            double err2 = 0.0;
            for (uint64_t i = 0; i < exact.size(); ++i) {
              const double d = answer->data[i] - exact[i];
              err2 += d * d;
            }
            const double err = std::sqrt(err2);
            if (err > answer->l2_bound + 1e-6 * (1.0 + answer->l2_bound)) {
              ++tally.other;
              slo_errors[w] = "degraded answer L2 error " +
                              std::to_string(err) + " exceeds bound " +
                              std::to_string(answer->l2_bound);
              continue;
            }
            ++tally.degraded;
          } else {
            // Exact answers stay in the bit-exactness identity.
            if (answer->data.data() != exact.data()) {
              ++tally.other;
              slo_errors[w] = "exact answer differs from reference for " +
                              view.ToString();
              continue;
            }
            ++tally.ok;
          }
          tally.served_latency_ms.push_back(latency_ms);
        }
      });
    }
    while (ready.load(std::memory_order_acquire) < slo_threads) {
      std::this_thread::yield();
    }
    slo_start = std::chrono::steady_clock::now();
    go.store(true, std::memory_order_release);
    for (std::thread& worker : workers) worker.join();
  }
  admission.Shutdown();
  if (!admission.Drain(std::chrono::milliseconds(1000))) {
    std::fprintf(stderr, "FAIL: admission controller did not drain\n");
    return 1;
  }

  SloTally slo;
  std::vector<double> latencies;
  for (uint32_t w = 0; w < slo_threads; ++w) {
    const SloTally& tally = tallies[w];
    if (tally.other > 0) {
      std::fprintf(stderr, "FAIL: SLO worker %u: %s\n", w,
                   slo_errors[w].c_str());
      return 1;
    }
    slo.ok += tally.ok;
    slo.deadline_exceeded += tally.deadline_exceeded;
    slo.shed += tally.shed;
    slo.degraded += tally.degraded;
    latencies.insert(latencies.end(), tally.served_latency_ms.begin(),
                     tally.served_latency_ms.end());
  }
  // The robustness accounting identity: every issued query resolved to
  // exactly one contract outcome — no unbounded waits, no lost queries.
  if (slo.ok + slo.deadline_exceeded + slo.shed + slo.degraded !=
      slo_queries) {
    std::fprintf(stderr,
                 "FAIL: ok %llu + deadline %llu + shed %llu + degraded %llu "
                 "!= issued %llu\n",
                 static_cast<unsigned long long>(slo.ok),
                 static_cast<unsigned long long>(slo.deadline_exceeded),
                 static_cast<unsigned long long>(slo.shed),
                 static_cast<unsigned long long>(slo.degraded),
                 static_cast<unsigned long long>(slo_queries));
    return 1;
  }
  const vecube::ServeMetrics slo_metrics = slo_cache.Metrics();
  if (slo_metrics.shed != slo.shed || slo_metrics.degraded != slo.degraded) {
    std::fprintf(stderr,
                 "FAIL: ServeMetrics (shed %llu, degraded %llu) disagree "
                 "with outcomes (shed %llu, degraded %llu)\n",
                 static_cast<unsigned long long>(slo_metrics.shed),
                 static_cast<unsigned long long>(slo_metrics.degraded),
                 static_cast<unsigned long long>(slo.shed),
                 static_cast<unsigned long long>(slo.degraded));
    return 1;
  }
  const double p50_ms = Percentile(&latencies, 0.50);
  const double p99_ms = Percentile(&latencies, 0.99);
  const double shed_rate =
      static_cast<double>(slo.shed) / static_cast<double>(slo_queries);
  const double degraded_rate =
      static_cast<double>(slo.degraded) / static_cast<double>(slo_queries);
  std::printf(
      "  SLO: %llu queries, deadline %lldms, %u workers, inflight<=%u  "
      "ok=%llu deadline_exceeded=%llu shed=%llu degraded=%llu  "
      "p50=%.3fms p99=%.3fms follower_retries=%llu\n",
      static_cast<unsigned long long>(slo_queries),
      static_cast<long long>(slo_deadline.count()), slo_threads,
      admission_options.max_inflight,
      static_cast<unsigned long long>(slo.ok),
      static_cast<unsigned long long>(slo.deadline_exceeded),
      static_cast<unsigned long long>(slo.shed),
      static_cast<unsigned long long>(slo.degraded), p50_ms, p99_ms,
      static_cast<unsigned long long>(slo_metrics.follower_retries));

  std::FILE* json = std::fopen("BENCH_serve.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_serve.json\n");
    return 1;
  }
  std::fprintf(json, "{\n");
  std::fprintf(json, "  \"bench\": \"concurrent_view_serving\",\n");
  std::fprintf(json, "  \"extent\": %u,\n  \"ndim\": %u,\n", extent, ndim);
  std::fprintf(json, "  \"queries\": %llu,\n",
               static_cast<unsigned long long>(queries));
  std::fprintf(json, "  \"distinct_views\": %zu,\n", expected.size());
  std::fprintf(json, "  \"zipf_skew\": 1.1,\n");
  std::fprintf(json, "  \"hardware_threads\": %u,\n", hardware);
  std::fprintf(json, "  \"baseline_ops\": %llu,\n",
               static_cast<unsigned long long>(baseline_ops));
  std::fprintf(json, "  \"runs\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const RunResult& run = results[i];
    std::fprintf(json,
                 "    {\"threads\": %u, \"best_ms\": %.3f, \"hits\": %llu, "
                 "\"misses\": %llu, \"hit_rate\": %.4f, "
                 "\"coalesced_hits\": %llu, \"ops_saved\": %llu, "
                 "\"ops_executed\": %llu, \"evictions\": %llu}%s\n",
                 run.threads, run.best_ms,
                 static_cast<unsigned long long>(run.hits),
                 static_cast<unsigned long long>(run.misses), run.HitRate(),
                 static_cast<unsigned long long>(run.coalesced_hits),
                 static_cast<unsigned long long>(run.ops_saved),
                 static_cast<unsigned long long>(run.ops_executed),
                 static_cast<unsigned long long>(run.evictions),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n");
  std::fprintf(json, "  \"slo\": {\n");
  std::fprintf(json, "    \"queries\": %llu,\n",
               static_cast<unsigned long long>(slo_queries));
  std::fprintf(json, "    \"deadline_ms\": %lld,\n",
               static_cast<long long>(slo_deadline.count()));
  std::fprintf(json, "    \"workers\": %u,\n", slo_threads);
  std::fprintf(json, "    \"max_inflight\": %u,\n",
               admission_options.max_inflight);
  std::fprintf(json, "    \"mean_interarrival_us\": %.1f,\n",
               mean_interarrival_us);
  std::fprintf(json, "    \"ok\": %llu,\n",
               static_cast<unsigned long long>(slo.ok));
  std::fprintf(json, "    \"deadline_exceeded\": %llu,\n",
               static_cast<unsigned long long>(slo.deadline_exceeded));
  std::fprintf(json, "    \"shed\": %llu,\n",
               static_cast<unsigned long long>(slo.shed));
  std::fprintf(json, "    \"degraded\": %llu,\n",
               static_cast<unsigned long long>(slo.degraded));
  std::fprintf(json, "    \"follower_retries\": %llu,\n",
               static_cast<unsigned long long>(slo_metrics.follower_retries));
  std::fprintf(json, "    \"p50_ms\": %.3f,\n", p50_ms);
  std::fprintf(json, "    \"p99_ms\": %.3f,\n", p99_ms);
  std::fprintf(json, "    \"shed_rate\": %.4f,\n", shed_rate);
  std::fprintf(json, "    \"degraded_rate\": %.4f\n", degraded_rate);
  std::fprintf(json, "  }\n");
  std::fprintf(json, "}\n");
  std::fclose(json);
  std::printf("  wrote BENCH_serve.json\n");
  return 0;
}
