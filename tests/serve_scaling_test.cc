// Serving scaling tests: the contention-free hit path, and the admission
// fast path in front of it, hammered from many threads. Two properties
// are pinned:
//
//  1. Exactness — the lock-free hit counters lose nothing: after T
//     threads each perform R hits, Metrics().hits == T*R, and the
//     per-entry ops_saved credit matches to the operation. Runs under
//     TSan in CI (the suite name carries "Serve"/"Stress" into the tsan
//     job's -R filter), which also proves the pin/publish protocol race
//     free.
//
//  2. Scaling sanity — in a Release build on real hardware, adding
//     threads to a pure-hit workload, or to pure Admit + Release with a
//     slot per thread, must not reduce aggregate throughput (the seed's
//     per-shard mutex + shared_ptr refcount hit path anti-scaled: 8
//     threads took 3.5x the wall of 1). Skipped
//     under sanitizers (instrumentation serializes atomics) and on
//     single-core machines (time slicing makes any multi-thread wall a
//     scheduling artifact, not a cache property).

#include "serve/view_cache.h"

#include <gtest/gtest.h>
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/element_id.h"
#include "cube/shape.h"
#include "cube/tensor.h"
#include "serve/admission.h"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define VECUBE_TEST_UNDER_SANITIZER 1
#endif
#endif
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define VECUBE_TEST_UNDER_SANITIZER 1
#endif

namespace vecube {
namespace {

Tensor MakeTensor(uint32_t cells, double value) {
  auto tensor =
      Tensor::FromData({cells}, std::vector<double>(cells, value));
  EXPECT_TRUE(tensor.ok());
  return std::move(tensor).value();
}

std::vector<ElementId> WorkingSet(uint32_t count) {
  auto shape = CubeShape::Make({16, 16});
  EXPECT_TRUE(shape.ok());
  std::vector<ElementId> ids;
  for (uint32_t a = 0; a <= 4 && ids.size() < count; ++a) {
    for (uint32_t b = 0; b <= 4 && ids.size() < count; ++b) {
      auto id = ElementId::Intermediate({a, b}, *shape);
      EXPECT_TRUE(id.ok());
      ids.push_back(*id);
    }
  }
  EXPECT_EQ(ids.size(), count);
  return ids;
}

// Pre-populates `cache` with `ids`, each costing `cost` ops to rebuild.
// Small working set + default capacity: nothing can evict, so every
// subsequent lookup is a hit and the expected counters are exact.
void Populate(ViewCache* cache, const std::vector<ElementId>& ids,
              uint64_t cost) {
  for (const ElementId& id : ids) {
    ASSERT_NE(cache->Insert(id, MakeTensor(8, 1.0), cost), nullptr);
  }
}

// Binds the calling thread to one CPU.
void PinToCpu(uint32_t cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

// Runs `threads` workers, each performing `rounds` pinned hits over
// `ids`, and returns the wall time of the hammer region (spawn excluded
// via a start latch). Worker w runs on CPU w % hardware_concurrency: left
// to the scheduler, new threads can share one CPU for the first few
// milliseconds, and the wall then measures that placement, not the cache.
double HammerMs(ViewCache* cache, const std::vector<ElementId>& ids,
                uint32_t threads, uint32_t rounds) {
  const uint32_t hardware =
      std::max(1u, std::thread::hardware_concurrency());
  std::atomic<uint32_t> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (uint32_t w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      PinToCpu(w % hardware);
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      double sink = 0.0;
      for (uint32_t round = 0; round < rounds; ++round) {
        const ElementId& id = ids[(w + round) % ids.size()];
        ViewCache::ReadHandle handle = cache->LookupPinned(id);
        ASSERT_TRUE(handle) << "pure-hit workload missed";
        sink += handle.At(uint64_t{0});
      }
      EXPECT_GT(sink, 0.0);
    });
  }
  while (ready.load(std::memory_order_acquire) < threads) {
    std::this_thread::yield();
  }
  const auto start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (std::thread& worker : workers) worker.join();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

TEST(ServeScalingStressTest, ConcurrentHitsAreCountedExactly) {
  constexpr uint32_t kThreads = 8;
  constexpr uint32_t kRounds = 20000;
  constexpr uint64_t kCost = 13;
  const std::vector<ElementId> ids = WorkingSet(8);

  ViewCache cache;
  Populate(&cache, ids, kCost);
  const ServeMetrics seeded = cache.Metrics();
  ASSERT_EQ(seeded.entries, ids.size());
  ASSERT_EQ(seeded.hits, 0u);

  HammerMs(&cache, ids, kThreads, kRounds);

  // Lock-free counters are exact, not approximate: every one of the
  // threads x rounds hits is accounted, with its full ops_saved credit.
  const ServeMetrics metrics = cache.Metrics();
  EXPECT_EQ(metrics.hits, uint64_t{kThreads} * kRounds);
  EXPECT_EQ(metrics.misses, 0u);
  EXPECT_EQ(metrics.evictions, 0u);
  EXPECT_EQ(metrics.assembly_ops_saved, uint64_t{kThreads} * kRounds * kCost);
}

TEST(ServeScalingStressTest, SharedPtrCompatPathCountsExactlyToo) {
  constexpr uint32_t kThreads = 4;
  constexpr uint32_t kRounds = 5000;
  const std::vector<ElementId> ids = WorkingSet(4);

  ViewCache cache;
  Populate(&cache, ids, /*cost=*/3);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (uint32_t w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      for (uint32_t round = 0; round < kRounds; ++round) {
        auto handle = cache.Lookup(ids[(w + round) % ids.size()]);
        ASSERT_NE(handle, nullptr);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(cache.Metrics().hits, uint64_t{kThreads} * kRounds);
}

// Release-only, bare-metal-only: the whole point of the contention-free
// read design. Per-thread work is FIXED, so perfect scaling keeps wall
// time flat as threads grow; the seed's mutex hit path grew it ~3.5x by
// 8 threads. The 2.0x gate rejects any contention collapse while
// tolerating scheduler noise on shared CI runners.
TEST(ServeScalingStressTest, FixedPerThreadWorkDoesNotAntiScale) {
#if !defined(NDEBUG) || defined(VECUBE_TEST_UNDER_SANITIZER)
  GTEST_SKIP() << "timing gate is only meaningful in Release without "
                  "sanitizer instrumentation";
#else
  const uint32_t hardware = std::thread::hardware_concurrency();
  if (hardware < 2) {
    GTEST_SKIP() << "single-core machine: multi-thread wall measures the "
                    "scheduler, not the cache";
  }
  const uint32_t threads = hardware < 8 ? hardware : 8;
  constexpr uint32_t kRounds = 200000;
  const std::vector<ElementId> ids = WorkingSet(8);

  ViewCache cache;
  Populate(&cache, ids, /*cost=*/5);

  // Best-of-3 per thread count to shave scheduler noise.
  double single_ms = 1e300;
  double multi_ms = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    const double s = HammerMs(&cache, ids, 1, kRounds);
    if (s < single_ms) single_ms = s;
    const double m = HammerMs(&cache, ids, threads, kRounds);
    if (m < multi_ms) multi_ms = m;
  }
  EXPECT_LT(multi_ms, single_ms * 2.0)
      << threads << " threads took " << multi_ms << " ms vs " << single_ms
      << " ms single-threaded for the same per-thread work";
#endif
}

// Runs `threads` pinned workers, each performing `rounds` Admit +
// Release on `admission`, and returns the wall time of that region
// (spawn excluded via a start latch, as in HammerMs).
double AdmitMs(AdmissionController* admission, uint32_t threads,
               uint32_t rounds) {
  const uint32_t hardware =
      std::max(1u, std::thread::hardware_concurrency());
  std::atomic<uint32_t> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (uint32_t w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      PinToCpu(w % hardware);
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (uint32_t round = 0; round < rounds; ++round) {
        auto permit = admission->Admit();
        ASSERT_TRUE(permit.ok()) << permit.status().ToString();
      }
    });
  }
  while (ready.load(std::memory_order_acquire) < threads) {
    std::this_thread::yield();
  }
  const auto start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (std::thread& worker : workers) worker.join();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// The admission fast path under the same fixed-per-thread-work gate: with
// a slot per client, concurrent Admit + Release pairs write disjoint
// permit stripes, so the wall stays flat as clients are added. With one
// shared permit word, 4 threads took 12-17x the wall of 1 on a 4-core
// VM; striped, 1.0-1.3x.
TEST(ServeScalingStressTest, AdmissionDoesNotAntiScale) {
#if !defined(NDEBUG) || defined(VECUBE_TEST_UNDER_SANITIZER)
  GTEST_SKIP() << "timing gate is only meaningful in Release without "
                  "sanitizer instrumentation";
#else
  const uint32_t hardware = std::thread::hardware_concurrency();
  if (hardware < 2) {
    GTEST_SKIP() << "single-core machine: multi-thread wall measures the "
                    "scheduler, not admission";
  }
  const uint32_t threads = hardware < 8 ? hardware : 8;
  constexpr uint32_t kRounds = 500000;
  AdmissionOptions options;
  options.max_inflight = threads;
  AdmissionController admission(options);

  // Best-of-3 per thread count to shave scheduler noise.
  double single_ms = 1e300;
  double multi_ms = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    const double s = AdmitMs(&admission, 1, kRounds);
    if (s < single_ms) single_ms = s;
    const double m = AdmitMs(&admission, threads, kRounds);
    if (m < multi_ms) multi_ms = m;
  }
  EXPECT_LT(multi_ms, single_ms * 2.0)
      << threads << " threads took " << multi_ms << " ms vs " << single_ms
      << " ms single-threaded for the same per-thread Admit + Release work";
  EXPECT_EQ(admission.Metrics().inflight, 0u);
#endif
}

}  // namespace
}  // namespace vecube
