// Determinism tests for the threaded execution paths: kernels, single
// assembly, and batch assembly must produce bit-identical tensors and
// identical measured op counts at every thread count — the paper's tested
// invariant (measured ops == Procedure-3 plan cost) may not bend to
// scheduling.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "api/session.h"
#include "core/assembly.h"
#include "core/basis.h"
#include "core/computer.h"
#include "core/graph.h"
#include "cube/synthetic.h"
#include "haar/transform.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace vecube {
namespace {

// Longer than the pool's spin window, so every idle worker has parked.
constexpr std::chrono::milliseconds kPastSpinWindow{5};

// Runs one ParallelFor over [0, n) and checks that every index was
// visited exactly once.
void ExpectCoversOnce(ThreadPool& pool, uint64_t n, uint64_t grain) {
  std::vector<uint8_t> hit(n, 0);
  std::atomic<uint64_t> total{0};
  pool.ParallelFor(n, grain, [&](uint64_t begin, uint64_t end) {
    for (uint64_t i = begin; i < end; ++i) ++hit[i];  // chunks are disjoint
    total.fetch_add(end - begin);
  });
  EXPECT_EQ(total.load(), n);
  for (uint64_t i = 0; i < n; ++i) ASSERT_EQ(hit[i], 1) << i;
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  ExpectCoversOnce(pool, 10000, 1);
}

TEST(ThreadPoolTest, HotPoolCoversRangeExactlyOnce) {
  // Back-to-back fan-outs find the workers still spinning.
  ThreadPool pool(4);
  for (uint64_t n = 1; n < 600; n += 7) ExpectCoversOnce(pool, n, 1 + n % 5);
}

TEST(ThreadPoolTest, ParkedPoolCoversRangeExactlyOnce) {
  // Each fan-out has to wake workers that parked during the sleep.
  ThreadPool pool(4);
  for (int round = 0; round < 8; ++round) {
    std::this_thread::sleep_for(kPastSpinWindow);
    ExpectCoversOnce(pool, 1000 + round, 1);
  }
}

TEST(ThreadPoolTest, ConcurrentExternalCallersCoverRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::thread> callers;
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&pool, c] {
      for (int round = 0; round < 50; ++round) {
        ExpectCoversOnce(pool, 257 + 31 * c + round, 1 + round % 3);
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
}

TEST(ThreadPoolTest, DestroyRightAfterFanOut) {
  for (int round = 0; round < 20; ++round) {
    ThreadPool pool(4);
    ExpectCoversOnce(pool, 64, 1);
  }  // workers are still spinning when the pool is destroyed
}

TEST(ThreadPoolTest, DestroyAfterWorkersPark) {
  for (int round = 0; round < 3; ++round) {
    ThreadPool pool(4);
    ExpectCoversOnce(pool, 64, 1);
    std::this_thread::sleep_for(kPastSpinWindow);
  }
}

TEST(ThreadPoolTest, EmptyAndTinyRanges) {
  ThreadPool pool(4);
  uint64_t calls = 0;
  pool.ParallelFor(0, 1, [&](uint64_t, uint64_t) { ++calls; });
  EXPECT_EQ(calls, 0u);
  std::atomic<uint64_t> covered{0};
  pool.ParallelFor(3, 100, [&](uint64_t begin, uint64_t end) {
    covered.fetch_add(end - begin);
  });
  EXPECT_EQ(covered.load(), 3u);
}

TEST(ThreadPoolTest, NestedParallelForCompletes) {
  // A loop issued from inside a pool task must finish even with every
  // worker busy — the issuing thread claims its own chunks.
  ThreadPool pool(4);
  std::atomic<uint64_t> total{0};
  pool.ParallelFor(8, 1, [&](uint64_t begin, uint64_t end) {
    for (uint64_t i = begin; i < end; ++i) {
      pool.ParallelFor(100, 1, [&](uint64_t b, uint64_t e) {
        total.fetch_add(e - b);
      });
    }
  });
  EXPECT_EQ(total.load(), 800u);
}

TEST(ThreadPoolTest, NestedParallelForWhileEveryWorkerIsBusy) {
  // All four lanes hold an outer chunk (the barrier admits none until
  // every lane has arrived), then each starts a nested loop: a nested
  // loop must complete on its caller alone or with lanes that are done.
  ThreadPool pool(4);
  std::atomic<uint32_t> arrived{0};
  std::vector<std::vector<uint8_t>> hits(4, std::vector<uint8_t>(500, 0));
  pool.ParallelFor(4, 1, [&](uint64_t begin, uint64_t end) {
    arrived.fetch_add(1);
    while (arrived.load() < 4) std::this_thread::yield();
    for (uint64_t t = begin; t < end; ++t) {
      std::vector<uint8_t>& hit = hits[t];
      pool.ParallelFor(hit.size(), 1, [&hit](uint64_t b, uint64_t e) {
        for (uint64_t i = b; i < e; ++i) ++hit[i];
      });
    }
  });
  for (const std::vector<uint8_t>& hit : hits) {
    for (uint8_t h : hit) ASSERT_EQ(h, 1);
  }
}

class ParallelKernelFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    // 64*64*16 = 65536 cells: comfortably above kParallelKernelCells so
    // the kernels actually take the threaded path.
    auto shape = CubeShape::Make({64, 64, 16});
    ASSERT_TRUE(shape.ok());
    shape_ = *shape;
    Rng rng(42);
    auto cube = UniformIntegerCube(shape_, &rng, -9, 9);
    ASSERT_TRUE(cube.ok());
    cube_ = std::move(cube).value();
  }

  CubeShape shape_;
  Tensor cube_;
};

TEST_F(ParallelKernelFixture, KernelsBitExactAcrossThreadCounts) {
  ThreadPool pool(4);
  for (uint32_t dim = 0; dim < 3; ++dim) {
    OpCounter serial_ops, pooled_ops;
    auto serial_sum = PartialSum(cube_, dim, &serial_ops);
    auto pooled_sum = PartialSum(cube_, dim, &pooled_ops, &pool);
    ASSERT_TRUE(serial_sum.ok() && pooled_sum.ok());
    EXPECT_EQ(serial_sum->data(), pooled_sum->data()) << "dim " << dim;
    EXPECT_EQ(serial_ops.adds, pooled_ops.adds);

    auto serial_res = PartialResidual(cube_, dim, nullptr);
    auto pooled_res = PartialResidual(cube_, dim, nullptr, &pool);
    ASSERT_TRUE(serial_res.ok() && pooled_res.ok());
    EXPECT_EQ(serial_res->data(), pooled_res->data()) << "dim " << dim;

    Tensor sp, sr, pp, pr;
    ASSERT_TRUE(PartialPair(cube_, dim, &sp, &sr, nullptr).ok());
    ASSERT_TRUE(PartialPair(cube_, dim, &pp, &pr, nullptr, &pool).ok());
    EXPECT_EQ(sp.data(), pp.data()) << "dim " << dim;
    EXPECT_EQ(sr.data(), pr.data()) << "dim " << dim;

    auto serial_syn = SynthesizePair(sp, sr, dim, nullptr);
    auto pooled_syn = SynthesizePair(sp, sr, dim, nullptr, &pool);
    ASSERT_TRUE(serial_syn.ok() && pooled_syn.ok());
    EXPECT_EQ(serial_syn->data(), pooled_syn->data()) << "dim " << dim;
    // Synthesis round-trips to the original cube bit-exactly (integers).
    EXPECT_EQ(serial_syn->data(), cube_.data()) << "dim " << dim;
  }
}

class ParallelAssemblyFixture : public ParallelKernelFixture {
 protected:
  void SetUp() override {
    ParallelKernelFixture::SetUp();
    ElementComputer computer(shape_, &cube_);
    auto store = computer.Materialize(WaveletBasisSet(shape_));
    ASSERT_TRUE(store.ok());
    store_ = std::move(store).value();
  }

  ElementStore store_{CubeShape{}};
};

TEST_F(ParallelAssemblyFixture, AssembleBitExactAndOpsEqualPlanCost) {
  ThreadPool pool(4);
  AssemblyEngine serial_engine(&store_);
  AssemblyEngine pooled_engine(&store_, &pool);
  const auto views = ViewElementGraph(shape_).AggregatedViews();
  ASSERT_EQ(views.size(), 8u);
  for (const ElementId& view : views) {
    const uint64_t plan = serial_engine.PlanCost(view);
    ASSERT_NE(plan, kInfiniteCost);
    EXPECT_EQ(pooled_engine.PlanCost(view), plan);

    OpCounter serial_ops, pooled_ops;
    auto serial_out = serial_engine.Assemble(view, &serial_ops);
    auto pooled_out = pooled_engine.Assemble(view, &pooled_ops);
    ASSERT_TRUE(serial_out.ok() && pooled_out.ok());
    EXPECT_EQ(serial_out->data(), pooled_out->data());
    // The paper's invariant, independent of thread count.
    EXPECT_EQ(serial_ops.adds, plan);
    EXPECT_EQ(pooled_ops.adds, plan);
  }
}

TEST_F(ParallelAssemblyFixture, AssembleBatchBitExactAcrossThreadCounts) {
  ThreadPool pool(4);
  AssemblyEngine serial_engine(&store_);
  AssemblyEngine pooled_engine(&store_, &pool);
  auto views = ViewElementGraph(shape_).AggregatedViews();
  views.push_back(views.front());  // duplicate target: still free, any order

  OpCounter serial_ops, pooled_ops;
  auto serial_batch = serial_engine.AssembleBatch(views, &serial_ops);
  auto pooled_batch = pooled_engine.AssembleBatch(views, &pooled_ops);
  ASSERT_TRUE(serial_batch.ok());
  ASSERT_TRUE(pooled_batch.ok());
  ASSERT_EQ(serial_batch->size(), pooled_batch->size());
  for (size_t i = 0; i < serial_batch->size(); ++i) {
    EXPECT_EQ((*serial_batch)[i].data(), (*pooled_batch)[i].data()) << i;
  }
  EXPECT_EQ(serial_ops.adds, pooled_ops.adds);

  // Shared batch work never exceeds the sum of individual plan costs.
  uint64_t individual = 0;
  for (const ElementId& view : views) {
    individual += serial_engine.PlanCost(view);
  }
  EXPECT_LE(serial_ops.adds, individual);
}

TEST_F(ParallelAssemblyFixture, BatchErrorsStillPropagateWithPool) {
  ThreadPool pool(4);
  // A store missing the residual sibling cannot rebuild the root.
  const ElementId root = ElementId::Root(3);
  auto p = root.Child(0, StepKind::kPartial, shape_);
  ASSERT_TRUE(p.ok());
  ElementComputer computer(shape_, &cube_);
  auto store = computer.Materialize({*p});
  ASSERT_TRUE(store.ok());
  AssemblyEngine engine(&*store, &pool);
  auto batch = engine.AssembleBatch({*p, root});
  ASSERT_FALSE(batch.ok());
  EXPECT_TRUE(batch.status().IsIncomplete());
}

TEST(ParallelSessionTest, NumThreadsOptionIsBitExact) {
  auto shape = CubeShape::Make({32, 32, 8});
  ASSERT_TRUE(shape.ok());
  Rng rng(7);
  auto cube = UniformIntegerCube(*shape, &rng, -5, 5);
  ASSERT_TRUE(cube.ok());

  OlapSessionOptions serial_options;
  serial_options.num_threads = 1;
  auto serial_session = OlapSession::FromCube(*shape, *cube, serial_options);
  ASSERT_TRUE(serial_session.ok());

  OlapSessionOptions pooled_options;
  pooled_options.num_threads = 4;
  auto pooled_session = OlapSession::FromCube(*shape, *cube, pooled_options);
  ASSERT_TRUE(pooled_session.ok());

  for (uint32_t mask : {0u, 1u, 3u, 5u, 7u}) {
    auto serial_view = (*serial_session)->ViewByMask(mask);
    auto pooled_view = (*pooled_session)->ViewByMask(mask);
    ASSERT_TRUE(serial_view.ok() && pooled_view.ok());
    EXPECT_EQ(serial_view->data(), pooled_view->data()) << mask;
  }
  EXPECT_EQ((*serial_session)->stats().assembly_ops,
            (*pooled_session)->stats().assembly_ops);
}

}  // namespace
}  // namespace vecube
