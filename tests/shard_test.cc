// Dyadic shard decomposition (core/shard_plan.h): exhaustive bit-exactness
// and op-count pinning against the step-at-a-time oracle across (shape,
// step pattern, shards, threads, dispatch), on integer and real-valued
// inputs (only the latter show a reassociated add tree); ShardPlan
// structural invariants (cost partition, merge legality, coverage,
// stages); combine-stage stress under concurrent executors (TSan);
// QueryContext cancellation unwinding mid-shard; ShardScratch ownership
// semantics; the engine's one cascade route at every num_shards, above
// and below kParallelKernelCells.

#include "core/shard_plan.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "core/assembly.h"
#include "core/basis.h"
#include "core/computer.h"
#include "cube/synthetic.h"
#include "haar/fused.h"
#include "haar/simd.h"
#include "haar/transform.h"
#include "util/query_context.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace vecube {
namespace {

// The seed execution model every sharded run must match bit for bit.
Result<Tensor> UnfusedCascade(const Tensor& input,
                              const std::vector<CascadeStep>& steps,
                              OpCounter* ops = nullptr) {
  Tensor current = input;
  for (const CascadeStep& step : steps) {
    Tensor next;
    if (step.kind == StepKind::kPartial) {
      VECUBE_ASSIGN_OR_RETURN(next, PartialSum(current, step.dim, ops));
    } else {
      VECUBE_ASSIGN_OR_RETURN(next, PartialResidual(current, step.dim, ops));
    }
    current = std::move(next);
  }
  return current;
}

::testing::AssertionResult BitIdentical(const Tensor& a, const Tensor& b) {
  if (a.extents() != b.extents()) {
    return ::testing::AssertionFailure()
           << "extents differ: " << a.ShapeString() << " vs "
           << b.ShapeString();
  }
  if (std::memcmp(a.raw(), b.raw(), a.size() * sizeof(double)) != 0) {
    for (uint64_t i = 0; i < a.size(); ++i) {
      if (std::memcmp(&a.raw()[i], &b.raw()[i], sizeof(double)) != 0) {
        return ::testing::AssertionFailure()
               << "cell " << i << " differs: " << a.raw()[i] << " vs "
               << b.raw()[i];
      }
    }
  }
  return ::testing::AssertionSuccess();
}

struct ForceScalar {
  ForceScalar() {
    internal::OverrideVecOpsForTesting(&internal::ScalarVecOps());
  }
  ~ForceScalar() { internal::OverrideVecOpsForTesting(nullptr); }
};

struct BudgetOverride {
  explicit BudgetOverride(uint64_t cells) {
    internal::SetFusedBudgetForTesting(cells);
  }
  ~BudgetOverride() { internal::SetFusedBudgetForTesting(0); }
};

Tensor RandomTensor(const std::vector<uint32_t>& extents, uint64_t seed) {
  auto shape = CubeShape::Make(extents);
  EXPECT_TRUE(shape.ok());
  Rng rng(seed);
  auto cube = UniformIntegerCube(*shape, &rng, -9, 9);
  EXPECT_TRUE(cube.ok());
  return std::move(cube).value();
}

// Real-valued cells: unlike integer cells, their sums round, so a
// reassociated add tree changes result bits.
Tensor RealTensor(const std::vector<uint32_t>& extents, uint64_t seed) {
  auto shape = CubeShape::Make(extents);
  EXPECT_TRUE(shape.ok());
  Rng rng(seed);
  auto cube = MixedMagnitudeCube(*shape, &rng);
  EXPECT_TRUE(cube.ok());
  return std::move(cube).value();
}

// The integer and the real-valued input of one sweep point.
std::vector<std::pair<const char*, Tensor>> SweepInputs(
    const std::vector<uint32_t>& extents, uint64_t seed) {
  std::vector<std::pair<const char*, Tensor>> inputs;
  inputs.emplace_back("integer", RandomTensor(extents, seed));
  inputs.emplace_back("real", RealTensor(extents, seed));
  return inputs;
}

uint64_t AnalyticCost(const Tensor& input,
                      const std::vector<CascadeStep>& steps) {
  uint64_t cost = 0;
  uint64_t volume = input.size();
  for (size_t s = 0; s < steps.size(); ++s) {
    volume /= 2;
    cost += volume;
  }
  return cost;
}

// Step patterns that between them exercise: pure concat splits, pure
// merge splits, mixed concat+merge, residual kinds inside the deferred
// suffix, and multi-dimension interleaving.
struct Pattern {
  const char* name;
  std::vector<uint32_t> extents;
  std::vector<CascadeStep> steps;
};

std::vector<Pattern> SweepPatterns() {
  const CascadeStep p0{0, StepKind::kPartial};
  const CascadeStep p1{1, StepKind::kPartial};
  const CascadeStep p2{2, StepKind::kPartial};
  const CascadeStep r0{0, StepKind::kResidual};
  const CascadeStep r1{1, StepKind::kResidual};
  const CascadeStep r2{2, StepKind::kResidual};
  return {
      // Output stays large: concat splits only.
      {"concat_only", {8, 8, 4}, {p0, p1}},
      // Full aggregation: output volume 1, every split is a merge split.
      {"merge_only_1d", {16}, {p0, p0, p0, p0}},
      // Full aggregation, multi-dim: merge along the last-stepped dim.
      {"merge_after_concat", {8, 8}, {p0, p0, p0, p1, p1, p1}},
      // Residual steps inside the deferred suffix (sign order matters).
      {"residual_suffix", {4, 8}, {p0, p0, p1, r1, p1}},
      // Trailing run of length 1 caps the merge depth.
      {"short_trailing_run", {8, 4, 2}, {p0, p0, p0, p1, p1, p2}},
      // Residuals everywhere, interleaved dims.
      {"interleaved_residuals", {8, 4, 4}, {r0, p1, r2, p0, r1, p2}},
      // Offset-style descent: most-significant residual first per dim.
      {"descent_like", {16, 8}, {r0, p0, p0, p0, r1, p1, p1}},
      // Leading dim-0 run below the shard count: two stages.
      {"staged_descent", {8, 4, 8}, {p0, p0, p0, p1, p1, r2, p2}},
      // Leading extent-1 dimension: dim 1 leads and carries the stages.
      {"unit_lead_dim", {1, 16, 4}, {p1, p1, p1, r1, p2}},
  };
}

// --- Tentpole: exhaustive bit-exactness + op-pinning sweep --------------

TEST(ShardSweep, BitIdenticalAndOpsPinnedAcrossShardsThreadsDispatch) {
  for (const Pattern& pat : SweepPatterns()) {
    for (const auto& [kind, input] : SweepInputs(pat.extents, 42)) {
      SCOPED_TRACE(testing::Message() << pat.name << " " << kind);
      OpCounter ref_ops;
      Tensor ref;
      {
        ForceScalar scalar;
        auto r = UnfusedCascade(input, pat.steps, &ref_ops);
        ASSERT_TRUE(r.ok());
        ref = *r;
      }
      ASSERT_EQ(ref_ops.adds, AnalyticCost(input, pat.steps));

      for (const uint32_t shards : {1u, 2u, 4u, 8u}) {
        const ShardPlan plan =
            ShardPlan::Build(input.extents(), pat.steps, shards);
        ASSERT_LE(plan.parallelism(), shards);
        ASSERT_EQ(plan.total_cost(), ref_ops.adds)
            << "decomposition must partition the analytic cost";
        for (const uint32_t threads : {1u, 2u, 4u}) {
          for (const bool scalar : {false, true}) {
            SCOPED_TRACE(testing::Message()
                         << "shards=" << shards << " threads=" << threads
                         << " scalar=" << scalar);
            std::optional<ForceScalar> force;
            if (scalar) force.emplace();
            ThreadPool pool(threads);
            ThreadedShardExecutor exec(&pool);
            OpCounter ops;
            auto out = exec.Execute(input, plan, &ops, nullptr);
            ASSERT_TRUE(out.ok()) << out.status().ToString();
            EXPECT_TRUE(BitIdentical(*out, ref));
            EXPECT_EQ(ops.adds, ref_ops.adds);
          }
        }
      }
    }
  }
}

TEST(ShardSweep, TinyFusedBudgetStillBitIdentical) {
  // A 1-cell budget forces maximal group splitting and windowed tiling
  // inside every shard's serial cascade.
  const Pattern pat{"budget", {8, 8}, {CascadeStep{0, StepKind::kPartial},
                                       CascadeStep{1, StepKind::kResidual},
                                       CascadeStep{1, StepKind::kPartial}}};
  for (const auto& [kind, input] : SweepInputs(pat.extents, 7)) {
    Tensor ref;
    {
      ForceScalar scalar;
      auto r = UnfusedCascade(input, pat.steps);
      ASSERT_TRUE(r.ok());
      ref = *r;
    }
    BudgetOverride budget(1);
    for (const uint32_t shards : {2u, 4u, 8u}) {
      const ShardPlan plan =
          ShardPlan::Build(input.extents(), pat.steps, shards);
      ThreadPool pool(2);
      ThreadedShardExecutor exec(&pool);
      auto out = exec.Execute(input, plan, nullptr, nullptr);
      ASSERT_TRUE(out.ok());
      EXPECT_TRUE(BitIdentical(*out, ref))
          << kind << " shards=" << shards;
    }
  }
}

// --- ShardPlan structural invariants ------------------------------------

TEST(ShardPlanTest, SingleShardIsIdentityDecomposition) {
  const std::vector<uint32_t> extents{8, 4};
  const std::vector<CascadeStep> steps{{0, StepKind::kPartial}};
  const ShardPlan plan = ShardPlan::Build(extents, steps, 1);
  EXPECT_EQ(plan.parallelism(), 1u);
  ASSERT_EQ(plan.stages().size(), 1u);
  const ShardStage& stage = plan.stages()[0];
  EXPECT_EQ(stage.merge_levels, 0u);
  EXPECT_EQ(stage.local_in_extents, extents);
  EXPECT_EQ(stage.local_steps, steps);
  EXPECT_TRUE(stage.in_contiguous);
}

TEST(ShardPlanTest, ShardCountRoundsDownToPowerOfTwo) {
  const std::vector<uint32_t> extents{16, 16};
  const std::vector<CascadeStep> steps{{0, StepKind::kPartial}};
  const ShardPlan plan = ShardPlan::Build(extents, steps, 7);
  EXPECT_EQ(plan.parallelism(), 4u);
}

TEST(ShardPlanTest, ConcatSplitsExhaustOutputBeforeMerging) {
  // Output extents {4, 4}: 8 shards need 8 concat splits <= 16 available.
  // The leading dim-0 step leaves 4 < 8 rows, so that step runs as its
  // own stage (a 4-way concat plus one merge level along dim 0, reading
  // the source in place); the dim-1 step then runs on the half-sized
  // intermediate in 8 >> 1 = 4 pure concat splits, no combine stage.
  const ShardPlan plan = ShardPlan::Build(
      {8, 8}, {{0, StepKind::kPartial}, {1, StepKind::kPartial}}, 8);
  EXPECT_EQ(plan.parallelism(), 8u);
  ASSERT_EQ(plan.stages().size(), 2u);
  EXPECT_EQ(plan.stages()[0].merge_levels, 1u);
  EXPECT_TRUE(plan.stages()[0].in_contiguous);
  const ShardStage& last = plan.stages()[1];
  EXPECT_EQ(last.tasks.size(), 4u);
  EXPECT_EQ(last.merge_levels, 0u);
  EXPECT_EQ(last.local_steps.size(), 1u);
}

TEST(ShardPlanTest, MergeOnlyAlongLastSteppedDimension) {
  // Full aggregation of {8, 8} ending in dim-1 steps: the dim-0 run is a
  // stage of its own, and the dim-1 stage (32 >> 3 = 4 tasks) defers
  // dim-1 steps only; each stage's local list is a prefix of its steps,
  // and the stages' steps concatenate back to the global list.
  const std::vector<CascadeStep> steps{
      {0, StepKind::kPartial}, {0, StepKind::kPartial},
      {0, StepKind::kPartial}, {1, StepKind::kPartial},
      {1, StepKind::kPartial}, {1, StepKind::kResidual}};
  const ShardPlan plan = ShardPlan::Build({8, 8}, steps, 32);
  EXPECT_EQ(plan.parallelism(), 32u);
  const ShardStage& last = plan.stages().back();
  EXPECT_EQ(last.tasks.size(), 4u);
  EXPECT_EQ(last.merge_dim, 1u);
  EXPECT_EQ(last.merge_levels, 2u);
  ASSERT_EQ(last.merge_kinds.size(), 2u);
  EXPECT_EQ(last.merge_kinds[0], StepKind::kPartial);
  EXPECT_EQ(last.merge_kinds[1], StepKind::kResidual);
  size_t s = 0;
  for (const ShardStage& stage : plan.stages()) {
    for (const CascadeStep& step : stage.local_steps) {
      ASSERT_LT(s, steps.size());
      EXPECT_EQ(step, steps[s++]);
    }
    for (const StepKind kind : stage.merge_kinds) {
      ASSERT_LT(s, steps.size());
      EXPECT_EQ(steps[s].dim, stage.merge_dim);
      EXPECT_EQ(steps[s++].kind, kind);
    }
  }
  EXPECT_EQ(s, steps.size());
}

TEST(ShardPlanTest, MergeDepthCappedByTrailingRun) {
  // The last step's dimension has a trailing run of exactly one step, so
  // at most one merge level along it is legal no matter how many shards
  // are asked for (deferring any dim-0 step there would reorder the
  // suffix). The dim-0 steps merge only inside their own first stage;
  // the dim-1 stage gets 64 >> 3 = 8 of the shards.
  const std::vector<CascadeStep> steps{{0, StepKind::kPartial},
                                       {0, StepKind::kPartial},
                                       {0, StepKind::kPartial},
                                       {1, StepKind::kPartial}};
  const ShardPlan plan = ShardPlan::Build({8, 2}, steps, 64);
  ASSERT_EQ(plan.stages().size(), 2u);
  EXPECT_EQ(plan.stages()[0].local_steps.size() +
                plan.stages()[0].merge_levels,
            3u);
  const ShardStage& last = plan.stages().back();
  EXPECT_LE(last.merge_levels, 1u);
  EXPECT_EQ(last.tasks.size(), 2u);
}

TEST(ShardPlanTest, TasksTileTheSourceDisjointly) {
  const std::vector<CascadeStep> steps{{0, StepKind::kPartial},
                                       {1, StepKind::kPartial},
                                       {1, StepKind::kPartial}};
  const ShardPlan plan = ShardPlan::Build({8, 8, 4}, steps, 8);
  ASSERT_GT(plan.parallelism(), 1u);
  // In every stage, every input cell is covered by exactly one task
  // subrectangle.
  for (const ShardStage& stage : plan.stages()) {
    std::set<uint64_t> covered;
    const std::vector<uint32_t>& local = stage.local_in_extents;
    for (const ShardTask& task : stage.tasks) {
      std::vector<uint32_t> idx(local.size(), 0);
      for (;;) {
        uint64_t flat = 0;
        for (size_t m = 0; m < local.size(); ++m) {
          flat = flat * stage.in_extents[m] + task.in_begin[m] + idx[m];
        }
        EXPECT_TRUE(covered.insert(flat).second) << "overlap at " << flat;
        size_t m = local.size();
        bool done = true;
        while (m-- > 0) {
          if (++idx[m] < local[m]) {
            done = false;
            break;
          }
          idx[m] = 0;
        }
        if (done) break;
      }
    }
    uint64_t volume = 1;
    for (const uint32_t e : stage.in_extents) volume *= e;
    EXPECT_EQ(covered.size(), volume);
  }
}

TEST(ShardPlanTest, NonDyadicShapeDegradesToSingleTask) {
  const ShardPlan plan =
      ShardPlan::Build({6, 4}, {{1, StepKind::kPartial}}, 8);
  EXPECT_EQ(plan.parallelism(), 1u);
}

TEST(ShardPlanTest, CostPartitionHoldsAcrossShardCounts) {
  const Tensor input = RandomTensor({16, 8, 4}, 3);
  const std::vector<CascadeStep> steps{
      {0, StepKind::kPartial}, {0, StepKind::kPartial},
      {1, StepKind::kResidual}, {2, StepKind::kPartial},
      {2, StepKind::kPartial}};
  const uint64_t analytic = AnalyticCost(input, steps);
  for (const uint32_t shards : {1u, 2u, 4u, 8u, 16u, 64u}) {
    const ShardPlan plan = ShardPlan::Build(input.extents(), steps, shards);
    EXPECT_EQ(plan.total_cost(), analytic) << "shards=" << shards;
  }
}

// Steps of an aggregate descent from the cold_assembly basis element
// (0, 2@0, 0, 0) of a 32^4 cube (extents 32x8x32x32) to the view that
// aggregates the dimensions of `mask`: per dimension, most significant
// first, every remaining level a P1 step.
std::vector<CascadeStep> ColdDescent(uint32_t mask) {
  const uint32_t levels[4] = {5, 3, 5, 5};
  std::vector<CascadeStep> steps;
  for (uint32_t m = 0; m < 4; ++m) {
    if ((mask >> m & 1u) == 0) continue;
    for (uint32_t l = 0; l < levels[m]; ++l) {
      steps.push_back({m, StepKind::kPartial});
    }
  }
  return steps;
}

TEST(ShardPlanTest, ColdAssemblyDimensionZeroDescentsArePinned) {
  // The four cold_assembly views that aggregate dimension 0 without
  // synthesis, at the 4-shard budget: the dim-0 run is a first stage on
  // contiguous merge lanes over the 2 MiB source, and the rest runs as
  // one in-place task over the 1/32-sized intermediate. Nothing gathers.
  const std::vector<uint32_t> source{32, 8, 32, 32};
  const std::pair<uint32_t, const char*> pinned[] = {
      {3,
       "stage 1/2: 32x8x32x32->1x8x32x32 tasks=4 concat=1x1x1x1 merge=2@dim0 "
       "local=8x8x32x32/3 steps in-place | "
       "stage 2/2: 1x8x32x32->1x1x32x32 tasks=1 concat=1x1x1x1 merge=none "
       "local=1x8x32x32/3 steps in-place"},
      {7,
       "stage 1/2: 32x8x32x32->1x8x32x32 tasks=4 concat=1x1x1x1 merge=2@dim0 "
       "local=8x8x32x32/3 steps in-place | "
       "stage 2/2: 1x8x32x32->1x1x1x32 tasks=1 concat=1x1x1x1 merge=none "
       "local=1x8x32x32/8 steps in-place"},
      {11,
       "stage 1/2: 32x8x32x32->1x8x32x32 tasks=4 concat=1x1x1x1 merge=2@dim0 "
       "local=8x8x32x32/3 steps in-place | "
       "stage 2/2: 1x8x32x32->1x1x32x1 tasks=1 concat=1x1x1x1 merge=none "
       "local=1x8x32x32/8 steps in-place"},
      {15,
       "stage 1/2: 32x8x32x32->1x8x32x32 tasks=4 concat=1x1x1x1 merge=2@dim0 "
       "local=8x8x32x32/3 steps in-place | "
       "stage 2/2: 1x8x32x32->1x1x1x1 tasks=1 concat=1x1x1x1 merge=none "
       "local=1x8x32x32/13 steps in-place"},
  };
  for (const auto& [mask, expected] : pinned) {
    const std::vector<CascadeStep> steps = ColdDescent(mask);
    const ShardPlan plan = ShardPlan::Build(source, steps, 4);
    EXPECT_EQ(plan.ToString(), expected) << "mask=" << mask;
    uint64_t analytic = 0;
    uint64_t volume = uint64_t{32} * 8 * 32 * 32;
    for (size_t s = 0; s < steps.size(); ++s) analytic += volume >>= 1;
    EXPECT_EQ(plan.total_cost(), analytic) << "mask=" << mask;
  }
}

TEST(ShardPlanTest, LeadDimensionMergePrecedesInnerConcat) {
  // A cascade that ends in a dim-0 run merges along dim 0 before it
  // splits an inner dimension, so every task reads the source in place.
  const std::vector<CascadeStep> steps(5, {0, StepKind::kPartial});
  const ShardPlan plan = ShardPlan::Build({32, 16, 32, 32}, steps, 4);
  ASSERT_EQ(plan.stages().size(), 1u);
  const ShardStage& stage = plan.stages()[0];
  EXPECT_EQ(stage.tasks.size(), 4u);
  EXPECT_EQ(stage.merge_dim, 0u);
  EXPECT_EQ(stage.merge_levels, 2u);
  EXPECT_EQ(stage.split, (std::vector<uint32_t>{1, 1, 1, 1}));
  EXPECT_TRUE(stage.in_contiguous);
  EXPECT_TRUE(stage.out_contiguous);
}

TEST(ShardPlanTest, LeadingUnitDimensionsAreSkipped) {
  // Dimension 0 has extent 1, so dimension 1 leads: its leading run is
  // staged and both stages read in place.
  const std::vector<CascadeStep> steps{{1, StepKind::kPartial},
                                       {1, StepKind::kPartial},
                                       {1, StepKind::kPartial},
                                       {2, StepKind::kPartial}};
  const ShardPlan plan = ShardPlan::Build({1, 8, 4, 8}, steps, 4);
  ASSERT_EQ(plan.stages().size(), 2u);
  EXPECT_EQ(plan.stages()[0].merge_dim, 1u);
  EXPECT_EQ(plan.stages()[0].merge_levels, 2u);
  for (const ShardStage& stage : plan.stages()) {
    EXPECT_TRUE(stage.in_contiguous);
  }
}

TEST(ShardPlanTest, NoStageWhenTheLeadingRunLeavesEnoughRows) {
  // 32 >> 2 = 8 rows >= 4 shards: one stage of dim-0 concat splits.
  const std::vector<CascadeStep> steps{{0, StepKind::kPartial},
                                       {0, StepKind::kPartial},
                                       {1, StepKind::kPartial}};
  const ShardPlan plan = ShardPlan::Build({32, 8}, steps, 4);
  ASSERT_EQ(plan.stages().size(), 1u);
  EXPECT_EQ(plan.stages()[0].split, (std::vector<uint32_t>{4, 1}));
  EXPECT_TRUE(plan.stages()[0].in_contiguous);
  EXPECT_EQ(plan.stages()[0].merge_levels, 0u);
}

// --- ShardScratch -------------------------------------------------------

TEST(ShardScratchTest, GrantsAreAlignedDisjointAndReusedAfterReset) {
  ShardScratch scratch;
  double* a = scratch.Take(100);
  double* b = scratch.Take(1000);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % 64, 0u);
  // Disjoint grants: writing one must not disturb the other.
  for (int i = 0; i < 100; ++i) a[i] = 1.0;
  for (int i = 0; i < 1000; ++i) b[i] = 2.0;
  for (int i = 0; i < 100; ++i) ASSERT_EQ(a[i], 1.0);
  const uint64_t capacity = scratch.capacity_cells();
  scratch.Reset();
  (void)scratch.Take(100);
  (void)scratch.Take(1000);
  EXPECT_EQ(scratch.capacity_cells(), capacity)
      << "same-shape reuse must not allocate";
}

// --- Combine-stage stress (run under TSan in CI) ------------------------

TEST(ShardStressTest, ConcurrentExecutorsShareLanesSafely) {
  // Merge-heavy plan: full aggregation so every shard funnels into the
  // combine DAG, exercising lane claiming, per-lane scratch, and the
  // lane-buffer handoff under concurrent Execute() calls on ONE executor.
  const Tensor input = RandomTensor({16, 16}, 9);
  std::vector<CascadeStep> steps;
  for (int s = 0; s < 4; ++s) steps.push_back({0, StepKind::kPartial});
  for (int s = 0; s < 4; ++s) steps.push_back({1, StepKind::kPartial});
  const ShardPlan plan = ShardPlan::Build(input.extents(), steps, 8);
  ASSERT_GT(plan.stages().front().merge_levels, 0u);

  Tensor ref;
  {
    auto r = UnfusedCascade(input, steps);
    ASSERT_TRUE(r.ok());
    ref = *r;
  }

  ThreadPool pool(4);
  ThreadedShardExecutor exec(&pool);
  constexpr int kCallers = 4;
  constexpr int kReps = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      for (int rep = 0; rep < kReps; ++rep) {
        OpCounter ops;
        auto out = exec.Execute(input, plan, &ops, nullptr);
        if (!out.ok() || !BitIdentical(*out, ref) ||
            ops.adds != plan.total_cost()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// --- Cancellation unwinding ---------------------------------------------

TEST(ShardCancelTest, PreCancelledContextUnwindsWithoutResult) {
  const Tensor input = RandomTensor({16, 16, 8}, 5);
  std::vector<CascadeStep> steps;
  for (int s = 0; s < 4; ++s) steps.push_back({0, StepKind::kPartial});
  const ShardPlan plan = ShardPlan::Build(input.extents(), steps, 4);
  ThreadPool pool(2);
  ThreadedShardExecutor exec(&pool);
  const QueryContext ctx = QueryContext::Cancellable();
  ctx.RequestCancel();
  auto out = exec.Execute(input, plan, nullptr, &ctx);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kCancelled);
}

TEST(ShardCancelTest, MidFlightCancellationUnwindsEveryLane) {
  // Race a cancel against a running sharded cascade, across enough
  // repetitions to land inside shard execution at various depths. Every
  // outcome must be either a complete bit-exact result or a clean
  // cancellation — never a crash, hang, or partial tensor.
  const Tensor input = RandomTensor({32, 16, 8}, 6);
  std::vector<CascadeStep> steps;
  for (int s = 0; s < 5; ++s) steps.push_back({0, StepKind::kPartial});
  for (int s = 0; s < 2; ++s) steps.push_back({1, StepKind::kResidual});
  const ShardPlan plan = ShardPlan::Build(input.extents(), steps, 8);
  Tensor ref;
  {
    auto r = UnfusedCascade(input, steps);
    ASSERT_TRUE(r.ok());
    ref = *r;
  }
  ThreadPool pool(4);
  ThreadedShardExecutor exec(&pool);
  // A 64-cell budget makes chunks (the poll granularity) plentiful.
  BudgetOverride budget(64);
  for (int rep = 0; rep < 20; ++rep) {
    const QueryContext ctx = QueryContext::Cancellable();
    std::thread canceller([&] { ctx.RequestCancel(); });
    auto out = exec.Execute(input, plan, nullptr, &ctx);
    canceller.join();
    if (out.ok()) {
      EXPECT_TRUE(BitIdentical(*out, ref));
    } else {
      EXPECT_EQ(out.status().code(), StatusCode::kCancelled);
    }
  }
}

TEST(ShardCancelTest, ExpiredDeadlinePropagatesThroughEngine) {
  Rng rng(8);
  auto shape = CubeShape::Make({16, 16, 8, 8});
  ASSERT_TRUE(shape.ok());
  auto cube = UniformIntegerCube(*shape, &rng, -9, 9);
  ASSERT_TRUE(cube.ok());
  ElementComputer computer(*shape, &*cube);
  auto store = computer.Materialize(CubeOnlySet(*shape));
  ASSERT_TRUE(store.ok());
  ThreadPool pool(4);
  AssemblyEngine engine(&*store, &pool, 4);
  const QueryContext ctx =
      QueryContext::WithDeadline(QueryContext::Clock::now() -
                                 std::chrono::milliseconds(1));
  auto out = engine.AssembleView(0b1111, nullptr, &ctx);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kDeadlineExceeded);
}

// --- Engine-level routing -----------------------------------------------

class ShardedEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto shape = CubeShape::Make({16, 16, 8, 8});  // 2^14 cells: shardable
    ASSERT_TRUE(shape.ok());
    shape_ = *shape;
    Rng rng(21);
    auto cube = UniformIntegerCube(shape_, &rng, -9, 9);
    ASSERT_TRUE(cube.ok());
    cube_ = std::move(*cube);
    auto store = ElementComputer(shape_, &cube_).Materialize(
        CubeOnlySet(shape_));
    ASSERT_TRUE(store.ok());
    store_.emplace(std::move(*store));
    auto real_cube = MixedMagnitudeCube(shape_, &rng);
    ASSERT_TRUE(real_cube.ok());
    real_cube_ = std::move(*real_cube);
    auto real_store = ElementComputer(shape_, &real_cube_).Materialize(
        CubeOnlySet(shape_));
    ASSERT_TRUE(real_store.ok());
    real_store_.emplace(std::move(*real_store));
  }

  CubeShape shape_;
  Tensor cube_;
  std::optional<ElementStore> store_;
  Tensor real_cube_;
  std::optional<ElementStore> real_store_;
};

TEST_F(ShardedEngineTest, AssembleBitExactAndOpsInvariantAcrossShards) {
  // Every input: the engine's answers are bit-identical to the
  // ElementComputer's step-at-a-time cascade and its ops equal PlanCost.
  auto check = [](const CubeShape& shape, const Tensor& cube,
                  const ElementStore& store, uint32_t shards,
                  uint32_t threads) {
    ElementComputer computer(shape, &cube);
    ThreadPool pool(threads);
    AssemblyEngine engine(&store, &pool, shards);
    EXPECT_EQ(engine.num_shards(), shards);
    for (uint32_t mask = 1; mask < 16; mask += 5) {  // 1, 6, 11 — mixed arity
      auto view = ElementId::AggregatedView(mask, shape);
      ASSERT_TRUE(view.ok());
      auto expected = computer.Compute(*view);
      ASSERT_TRUE(expected.ok());
      OpCounter ops;
      auto out = engine.Assemble(*view, &ops);
      ASSERT_TRUE(out.ok());
      EXPECT_TRUE(BitIdentical(*out, *expected))
          << "cells=" << cube.size() << " shards=" << shards
          << " threads=" << threads << " mask=" << mask;
      EXPECT_EQ(ops.adds, engine.PlanCost(*view));
    }
  };
  for (const uint32_t shards : {1u, 2u, 4u, 8u}) {
    for (const uint32_t threads : {1u, 2u, 4u}) {
      check(shape_, cube_, *store_, shards, threads);
    }
  }

  // A cube below kParallelKernelCells: every descent runs as one in-place
  // task on the caller's lane, whatever the shard budget and pool.
  auto small_shape = CubeShape::Make({8, 8, 4, 4});
  ASSERT_TRUE(small_shape.ok());
  Rng rng(22);
  auto small_cube = UniformIntegerCube(*small_shape, &rng, -9, 9);
  ASSERT_TRUE(small_cube.ok());
  ASSERT_LT(small_cube->size(), kParallelKernelCells);
  auto small_store = ElementComputer(*small_shape, &*small_cube)
                         .Materialize(CubeOnlySet(*small_shape));
  ASSERT_TRUE(small_store.ok());
  check(*small_shape, *small_cube, *small_store, 4, 4);
  check(*small_shape, *small_cube, *small_store, 1, 4);
}

TEST_F(ShardedEngineTest, BatchOpsInvariantAcrossShardsAndThreads) {
  std::vector<ElementId> targets;
  for (uint32_t mask = 0; mask < 16; ++mask) {
    auto view = ElementId::AggregatedView(mask, shape_);
    ASSERT_TRUE(view.ok());
    targets.push_back(*view);
  }
  for (const ElementStore* store : {&*store_, &*real_store_}) {
    AssemblyEngine reference(store);
    OpCounter ref_ops;
    auto ref = reference.AssembleBatch(targets, &ref_ops);
    ASSERT_TRUE(ref.ok());

    for (const uint32_t shards : {1u, 4u}) {
      for (const uint32_t threads : {2u, 4u}) {
        ThreadPool pool(threads);
        AssemblyEngine engine(store, &pool, shards);
        OpCounter ops;
        auto out = engine.AssembleBatch(targets, &ops);
        ASSERT_TRUE(out.ok());
        ASSERT_EQ(out->size(), ref->size());
        for (size_t i = 0; i < ref->size(); ++i) {
          EXPECT_TRUE(BitIdentical((*out)[i], (*ref)[i]))
              << "real=" << (store == &*real_store_) << " shards=" << shards
              << " threads=" << threads << " i=" << i;
        }
        // The cost-sorted, shard-decomposed batch must book exactly the
        // serial batch's shared-work total.
        EXPECT_EQ(ops.adds, ref_ops.adds)
            << "shards=" << shards << " threads=" << threads;
      }
    }
  }
}

TEST_F(ShardedEngineTest, ColdAssemblyBasisEveryViewMatchesSerialEngine) {
  // cold_assembly's selected basis {(0, 1@1, 0, 0), (0, 2@0, 0, 0),
  // (0, 2@1, 0, 0)} on a 16^4 cube: all 16 views mix staged descents,
  // lead-dimension merges, innermost cascades and synthesis. The
  // reference is the pool-less engine (one in-place task per descent),
  // not ElementComputer: on real-valued data a store path legitimately
  // associates differently from computing off the cube.
  auto shape = CubeShape::Make({16, 16, 16, 16});
  ASSERT_TRUE(shape.ok());
  std::vector<ElementId> basis;
  for (const auto& codes :
       std::vector<std::vector<DimCode>>{
           {{0, 0}, {1, 1}, {0, 0}, {0, 0}},
           {{0, 0}, {2, 0}, {0, 0}, {0, 0}},
           {{0, 0}, {2, 1}, {0, 0}, {0, 0}}}) {
    auto id = ElementId::Make(codes, *shape);
    ASSERT_TRUE(id.ok());
    basis.push_back(*id);
  }
  for (const bool real : {false, true}) {
    Rng rng(31);
    auto cube = real ? MixedMagnitudeCube(*shape, &rng)
                     : UniformIntegerCube(*shape, &rng, -9, 9);
    ASSERT_TRUE(cube.ok());
    auto store = ElementComputer(*shape, &*cube).Materialize(basis);
    ASSERT_TRUE(store.ok());
    AssemblyEngine reference(&*store);
    std::vector<Tensor> expected;
    for (uint32_t mask = 0; mask < 16; ++mask) {
      auto view = reference.AssembleView(mask);
      ASSERT_TRUE(view.ok()) << "mask=" << mask;
      expected.push_back(std::move(*view));
    }
    auto check = [&](uint32_t shards, uint32_t threads, bool scalar,
                     uint64_t budget) {
      BudgetOverride fused_budget(budget);
      std::optional<ForceScalar> force;
      if (scalar) force.emplace();
      ThreadPool pool(threads);
      AssemblyEngine engine(&*store, &pool, shards);
      for (uint32_t mask = 0; mask < 16; ++mask) {
        auto view = ElementId::AggregatedView(mask, *shape);
        ASSERT_TRUE(view.ok());
        OpCounter ops;
        auto out = engine.Assemble(*view, &ops);
        ASSERT_TRUE(out.ok());
        EXPECT_TRUE(BitIdentical(*out, expected[mask]))
            << "real=" << real << " budget=" << budget << " shards=" << shards
            << " threads=" << threads << " scalar=" << scalar
            << " mask=" << mask;
        EXPECT_EQ(ops.adds, engine.PlanCost(*view)) << "mask=" << mask;
      }
    };
    for (const uint32_t shards : {1u, 2u, 4u, 8u}) {
      for (const uint32_t threads : {1u, 4u}) {
        for (const bool scalar : {false, true}) {
          check(shards, threads, scalar, 0);
        }
      }
    }
    // A 1-cell fused budget splits every group and tile; it is slow, so
    // one staged and one unstaged point cover it.
    check(4, 1, false, 1);
    check(1, 1, false, 1);
  }
}

TEST_F(ShardedEngineTest, DefaultShardBudgetTracksPoolSize) {
  ThreadPool pool(4);
  AssemblyEngine engine(&*store_, &pool, 0);
  EXPECT_EQ(engine.num_shards(), 4u);
  AssemblyEngine serial(&*store_);
  EXPECT_EQ(serial.num_shards(), 1u);
}

}  // namespace
}  // namespace vecube
