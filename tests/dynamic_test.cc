// The adaptation loop (Section 5) on OlapSession: online reconfiguration
// against observed traffic, migration from the current store, the view
// cache flush it implies, and failure isolation from the query that
// triggered it.

#include <gtest/gtest.h>

#include <bit>
#include <string>

#include "api/session.h"
#include "core/assembly.h"
#include "core/computer.h"
#include "cube/synthetic.h"
#include "range/range_engine.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace vecube {
namespace {

struct Fixture {
  CubeShape shape;
  Tensor cube;
};

Fixture MakeFixture(std::vector<uint32_t> extents, uint64_t seed) {
  auto shape = CubeShape::Make(std::move(extents));
  EXPECT_TRUE(shape.ok());
  Rng rng(seed);
  auto cube = UniformIntegerCube(*shape, &rng, 0, 9);
  EXPECT_TRUE(cube.ok());
  return Fixture{*shape, std::move(cube).value()};
}

/// Online adaptation on: reconfigure once the observed distribution is
/// `threshold` (L1) from the selected-for one, at most every
/// `min_queries` queries.
OlapSessionOptions Adaptive(double threshold = 0.5, uint64_t min_queries = 16) {
  OlapSessionOptions options;
  options.drift_threshold = threshold;
  options.min_queries_between_reconfigs = min_queries;
  return options;
}

std::unique_ptr<OlapSession> MakeSession(const Fixture& f,
                                         OlapSessionOptions options) {
  auto session = OlapSession::FromCube(f.shape, f.cube, options);
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  return std::move(session).value();
}

/// Serves `id` and returns the assembly ops the answer spent.
uint64_t OpsOf(OlapSession* session, const ElementId& id) {
  const uint64_t before = session->stats().assembly_ops;
  EXPECT_TRUE(session->Element(id).ok());
  return session->stats().assembly_ops - before;
}

TEST(DynamicTest, StartsWithCubeOnly) {
  Fixture f = MakeFixture({4, 4}, 1);
  auto session = MakeSession(f, Adaptive());
  EXPECT_EQ(session->store().size(), 1u);
  EXPECT_TRUE(session->store().Contains(ElementId::Root(2)));
  EXPECT_EQ(session->stats().optimizations, 0u);
}

TEST(DynamicTest, QueriesAnswerCorrectly) {
  Fixture f = MakeFixture({4, 4}, 2);
  auto session = MakeSession(f, Adaptive());
  ElementComputer computer(f.shape, &f.cube);
  for (uint32_t mask = 0; mask < 4; ++mask) {
    auto view = ElementId::AggregatedView(mask, f.shape);
    auto expected = computer.Compute(*view);
    auto got = session->Element(*view);
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(got->ApproxEquals(*expected, 1e-9)) << mask;
  }
  EXPECT_EQ(session->stats().queries, 4u);
}

TEST(DynamicTest, ReconfiguresUnderSkewedTraffic) {
  Fixture f = MakeFixture({4, 4}, 3);
  auto session = MakeSession(f, Adaptive(0.5, 8));
  auto hot = ElementId::AggregatedView(0b11, f.shape);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(session->Element(*hot).ok());
  }
  EXPECT_GE(session->stats().optimizations, 1u);
  // After adaptation the hot view is materialized: querying it is free.
  EXPECT_EQ(OpsOf(session.get(), *hot), 0u);
}

TEST(DynamicTest, AnswersStayCorrectAcrossReconfigurations) {
  Fixture f = MakeFixture({4, 4}, 4);
  OlapSessionOptions options = Adaptive(0.2, 4);
  options.access_decay = 0.9;
  auto session = MakeSession(f, options);
  ElementComputer computer(f.shape, &f.cube);
  Rng rng(99);
  for (int i = 0; i < 60; ++i) {
    const uint32_t mask = static_cast<uint32_t>(rng.UniformU64(4));
    auto view = ElementId::AggregatedView(mask, f.shape);
    auto expected = computer.Compute(*view);
    auto got = session->Element(*view);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(got->ApproxEquals(*expected, 1e-9)) << "query " << i;
  }
}

TEST(DynamicTest, ForcedReconfigureNeedsObservations) {
  Fixture f = MakeFixture({4, 4}, 5);
  auto session = MakeSession(f, Adaptive());
  EXPECT_TRUE(session->Optimize().IsFailedPrecondition());
}

TEST(DynamicTest, StorageBudgetAddsRedundancy) {
  Fixture f = MakeFixture({4, 4}, 6);
  OlapSessionOptions options = Adaptive();
  // Twice the cube volume in all: one volume beyond the basis.
  options.redundancy_budget_cells = f.shape.volume();
  auto session = MakeSession(f, options);
  auto a = ElementId::AggregatedView(0b01, f.shape);
  auto b = ElementId::AggregatedView(0b10, f.shape);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(session->Element(*a).ok());
    ASSERT_TRUE(session->Element(*b).ok());
  }
  ASSERT_TRUE(session->Optimize().ok());
  // With budget for redundancy, both hot views end up free.
  EXPECT_EQ(OpsOf(session.get(), *a) + OpsOf(session.get(), *b), 0u);
  EXPECT_LE(session->store().StorageCells(), 2 * f.shape.volume());
}

TEST(DynamicTest, ShapeMismatchRejected) {
  Fixture f = MakeFixture({4, 4}, 7);
  auto other = CubeShape::Make({8, 8});
  EXPECT_FALSE(OlapSession::FromCube(*other, f.cube, Adaptive()).ok());
}

// Regression: a query used to lose its successfully assembled answer
// when the *after-answering* reconfiguration attempt failed. The failure
// must be recorded on the side and the answer returned.
TEST(DynamicTest, ReconfigureFailureDoesNotDropAnswer) {
  Fixture f = MakeFixture({4, 4}, 8);
  // Any drift from the empty baseline triggers.
  auto session = MakeSession(f, Adaptive(0.1, 2));
  Failpoints::Arm("dynamic.reconfigure", FailpointAction{});

  auto view = ElementId::AggregatedView(0b11, f.shape);
  ElementComputer computer(f.shape, &f.cube);
  auto expected = computer.Compute(*view);

  // Query 1: below min_queries_between_reconfigs, no attempt yet.
  ASSERT_TRUE(session->Element(*view).ok());
  EXPECT_TRUE(session->last_reconfig_error().ok());

  // Query 2 triggers the (injected-to-fail) reconfiguration. The answer
  // must come back anyway, bit-correct.
  auto got = session->Element(*view);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->ApproxEquals(*expected, 1e-9));
  EXPECT_TRUE(session->last_reconfig_error().IsInternal());
  EXPECT_EQ(session->stats().reconfig_failures, 1u);
  EXPECT_EQ(session->stats().optimizations, 0u);

  // The failpoint is one-shot: the next attempt succeeds and clears the
  // recorded error.
  Failpoints::DisarmAll();
  ASSERT_TRUE(session->Element(*view).ok());
  ASSERT_TRUE(session->Element(*view).ok());
  EXPECT_GE(session->stats().optimizations, 1u);
  EXPECT_TRUE(session->last_reconfig_error().ok());
  EXPECT_EQ(session->stats().reconfig_failures, 1u);
}

// The tightest redundancy budgets, where the greedy pass can afford at
// most a sliver beyond the basis: the Algorithm-1 basis must survive as
// the target set.
TEST(DynamicTest, TinyRedundancyBudgetKeepsBasis) {
  Fixture f = MakeFixture({4, 4}, 9);
  ElementComputer computer(f.shape, &f.cube);
  for (uint64_t extra : {1u, 2u, 4u}) {
    OlapSessionOptions options = Adaptive();
    options.redundancy_budget_cells = extra;
    auto session = MakeSession(f, options);
    auto view = ElementId::AggregatedView(0b01, f.shape);
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(session->Element(*view).ok());
    }
    ASSERT_TRUE(session->Optimize().ok()) << "budget +" << extra;
    EXPECT_LE(session->store().StorageCells(), f.shape.volume() + extra);
    // The store still answers everything correctly.
    auto got = session->Element(*view);
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(got->ApproxEquals(*computer.Compute(*view), 1e-9));
  }
}

// The serving cache in front of the adaptation loop: hits save assembly
// ops, reconfiguration flushes, answers stay correct throughout.
TEST(DynamicTest, CachedServingSavesOpsAndFlushesOnReconfigure) {
  Fixture f = MakeFixture({4, 4}, 10);
  OlapSessionOptions options = Adaptive(0.5, 8);
  options.view_cache.enabled = true;
  auto session = MakeSession(f, options);
  ASSERT_TRUE(session->caching());

  ElementComputer computer(f.shape, &f.cube);
  auto hot = ElementId::AggregatedView(0b10, f.shape);
  auto expected = computer.Compute(*hot);
  for (int i = 0; i < 20; ++i) {
    const uint64_t before = session->stats().assembly_ops;
    auto got = session->Element(*hot);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(got->ApproxEquals(*expected, 1e-9)) << "query " << i;
    if (i > 0 && session->stats().optimizations == 0) {
      // Before any reconfiguration, repeats are pure cache hits.
      EXPECT_EQ(session->stats().assembly_ops, before) << "query " << i;
    }
  }
  const ServeMetrics metrics = session->serve_metrics();
  EXPECT_GT(metrics.hits, 0u);
  EXPECT_GT(metrics.assembly_ops_saved, 0u);
  EXPECT_GE(session->stats().optimizations, 1u);
  EXPECT_GT(metrics.invalidations, 0u);  // the reconfiguration flushed
}

// Regression: a foreign-shape id must not reach the planner's memo tables.
TEST(DynamicTest, ForeignShapeViewRejected) {
  Fixture f = MakeFixture({4, 4}, 11);
  for (const bool cached : {false, true}) {
    OlapSessionOptions options = Adaptive();
    options.view_cache.enabled = cached;
    auto session = MakeSession(f, options);
    auto wide = CubeShape::Make({64, 64});
    ASSERT_TRUE(wide.ok());
    auto foreign = ElementId::Make({{6, 63}, {6, 63}}, *wide);
    ASSERT_TRUE(foreign.ok());
    EXPECT_TRUE(session->Element(*foreign).status().IsInvalidArgument());
    EXPECT_EQ(session->stats().queries, 0u);
  }
}

// ---------------------------------------------------------------------------
// The merged loop against a dense model. A seeded random sequence of
// Element, ViewByMask, RangeSum, AddFact (integer amounts), workload
// declarations and Optimize() runs on a session that also adapts online,
// so drift-triggered reconfigurations interleave with everything else.
// Every answer must be bit-identical to the model cube (ElementComputer /
// NaiveRangeSum over it), every element query must spend exactly its
// Procedure-3 plan cost (or, cached, save it), and every rebuild of the
// element set must be exactly one AssembleBatch over the store it
// replaced, with the model's values.

constexpr int kModelSeeds = 5;
constexpr int kModelSteps = 120;

/// A random element of `shape`: an aggregated view 70% of the time,
/// otherwise any (level, offset) per dimension.
ElementId RandomElement(const CubeShape& shape, Rng* rng) {
  if (rng->UniformDouble() < 0.7) {
    const uint32_t mask =
        static_cast<uint32_t>(rng->UniformU64(1ull << shape.ndim()));
    return *ElementId::AggregatedView(mask, shape);
  }
  std::vector<DimCode> codes(shape.ndim());
  for (uint32_t m = 0; m < shape.ndim(); ++m) {
    const uint32_t depth =
        static_cast<uint32_t>(std::countr_zero(shape.extent(m)));
    codes[m].level = static_cast<uint32_t>(rng->UniformU64(depth + 1));
    codes[m].offset =
        static_cast<uint32_t>(rng->UniformU64(1ull << codes[m].level));
  }
  return *ElementId::Make(std::move(codes), shape);
}

/// Runs one seeded sequence; `drift_rebuilds` and `optimize_rebuilds`
/// accrue the element-set rebuilds that queries and Optimize() caused.
void RunModel(uint64_t seed, uint32_t threads, bool cached,
              int* drift_rebuilds, int* optimize_rebuilds) {
  const CubeShape shape = *CubeShape::Make({8, 4, 4});
  Rng rng(seed);
  Tensor model = *UniformIntegerCube(shape, &rng, -9, 9);
  OlapSessionOptions options = Adaptive(0.3, 6);
  options.access_decay = 0.9;
  options.num_threads = threads;
  options.view_cache.enabled = cached;
  if (seed % 2 == 1) options.redundancy_budget_cells = shape.volume() / 4;
  auto session = MakeSession(Fixture{shape, model}, options);
  ASSERT_NE(session, nullptr);

  for (int step = 0; step < kModelSteps; ++step) {
    SCOPED_TRACE("seed " + std::to_string(seed) + " threads " +
                 std::to_string(threads) + " cached " +
                 std::to_string(cached) + " step " + std::to_string(step));
    const double pick = rng.UniformDouble();
    const ElementStore before = session->store();
    const SessionStats stats_before = session->stats();
    const ServeMetrics serve_before = session->serve_metrics();
    std::string op;
    uint64_t plan_cost = 0;
    bool element_query = false;
    if (pick < 0.55) {
      const bool by_mask = rng.UniformDouble() < 0.3;
      const uint32_t mask =
          static_cast<uint32_t>(rng.UniformU64(1ull << shape.ndim()));
      const ElementId id = by_mask ? *ElementId::AggregatedView(mask, shape)
                                   : RandomElement(shape, &rng);
      op = (by_mask ? "ViewByMask " : "Element ") + id.ToString();
      AssemblyEngine planner(&before);
      plan_cost = planner.PlanCost(id);
      element_query = true;
      auto got = by_mask ? session->ViewByMask(mask) : session->Element(id);
      ASSERT_TRUE(got.ok()) << op << ": " << got.status().ToString();
      ElementComputer computer(shape, &model);
      ASSERT_EQ(got->data(), computer.Compute(id)->data()) << op;
    } else if (pick < 0.70) {
      std::vector<uint32_t> start(shape.ndim()), width(shape.ndim());
      for (uint32_t m = 0; m < shape.ndim(); ++m) {
        start[m] = static_cast<uint32_t>(rng.UniformU64(shape.extent(m)));
        width[m] = 1 + static_cast<uint32_t>(
                           rng.UniformU64(shape.extent(m) - start[m]));
      }
      const RangeSpec range = *RangeSpec::Make(start, width, shape);
      op = "RangeSum";
      auto got = session->RangeSum(range);
      ASSERT_TRUE(got.ok()) << op << ": " << got.status().ToString();
      ASSERT_EQ(*got, *NaiveRangeSum(model, shape, range)) << op;
    } else if (pick < 0.88) {
      std::vector<uint32_t> coords(shape.ndim());
      for (uint32_t m = 0; m < shape.ndim(); ++m) {
        coords[m] = static_cast<uint32_t>(rng.UniformU64(shape.extent(m)));
      }
      const double amount =
          static_cast<double>(rng.UniformU64(19)) - 9.0;
      op = "AddFact " + std::to_string(amount);
      ASSERT_TRUE(session->AddFact(coords, amount).ok()) << op;
      model[model.FlatIndex(coords)] += amount;
    } else if (pick < 0.93) {
      std::vector<std::pair<ElementId, double>> entries;
      for (uint64_t k = 0; k <= rng.UniformU64(3); ++k) {
        entries.emplace_back(RandomElement(shape, &rng),
                             1.0 + static_cast<double>(rng.UniformU64(4)));
      }
      op = "DeclareWorkload";
      ASSERT_TRUE(
          session->DeclareWorkload(*FixedPopulation(entries, shape)).ok());
    } else {
      op = "Optimize";
      const Status status = session->Optimize();
      // Only a session that has neither a declared workload nor any
      // observed query may refuse.
      ASSERT_TRUE(status.ok() || status.IsFailedPrecondition())
          << op << ": " << status.ToString();
    }
    SCOPED_TRACE("after " + op);

    const SessionStats& stats = session->stats();
    const ServeMetrics serve = session->serve_metrics();
    const uint64_t spent = stats.assembly_ops - stats_before.assembly_ops;
    if (element_query && !cached) {
      ASSERT_EQ(spent, plan_cost) << "uncached query off its plan cost";
    }
    if (element_query && cached) {
      const uint64_t saved =
          serve.assembly_ops_saved - serve_before.assembly_ops_saved;
      const uint64_t executed =
          serve.assembly_ops_executed - serve_before.assembly_ops_executed;
      ASSERT_EQ(saved + executed, plan_cost) << "ops_saved + ops_executed";
      ASSERT_EQ(spent, executed);
      if (serve.misses > serve_before.misses) {
        ASSERT_EQ(spent, plan_cost);
      }
    }
    ASSERT_EQ(stats.reconfig_failures, 0u)
        << session->last_reconfig_error().ToString();
    if (stats.optimizations == stats_before.optimizations) {
      ASSERT_EQ(stats.migration_ops, stats_before.migration_ops);
      continue;
    }
    // The element set was rebuilt: one AssembleBatch over the store it
    // replaced, with the model's values.
    ++*(op == "Optimize" ? optimize_rebuilds : drift_rebuilds);
    const std::vector<ElementId> ids = session->store().Ids();
    AssemblyEngine migrate(&before);
    OpCounter batch_ops;
    ASSERT_TRUE(migrate.AssembleBatch(ids, &batch_ops).ok());
    ASSERT_EQ(stats.migration_ops - stats_before.migration_ops,
              batch_ops.adds);
    ElementComputer computer(shape, &model);
    for (const ElementId& id : ids) {
      ASSERT_EQ((*session->store().Get(id))->data(),
                computer.Compute(id)->data())
          << "migrated " << id.ToString();
    }
  }
}

class DynamicModelTest
    : public testing::TestWithParam<std::tuple<uint32_t, bool>> {};

TEST_P(DynamicModelTest, MergedLoopMatchesDenseModel) {
  const auto [threads, cached] = GetParam();
  int drift_rebuilds = 0, optimize_rebuilds = 0;
  for (uint64_t seed = 1; seed <= kModelSeeds; ++seed) {
    RunModel(seed, threads, cached, &drift_rebuilds, &optimize_rebuilds);
    if (HasFatalFailure()) return;
  }
  // The sequences must reach both ways into the loop, or they check
  // nothing of it.
  EXPECT_GT(drift_rebuilds, 0);
  EXPECT_GT(optimize_rebuilds, 0);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndCache, DynamicModelTest,
    testing::Combine(testing::Values(1u, 4u), testing::Bool()),
    [](const testing::TestParamInfo<std::tuple<uint32_t, bool>>& param) {
      return "Threads" + std::to_string(std::get<0>(param.param)) +
             (std::get<1>(param.param) ? "Cached" : "Uncached");
    });

}  // namespace
}  // namespace vecube
