#include "workload/trace.h"

#include <gtest/gtest.h>

#include "api/session.h"
#include "cube/synthetic.h"
#include "util/rng.h"

namespace vecube {
namespace {

CubeShape Shape44() {
  auto s = CubeShape::MakeSquare(2, 4);
  EXPECT_TRUE(s.ok());
  return *s;
}

QueryPopulation SingleViewPop(uint32_t mask, const CubeShape& shape) {
  auto view = ElementId::AggregatedView(mask, shape);
  auto pop = FixedPopulation({{*view, 1.0}}, shape);
  EXPECT_TRUE(pop.ok());
  return *pop;
}

TEST(TraceTest, MakeValidates) {
  const CubeShape shape = Shape44();
  EXPECT_FALSE(QueryTrace::Make({}).ok());
  TracePhase zero{"z", SingleViewPop(1, shape), 0};
  EXPECT_FALSE(QueryTrace::Make({zero}).ok());
  TracePhase good{"g", SingleViewPop(1, shape), 5};
  auto trace = QueryTrace::Make({good});
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace->total_queries(), 5u);
}

TEST(TraceTest, GenerateRespectsPhaseLengthsAndDistributions) {
  const CubeShape shape = Shape44();
  auto trace = QueryTrace::Make({
      TracePhase{"p1", SingleViewPop(1, shape), 10},
      TracePhase{"p2", SingleViewPop(2, shape), 20},
  });
  ASSERT_TRUE(trace.ok());
  Rng rng(1);
  const auto sequence = trace->Generate(&rng);
  ASSERT_EQ(sequence.size(), 30u);
  auto v1 = ElementId::AggregatedView(1, shape);
  auto v2 = ElementId::AggregatedView(2, shape);
  for (size_t i = 0; i < 10; ++i) EXPECT_EQ(sequence[i], *v1);
  for (size_t i = 10; i < 30; ++i) EXPECT_EQ(sequence[i], *v2);
}

TEST(TraceTest, GenerateDeterministicPerSeed) {
  const CubeShape shape = Shape44();
  Rng prng(2);
  auto mixed = RandomViewPopulation(shape, &prng);
  auto trace = QueryTrace::Make({TracePhase{"p", *mixed, 50}});
  Rng a(3), b(3);
  EXPECT_EQ(trace->Generate(&a), trace->Generate(&b));
}

TEST(TraceTest, ReplayAggregatesPerPhase) {
  const CubeShape shape = Shape44();
  auto trace = QueryTrace::Make({
      TracePhase{"p1", SingleViewPop(1, shape), 4},
      TracePhase{"p2", SingleViewPop(2, shape), 6},
  });
  Rng rng(4);
  uint64_t calls = 0;
  auto reports = ReplayTrace(*trace, &rng, [&](const ElementId&) {
    ++calls;
    return Result<uint64_t>(7u);
  });
  ASSERT_TRUE(reports.ok());
  ASSERT_EQ(reports->size(), 2u);
  EXPECT_EQ(calls, 10u);
  EXPECT_EQ((*reports)[0].queries, 4u);
  EXPECT_EQ((*reports)[1].total_ops, 42u);
  EXPECT_DOUBLE_EQ((*reports)[1].avg_ops_per_query, 7.0);
}

TEST(TraceTest, ReplayAbortsOnError) {
  const CubeShape shape = Shape44();
  auto trace = QueryTrace::Make({TracePhase{"p", SingleViewPop(1, shape), 5}});
  Rng rng(5);
  int calls = 0;
  auto reports = ReplayTrace(*trace, &rng, [&](const ElementId&) {
    if (++calls == 3) {
      return Result<uint64_t>(Status::Internal("boom"));
    }
    return Result<uint64_t>(1u);
  });
  EXPECT_FALSE(reports.ok());
  EXPECT_EQ(calls, 3);
}

TEST(TraceTest, DrivesAdaptiveSessionThroughPhaseShift) {
  const CubeShape shape = Shape44();
  Rng data_rng(6);
  auto cube = UniformIntegerCube(shape, &data_rng, 0, 9);

  OlapSessionOptions options;
  options.min_queries_between_reconfigs = 8;
  options.drift_threshold = 0.4;
  options.access_decay = 0.85;
  auto session = OlapSession::FromCube(shape, *cube, options);
  ASSERT_TRUE(session.ok());

  auto trace = QueryTrace::Make({
      TracePhase{"phase1", SingleViewPop(1, shape), 40},
      TracePhase{"phase2", SingleViewPop(2, shape), 40},
  });
  Rng rng(7);
  auto reports = ReplayTrace(*trace, &rng, [&](const ElementId& view) {
    const uint64_t before = (*session)->stats().assembly_ops;
    auto answer = (*session)->Element(view);
    if (!answer.ok()) return Result<uint64_t>(answer.status());
    return Result<uint64_t>((*session)->stats().assembly_ops - before);
  });
  ASSERT_TRUE(reports.ok());
  // By the end of each phase the hot view is free, so the phase average
  // is far below the cube-only cost (12 ops/query for these views).
  EXPECT_LT((*reports)[0].avg_ops_per_query, 6.0);
  EXPECT_LT((*reports)[1].avg_ops_per_query, 6.0);
  EXPECT_GE((*session)->stats().optimizations, 2u);
}

}  // namespace
}  // namespace vecube
