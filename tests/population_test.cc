#include "workload/population.h"

#include <gtest/gtest.h>

#include <limits>

#include "core/graph.h"

namespace vecube {
namespace {

CubeShape Shape44() {
  auto s = CubeShape::Make({4, 4});
  EXPECT_TRUE(s.ok());
  return *s;
}

TEST(PopulationTest, MakeNormalizes) {
  const CubeShape shape = Shape44();
  auto a = ElementId::AggregatedView(1, shape);
  auto b = ElementId::AggregatedView(2, shape);
  auto pop = QueryPopulation::Make(
      {QuerySpec{*a, 3.0}, QuerySpec{*b, 1.0}}, shape);
  ASSERT_TRUE(pop.ok());
  EXPECT_NEAR((*pop)[0].frequency, 0.75, 1e-12);
  EXPECT_NEAR((*pop)[1].frequency, 0.25, 1e-12);
}

TEST(PopulationTest, MakeRejectsEmptyAndNonPositive) {
  const CubeShape shape = Shape44();
  EXPECT_FALSE(QueryPopulation::Make({}, shape).ok());
  auto a = ElementId::AggregatedView(1, shape);
  EXPECT_FALSE(QueryPopulation::Make({QuerySpec{*a, 0.0}}, shape).ok());
  EXPECT_FALSE(QueryPopulation::Make({QuerySpec{*a, -1.0}}, shape).ok());
}

// NaN slips past a `<= 0` check, and +inf or an overflowing total would
// normalize every frequency to NaN or 0; Algorithm 1 then aborted on its
// memo. Make must turn all three into InvalidArgument.
TEST(PopulationTest, MakeRejectsNonFiniteFrequencies) {
  const CubeShape shape = Shape44();
  auto a = ElementId::AggregatedView(1, shape);
  auto b = ElementId::AggregatedView(2, shape);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    auto pop = QueryPopulation::Make(
        {QuerySpec{*a, bad}, QuerySpec{*b, 1.0}}, shape);
    ASSERT_FALSE(pop.ok()) << bad;
    EXPECT_TRUE(pop.status().IsInvalidArgument()) << bad;
  }
}

TEST(PopulationTest, MakeRejectsOverflowingTotal) {
  const CubeShape shape = Shape44();
  auto a = ElementId::AggregatedView(1, shape);
  auto b = ElementId::AggregatedView(2, shape);
  auto pop = QueryPopulation::Make(
      {QuerySpec{*a, 1e308}, QuerySpec{*b, 1e308}}, shape);
  ASSERT_FALSE(pop.ok());
  EXPECT_TRUE(pop.status().IsInvalidArgument());
  // The largest finite frequencies still normalize when their sum fits.
  auto ok = QueryPopulation::Make(
      {QuerySpec{*a, 8e307}, QuerySpec{*b, 8e307}}, shape);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ((*ok)[0].frequency, 0.5);
}

TEST(PopulationTest, MakeValidatesIds) {
  const CubeShape shape = Shape44();
  EXPECT_FALSE(
      QueryPopulation::Make({QuerySpec{ElementId::Root(3), 1.0}}, shape).ok());
}

TEST(PopulationTest, RandomViewPopulationCoversAllViews) {
  const CubeShape shape = Shape44();
  Rng rng(1);
  auto pop = RandomViewPopulation(shape, &rng);
  ASSERT_TRUE(pop.ok());
  EXPECT_EQ(pop->size(), 4u);  // 2^2 aggregated views
  double total = 0.0;
  for (const QuerySpec& q : pop->queries()) {
    EXPECT_TRUE(q.view.IsAggregatedView(shape));
    EXPECT_GT(q.frequency, 0.0);
    total += q.frequency;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(PopulationTest, RandomViewPopulationDeterministicPerSeed) {
  const CubeShape shape = Shape44();
  Rng a(5), b(5);
  auto pa = RandomViewPopulation(shape, &a);
  auto pb = RandomViewPopulation(shape, &b);
  for (size_t k = 0; k < pa->size(); ++k) {
    EXPECT_EQ((*pa)[k].view, (*pb)[k].view);
    EXPECT_DOUBLE_EQ((*pa)[k].frequency, (*pb)[k].frequency);
  }
}

TEST(PopulationTest, ZipfPopulationSkewed) {
  const CubeShape shape = Shape44();
  Rng rng(2);
  auto pop = ZipfViewPopulation(shape, &rng, 1.5);
  ASSERT_TRUE(pop.ok());
  double max_f = 0.0;
  for (const QuerySpec& q : pop->queries()) max_f = std::max(max_f, q.frequency);
  EXPECT_GT(max_f, 0.5);
}

TEST(PopulationTest, FixedPopulation) {
  const CubeShape shape = Shape44();
  auto a = ElementId::AggregatedView(1, shape);
  auto pop = FixedPopulation({{*a, 1.0}}, shape);
  ASSERT_TRUE(pop.ok());
  EXPECT_EQ(pop->size(), 1u);
  EXPECT_DOUBLE_EQ((*pop)[0].frequency, 1.0);
}

TEST(PopulationTest, SampleRespectsWeights) {
  const CubeShape shape = Shape44();
  auto a = ElementId::AggregatedView(1, shape);
  auto b = ElementId::AggregatedView(2, shape);
  auto pop = FixedPopulation({{*a, 0.9}, {*b, 0.1}}, shape);
  ASSERT_TRUE(pop.ok());
  Rng rng(3);
  int count_a = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    if (pop->Sample(&rng) == *a) ++count_a;
  }
  EXPECT_NEAR(static_cast<double>(count_a) / n, 0.9, 0.03);
}

}  // namespace
}  // namespace vecube
