#include "range/range_engine.h"

#include <gtest/gtest.h>

#include "core/assembly.h"
#include "core/basis.h"
#include "core/computer.h"
#include "core/graph.h"
#include "cube/synthetic.h"
#include "range/prefix_baseline.h"
#include "serve/serving.h"
#include "util/rng.h"

namespace vecube {
namespace {

CubeShape Shape(std::vector<uint32_t> extents) {
  auto s = CubeShape::Make(std::move(extents));
  EXPECT_TRUE(s.ok());
  return *s;
}

TEST(RangeSpecTest, Validation) {
  const CubeShape shape = Shape({8, 4});
  EXPECT_TRUE(RangeSpec::Make({0, 0}, {8, 4}, shape).ok());
  EXPECT_TRUE(RangeSpec::Make({7, 3}, {1, 1}, shape).ok());
  EXPECT_FALSE(RangeSpec::Make({0, 0}, {9, 4}, shape).ok());   // too wide
  EXPECT_FALSE(RangeSpec::Make({8, 0}, {1, 1}, shape).ok());   // off the end
  EXPECT_FALSE(RangeSpec::Make({0, 0}, {0, 4}, shape).ok());   // zero width
  EXPECT_FALSE(RangeSpec::Make({0}, {8}, shape).ok());         // arity
}

TEST(RangeSpecTest, Volume) {
  const CubeShape shape = Shape({8, 4});
  auto r = RangeSpec::Make({1, 1}, {3, 2}, shape);
  EXPECT_EQ(r->Volume(), 6u);
}

TEST(DecomposeIntervalTest, FullIntervalIsOneBlock) {
  const auto blocks = DecomposeInterval(0, 8, 3);
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0], (DyadicBlock{3, 0}));
}

TEST(DecomposeIntervalTest, SingleCell) {
  const auto blocks = DecomposeInterval(5, 1, 3);
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0], (DyadicBlock{0, 5}));
}

TEST(DecomposeIntervalTest, UnalignedRange) {
  // [1, 7) over extent 8 = [1,2) + [2,4) + [4,6) + [6,7).
  const auto blocks = DecomposeInterval(1, 6, 3);
  ASSERT_EQ(blocks.size(), 4u);
  EXPECT_EQ(blocks[0], (DyadicBlock{0, 1}));
  EXPECT_EQ(blocks[1], (DyadicBlock{1, 1}));
  EXPECT_EQ(blocks[2], (DyadicBlock{1, 2}));
  EXPECT_EQ(blocks[3], (DyadicBlock{0, 6}));
}

TEST(DecomposeIntervalTest, CoversExactlyOnce) {
  // Property sweep: every (start, width) decomposition tiles the interval.
  const uint32_t n = 16, log_n = 4;
  for (uint32_t start = 0; start < n; ++start) {
    for (uint32_t width = 1; start + width <= n; ++width) {
      const auto blocks = DecomposeInterval(start, width, log_n);
      std::vector<int> covered(n, 0);
      for (const DyadicBlock& b : blocks) {
        for (uint32_t i = 0; i < (1u << b.level); ++i) {
          covered[(b.index << b.level) + i]++;
        }
      }
      for (uint32_t i = 0; i < n; ++i) {
        EXPECT_EQ(covered[i], (i >= start && i < start + width) ? 1 : 0)
            << "start " << start << " width " << width << " cell " << i;
      }
      // Canonical decomposition size bound.
      EXPECT_LE(blocks.size(), 2u * log_n);
    }
  }
}

struct Fixture {
  CubeShape shape;
  Tensor cube;
  ElementStore store;
};

Fixture MakeFixture(std::vector<uint32_t> extents, uint64_t seed,
                    bool full_pyramid) {
  auto shape = CubeShape::Make(std::move(extents));
  EXPECT_TRUE(shape.ok());
  Rng rng(seed);
  auto cube = UniformIntegerCube(*shape, &rng, 0, 9);
  EXPECT_TRUE(cube.ok());
  ElementComputer computer(*shape, &*cube);
  std::vector<ElementId> set;
  if (full_pyramid) {
    set = ViewElementGraph(*shape).IntermediateElements();
  } else {
    set = CubeOnlySet(*shape);
  }
  auto store = computer.Materialize(set);
  EXPECT_TRUE(store.ok());
  return Fixture{*shape, std::move(cube).value(), std::move(store).value()};
}

TEST(RangeEngineTest, MatchesNaiveOnFullPyramid) {
  Fixture f = MakeFixture({8, 8}, 1, /*full_pyramid=*/true);
  RangeEngine engine(&f.store, MissingElementPolicy::kError);
  Rng rng(42);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<uint32_t> start(2), width(2);
    for (uint32_t m = 0; m < 2; ++m) {
      start[m] = static_cast<uint32_t>(rng.UniformU64(8));
      width[m] = 1 + static_cast<uint32_t>(rng.UniformU64(8 - start[m]));
    }
    auto range = RangeSpec::Make(start, width, f.shape);
    ASSERT_TRUE(range.ok());
    auto fast = engine.RangeSum(*range);
    auto naive = NaiveRangeSum(f.cube, f.shape, *range);
    ASSERT_TRUE(fast.ok() && naive.ok());
    EXPECT_DOUBLE_EQ(*fast, *naive) << range->ToString();
  }
}

TEST(RangeEngineTest, AlignedRangeIsSingleRead) {
  // Eq. 40: a power-of-two aligned range is one cell of the k-th partial
  // aggregation.
  Fixture f = MakeFixture({16}, 2, /*full_pyramid=*/true);
  RangeEngine engine(&f.store, MissingElementPolicy::kError);
  auto range = RangeSpec::Make({8}, {4}, f.shape);
  RangeQueryStats stats;
  auto sum = engine.RangeSum(*range, &stats);
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(stats.cell_reads, 1u);
  EXPECT_EQ(stats.additions, 0u);
}

TEST(RangeEngineTest, ErrorPolicyOnMissingElement) {
  Fixture f = MakeFixture({8, 8}, 3, /*full_pyramid=*/false);
  RangeEngine engine(&f.store, MissingElementPolicy::kError);
  // A width-2 aligned block needs the level-1 intermediate, absent here.
  auto range = RangeSpec::Make({0, 0}, {2, 1}, f.shape);
  EXPECT_TRUE(engine.RangeSum(*range).status().IsNotFound());
  // Width-1 blocks only touch the root, which is present.
  auto cell = RangeSpec::Make({3, 3}, {1, 1}, f.shape);
  EXPECT_TRUE(engine.RangeSum(*cell).ok());
}

TEST(RangeEngineTest, AssemblePolicyFillsGapsAndCaches) {
  Fixture f = MakeFixture({8, 8}, 4, /*full_pyramid=*/false);
  AssemblyEngine assembler(&f.store);
  ElementServer server(&assembler, &f.store, /*cache=*/nullptr);
  RangeEngine engine(&f.store, MissingElementPolicy::kAssemble, &server);
  auto range = RangeSpec::Make({0, 0}, {4, 4}, f.shape);
  RangeQueryStats stats;
  auto sum = engine.RangeSum(*range, &stats);
  ASSERT_TRUE(sum.ok());
  auto naive = NaiveRangeSum(f.cube, f.shape, *range);
  EXPECT_DOUBLE_EQ(*sum, *naive);
  EXPECT_GT(stats.elements_missing, 0u);
  EXPECT_GT(stats.assembly_ops, 0u);
  // Second identical query hits the assembled cache.
  RangeQueryStats stats2;
  ASSERT_TRUE(engine.RangeSum(*range, &stats2).ok());
  EXPECT_EQ(stats2.elements_missing, 0u);
  EXPECT_EQ(stats2.assembly_ops, 0u);
}

TEST(RangeEngineTest, FarFewerReadsThanNaive) {
  Fixture f = MakeFixture({32, 32}, 5, /*full_pyramid=*/true);
  RangeEngine engine(&f.store, MissingElementPolicy::kError);
  auto range = RangeSpec::Make({1, 1}, {30, 30}, f.shape);
  RangeQueryStats stats;
  uint64_t naive_reads = 0;
  auto fast = engine.RangeSum(*range, &stats);
  auto naive = NaiveRangeSum(f.cube, f.shape, *range, &naive_reads);
  ASSERT_TRUE(fast.ok() && naive.ok());
  EXPECT_DOUBLE_EQ(*fast, *naive);
  EXPECT_EQ(naive_reads, 900u);
  EXPECT_LE(stats.cell_reads, 64u);  // (2 log2 32)^2
}

TEST(PrefixSumTest, MatchesNaiveEverywhere) {
  const CubeShape shape = Shape({8, 4});
  Rng rng(6);
  auto cube = UniformIntegerCube(shape, &rng, 0, 9);
  auto prefix = PrefixSumCube::Build(shape, *cube);
  ASSERT_TRUE(prefix.ok());
  for (uint32_t s0 = 0; s0 < 8; ++s0) {
    for (uint32_t w0 = 1; s0 + w0 <= 8; ++w0) {
      for (uint32_t s1 = 0; s1 < 4; ++s1) {
        for (uint32_t w1 = 1; s1 + w1 <= 4; ++w1) {
          auto range = RangeSpec::Make({s0, s1}, {w0, w1}, shape);
          auto fast = prefix->RangeSum(*range);
          auto naive = NaiveRangeSum(*cube, shape, *range);
          ASSERT_TRUE(fast.ok() && naive.ok());
          EXPECT_DOUBLE_EQ(*fast, *naive);
        }
      }
    }
  }
}

TEST(PrefixSumTest, ConstantReadsPerQuery) {
  const CubeShape shape = Shape({16, 16});
  Rng rng(7);
  auto cube = UniformIntegerCube(shape, &rng);
  auto prefix = PrefixSumCube::Build(shape, *cube);
  uint64_t reads = 0;
  auto range = RangeSpec::Make({3, 5}, {9, 7}, shape);
  ASSERT_TRUE(prefix->RangeSum(*range, &reads).ok());
  EXPECT_LE(reads, 4u);  // 2^d with zero-start corners skipped
}

TEST(PrefixSumTest, RejectsMismatchedCube) {
  const CubeShape shape = Shape({8});
  auto wrong = Tensor::Zeros({4});
  EXPECT_FALSE(PrefixSumCube::Build(shape, *wrong).ok());
}

}  // namespace
}  // namespace vecube
