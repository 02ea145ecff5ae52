#include "select/best_basis.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>

#include "core/assembly.h"
#include "core/basis.h"
#include "core/computer.h"
#include "cube/synthetic.h"
#include "oracle/tilings.h"
#include "util/rng.h"

namespace vecube {
namespace {

CubeShape Shape(std::vector<uint32_t> extents) {
  auto s = CubeShape::Make(std::move(extents));
  EXPECT_TRUE(s.ok());
  return *s;
}

TEST(BestBasisTest, ResultIsNonRedundantBasis) {
  const CubeShape shape = Shape({8, 8});
  Rng rng(1);
  auto cube = SparseRandomCube(shape, &rng, 0.1);
  auto result = SelectCompressionBasis(shape, *cube, 0.5);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(IsNonRedundantBasis(result->basis, shape));
}

TEST(BestBasisTest, ConstantCubeCompressesToOneCoefficient) {
  // A constant cube has all its energy in the fully-aggregated element:
  // every residual is exactly zero.
  const CubeShape shape = Shape({8, 8});
  auto cube = Tensor::FromData(std::vector<uint32_t>{8, 8},
                               std::vector<double>(64, 5.0));
  auto result = SelectCompressionBasis(shape, *cube, 0.0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->significant_coefficients, 1u);
  EXPECT_EQ(result->cube_nonzeros, 64u);
}

TEST(BestBasisTest, NeverWorseThanKeepingTheCube) {
  const CubeShape shape = Shape({16, 8});
  for (uint64_t seed = 0; seed < 5; ++seed) {
    Rng rng(seed);
    auto cube = SparseRandomCube(shape, &rng, 0.2);
    auto result = SelectCompressionBasis(shape, *cube, 0.0);
    ASSERT_TRUE(result.ok());
    EXPECT_LE(result->significant_coefficients, result->cube_nonzeros);
  }
}

TEST(BestBasisTest, HigherThresholdNeverIncreasesCount) {
  const CubeShape shape = Shape({8, 8});
  Rng rng(7);
  auto cube = UniformIntegerCube(shape, &rng, 0, 9);
  auto tight = SelectCompressionBasis(shape, *cube, 0.0);
  auto loose = SelectCompressionBasis(shape, *cube, 10.0);
  ASSERT_TRUE(tight.ok() && loose.ok());
  EXPECT_LE(loose->significant_coefficients, tight->significant_coefficients);
}

TEST(BestBasisTest, SelectedBasisReconstructsTheCube) {
  // The chosen basis is complete, so assembling the root from its
  // materialized elements must reproduce the cube exactly.
  const CubeShape shape = Shape({8, 8});
  Rng rng(9);
  auto cube = SparseRandomCube(shape, &rng, 0.15);
  auto result = SelectCompressionBasis(shape, *cube, 0.5);
  ASSERT_TRUE(result.ok());

  ElementComputer computer(shape, &*cube);
  auto store = computer.Materialize(result->basis);
  ASSERT_TRUE(store.ok());
  AssemblyEngine engine(&*store);
  auto back = engine.Assemble(ElementId::Root(2));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->ApproxEquals(*cube, 0.0));
}

TEST(BestBasisTest, OptimalOverAllGuillotineTilings) {
  // The brute-force oracle: every guillotine tiling, each element's
  // significant count taken from its directly computed tensor. The search
  // must reach the minimum and return the first minimal tiling in
  // enumeration order, which pins the keep-then-lowest-dimension tie-break.
  // (8x4 would have 671,364,078 tilings; 8x2 keeps the long dimension 0.)
  for (const auto& extents :
       {std::vector<uint32_t>{4, 4}, std::vector<uint32_t>{8, 2},
        std::vector<uint32_t>{2, 2, 2}, std::vector<uint32_t>{4, 2, 2}}) {
    const CubeShape shape = Shape(extents);
    std::vector<std::vector<ElementId>> tilings;
    EnumerateTilings(ElementId::Root(shape.ndim()), shape, &tilings);
    Rng rng(41);
    for (const bool sparse : {true, false}) {
      auto cube = sparse ? SparseRandomCube(shape, &rng, 0.3)
                         : UniformIntegerCube(shape, &rng, -3, 3);
      ASSERT_TRUE(cube.ok());
      ElementComputer computer(shape, &*cube);
      for (const double threshold : {0.0, 0.5}) {
        std::map<ElementId, uint64_t> counts;
        auto count_of = [&](const ElementId& id) {
          auto [it, fresh] = counts.try_emplace(id, 0);
          if (fresh) {
            auto data = computer.Compute(id);
            EXPECT_TRUE(data.ok());
            for (uint64_t i = 0; i < data->size(); ++i) {
              if (std::fabs((*data)[i]) > threshold) ++it->second;
            }
          }
          return it->second;
        };
        uint64_t best = std::numeric_limits<uint64_t>::max();
        const std::vector<ElementId>* first_best = nullptr;
        for (const auto& tiling : tilings) {
          uint64_t total = 0;
          for (const ElementId& id : tiling) total += count_of(id);
          if (total < best) {
            best = total;
            first_best = &tiling;
          }
        }
        auto result = SelectCompressionBasis(shape, *cube, threshold);
        ASSERT_TRUE(result.ok());
        EXPECT_EQ(result->significant_coefficients, best)
            << shape.ToString() << " sparse " << sparse << " threshold "
            << threshold;
        EXPECT_EQ(result->basis, *first_best)
            << shape.ToString() << " sparse " << sparse << " threshold "
            << threshold;
      }
    }
  }
}

TEST(BestBasisTest, ValidatesArguments) {
  const CubeShape shape = Shape({8});
  auto wrong = Tensor::Zeros({4});
  EXPECT_FALSE(SelectCompressionBasis(shape, *wrong, 0.0).ok());
  auto cube = Tensor::Zeros({8});
  EXPECT_FALSE(SelectCompressionBasis(shape, *cube, -1.0).ok());
}

TEST(BestBasisTest, RejectsOversizedGraphs) {
  // 2^16 cells, but 3^16 ~ 4.3e7 view elements: beyond the dense memo,
  // which the search checks for itself.
  const CubeShape shape = Shape(std::vector<uint32_t>(16, 2));
  auto cube = Tensor::Zeros(std::vector<uint32_t>(16, 2));
  ASSERT_TRUE(cube.ok());
  auto result = SelectCompressionBasis(shape, *cube, 0.0);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace vecube
