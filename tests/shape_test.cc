#include "cube/shape.h"

#include <gtest/gtest.h>

namespace vecube {
namespace {

TEST(ShapeTest, MakeValidatesPowerOfTwo) {
  EXPECT_TRUE(CubeShape::Make({4, 8}).ok());
  EXPECT_FALSE(CubeShape::Make({4, 6}).ok());
  EXPECT_FALSE(CubeShape::Make({0, 4}).ok());
}

TEST(ShapeTest, MakeRejectsEmpty) {
  auto r = CubeShape::Make({});
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(ShapeTest, MakeRejectsTooManyDims) {
  // kMaxDims is the one dimension cap: element ids hold that many codes
  // inline, so no shape above it is representable.
  EXPECT_FALSE(CubeShape::Make(std::vector<uint32_t>(25, 2)).ok());
  EXPECT_FALSE(CubeShape::Make(std::vector<uint32_t>(24, 2)).ok());
  EXPECT_FALSE(CubeShape::Make(std::vector<uint32_t>(17, 2)).ok());
  EXPECT_TRUE(CubeShape::Make(std::vector<uint32_t>(16, 2)).ok());
  EXPECT_EQ(kMaxDims, 16u);
}

TEST(ShapeTest, ExtentOneIsAllowed) {
  auto r = CubeShape::Make({1, 4});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->volume(), 4u);
  EXPECT_EQ(r->log_extent(0), 0u);
  EXPECT_EQ(r->log_extent(1), 2u);
}

TEST(ShapeTest, VolumeAndLogExtents) {
  auto r = CubeShape::Make({4, 8, 2});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ndim(), 3u);
  EXPECT_EQ(r->volume(), 64u);
  EXPECT_EQ(r->log_extent(0), 2u);
  EXPECT_EQ(r->log_extent(1), 3u);
  EXPECT_EQ(r->log_extent(2), 1u);
}

TEST(ShapeTest, RowMajorStrides) {
  auto r = CubeShape::Make({4, 8, 2});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stride(2), 1u);
  EXPECT_EQ(r->stride(1), 2u);
  EXPECT_EQ(r->stride(0), 16u);
}

TEST(ShapeTest, FlatIndexCoordsRoundTrip) {
  auto r = CubeShape::Make({4, 2, 8});
  ASSERT_TRUE(r.ok());
  for (uint64_t flat = 0; flat < r->volume(); ++flat) {
    const auto coords = r->Coords(flat);
    EXPECT_EQ(r->FlatIndex(coords), flat);
  }
}

TEST(ShapeTest, MakeSquare) {
  auto r = CubeShape::MakeSquare(4, 16);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ndim(), 4u);
  EXPECT_EQ(r->volume(), 65536u);
}

TEST(ShapeTest, Equality) {
  auto a = CubeShape::Make({4, 4});
  auto b = CubeShape::Make({4, 4});
  auto c = CubeShape::Make({4, 8});
  EXPECT_EQ(*a, *b);
  EXPECT_NE(*a, *c);
}

TEST(ShapeTest, ToString) {
  auto r = CubeShape::Make({4, 16});
  EXPECT_EQ(r->ToString(), "[4, 16]");
}

TEST(ShapeTest, RejectsHugeVolume) {
  // 2^41 cells exceeds the 2^40 allocation guard.
  EXPECT_FALSE(
      CubeShape::Make({1u << 31, 1u << 10}).ok());
}

}  // namespace
}  // namespace vecube
