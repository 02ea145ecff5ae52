#include "core/element_id.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "core/graph.h"

namespace vecube {
namespace {

CubeShape Shape(std::vector<uint32_t> extents) {
  auto s = CubeShape::Make(std::move(extents));
  EXPECT_TRUE(s.ok());
  return *s;
}

// Shapes whose every id the property checks below visit: a lone
// one-cell dimension, mixed depths, extent-1 dims between deep ones, and
// four binary dims.
std::vector<CubeShape> PropertyShapes() {
  return {Shape({1}), Shape({2, 8}), Shape({4, 1, 16}), Shape({2, 2, 2, 2})};
}

// Every id of `shape`, in ViewElementGraph enumeration order.
std::vector<ElementId> AllIds(const CubeShape& shape) {
  std::vector<ElementId> ids;
  ViewElementGraph(shape).ForEachElement(
      [&](const ElementId& id) { ids.push_back(id); });
  return ids;
}

TEST(ElementIdTest, RootHasZeroCodes) {
  const ElementId root = ElementId::Root(3);
  EXPECT_TRUE(root.IsRoot());
  EXPECT_EQ(root.ndim(), 3u);
  for (uint32_t m = 0; m < 3; ++m) {
    EXPECT_EQ(root.dim(m).level, 0u);
    EXPECT_EQ(root.dim(m).offset, 0u);
  }
}

TEST(ElementIdTest, MakeValidates) {
  const CubeShape shape = Shape({4, 4});
  EXPECT_TRUE(ElementId::Make({{2, 3}, {0, 0}}, shape).ok());
  EXPECT_FALSE(ElementId::Make({{3, 0}, {0, 0}}, shape).ok());  // level > K
  EXPECT_FALSE(ElementId::Make({{1, 2}, {0, 0}}, shape).ok());  // offset >= 2^k
  EXPECT_FALSE(ElementId::Make({{0, 0}}, shape).ok());          // arity

  // dim(m) of every id round-trips through Make.
  for (const CubeShape& s : PropertyShapes()) {
    for (const ElementId& id : AllIds(s)) {
      std::vector<DimCode> codes;
      for (uint32_t m = 0; m < id.ndim(); ++m) codes.push_back(id.dim(m));
      auto back = ElementId::Make(codes, s);
      ASSERT_TRUE(back.ok()) << id.ToString();
      EXPECT_EQ(*back, id);
      EXPECT_TRUE(id.Validate(s).ok());
    }
  }
}

TEST(ElementIdTest, ChildMapping) {
  // P: (k, o) -> (k+1, 2o); R: (k, o) -> (k+1, 2o+1).   (Eq. 23)
  const CubeShape shape = Shape({8});
  const ElementId root = ElementId::Root(1);
  auto p = root.Child(0, StepKind::kPartial, shape);
  auto r = root.Child(0, StepKind::kResidual, shape);
  ASSERT_TRUE(p.ok() && r.ok());
  EXPECT_EQ(p->dim(0), (DimCode{1, 0}));
  EXPECT_EQ(r->dim(0), (DimCode{1, 1}));
  auto rp = r->Child(0, StepKind::kPartial, shape);
  auto rr = r->Child(0, StepKind::kResidual, shape);
  EXPECT_EQ(rp->dim(0), (DimCode{2, 2}));
  EXPECT_EQ(rr->dim(0), (DimCode{2, 3}));

  // Every id and splittable dimension: P = (k+1, 2o), R = (k+1, 2o+1),
  // and only the touched dimension changes.
  for (const CubeShape& s : PropertyShapes()) {
    for (const ElementId& id : AllIds(s)) {
      for (uint32_t m = 0; m < id.ndim(); ++m) {
        const DimCode c = id.dim(m);
        if (!id.CanSplit(m, s)) {
          EXPECT_EQ(c.level, s.log_extent(m));
          continue;
        }
        auto cp = id.Child(m, StepKind::kPartial, s);
        auto cr = id.Child(m, StepKind::kResidual, s);
        ASSERT_TRUE(cp.ok() && cr.ok());
        EXPECT_EQ(cp->dim(m), (DimCode{c.level + 1, 2 * c.offset}));
        EXPECT_EQ(cr->dim(m), (DimCode{c.level + 1, 2 * c.offset + 1}));
        for (uint32_t j = 0; j < id.ndim(); ++j) {
          if (j == m) continue;
          EXPECT_EQ(cp->dim(j), id.dim(j));
          EXPECT_EQ(cr->dim(j), id.dim(j));
        }
      }
    }
  }
}

TEST(ElementIdTest, CannotSplitBeyondDepth) {
  const CubeShape shape = Shape({4});
  auto leaf = ElementId::Make({{2, 1}}, shape);
  EXPECT_FALSE(leaf->CanSplit(0, shape));
  EXPECT_TRUE(
      leaf->Child(0, StepKind::kPartial, shape).status().IsFailedPrecondition());
}

TEST(ElementIdTest, ParentInvertsChild) {
  const CubeShape shape = Shape({8, 8});
  const ElementId root = ElementId::Root(2);
  auto c1 = root.Child(1, StepKind::kResidual, shape);
  auto c2 = c1->Child(1, StepKind::kPartial, shape);
  auto back = c2->Parent(1);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, *c1);
  EXPECT_TRUE(root.Parent(0).status().IsFailedPrecondition());

  // Every non-root code's parent is (k-1, o/2).
  for (const CubeShape& s : PropertyShapes()) {
    for (const ElementId& id : AllIds(s)) {
      for (uint32_t m = 0; m < id.ndim(); ++m) {
        const DimCode c = id.dim(m);
        auto parent = id.Parent(m);
        if (c.level == 0) {
          EXPECT_TRUE(parent.status().IsFailedPrecondition());
          continue;
        }
        ASSERT_TRUE(parent.ok());
        EXPECT_EQ(parent->dim(m), (DimCode{c.level - 1, c.offset / 2}));
        EXPECT_EQ(*parent->Child(m,
                                 c.offset % 2 == 0 ? StepKind::kPartial
                                                   : StepKind::kResidual,
                                 s),
                  id);
      }
    }
  }
}

TEST(ElementIdTest, SiblingToggles) {
  const CubeShape shape = Shape({4});
  auto p = ElementId::Root(1).Child(0, StepKind::kPartial, shape);
  auto sibling = p->Sibling(0);
  ASSERT_TRUE(sibling.ok());
  EXPECT_EQ(sibling->dim(0), (DimCode{1, 1}));
  EXPECT_EQ(*sibling->Sibling(0), *p);
  EXPECT_TRUE(p->IsPartialChild(0));
  EXPECT_FALSE(sibling->IsPartialChild(0));

  // Every non-root code's sibling flips the offset's low bit.
  for (const CubeShape& s : PropertyShapes()) {
    for (const ElementId& id : AllIds(s)) {
      for (uint32_t m = 0; m < id.ndim(); ++m) {
        const DimCode c = id.dim(m);
        EXPECT_EQ(id.IsPartialChild(m), c.offset % 2 == 0);
        if (c.level == 0) continue;
        auto sib = id.Sibling(m);
        ASSERT_TRUE(sib.ok());
        EXPECT_EQ(sib->dim(m), (DimCode{c.level, c.offset ^ 1u}));
        EXPECT_EQ(*sib->Sibling(m), id);
      }
    }
  }
}

TEST(ElementIdTest, AggregatedViewMasks) {
  const CubeShape shape = Shape({4, 8});
  auto v0 = ElementId::AggregatedView(0, shape);   // the cube
  auto v1 = ElementId::AggregatedView(1, shape);   // aggregate dim 0
  auto v3 = ElementId::AggregatedView(3, shape);   // total
  ASSERT_TRUE(v0.ok() && v1.ok() && v3.ok());
  EXPECT_TRUE(v0->IsRoot());
  EXPECT_EQ(v1->dim(0), (DimCode{2, 0}));
  EXPECT_EQ(v1->dim(1), (DimCode{0, 0}));
  EXPECT_EQ(v3->dim(1), (DimCode{3, 0}));
  EXPECT_TRUE(v0->IsAggregatedView(shape));
  EXPECT_TRUE(v1->IsAggregatedView(shape));
  EXPECT_TRUE(v3->IsAggregatedView(shape));
}

TEST(ElementIdTest, PartialChainIsIntermediateNotAggregated) {
  const CubeShape shape = Shape({8});
  auto p1 = ElementId::Intermediate({1}, shape);
  ASSERT_TRUE(p1.ok());
  EXPECT_TRUE(p1->IsIntermediate());
  EXPECT_FALSE(p1->IsAggregatedView(shape));  // partially aggregated only
  EXPECT_FALSE(p1->IsResidual());
}

TEST(ElementIdTest, ResidualClassification) {
  const CubeShape shape = Shape({4, 4});
  auto residual = ElementId::Make({{1, 1}, {0, 0}}, shape);
  EXPECT_TRUE(residual->IsResidual());
  EXPECT_FALSE(residual->IsIntermediate());
  EXPECT_FALSE(residual->IsAggregatedView(shape));
}

TEST(ElementIdTest, DataExtentsAndVolume) {
  const CubeShape shape = Shape({8, 4});
  auto id = ElementId::Make({{2, 3}, {1, 0}}, shape);
  EXPECT_EQ(id->DataExtents(shape), (std::vector<uint32_t>{2, 2}));
  EXPECT_EQ(id->DataVolume(shape), 4u);
  EXPECT_EQ(ElementId::Root(2).DataVolume(shape), 32u);
}

TEST(ElementIdTest, TotalLevel) {
  const CubeShape shape = Shape({8, 4});
  auto id = ElementId::Make({{2, 3}, {1, 0}}, shape);
  EXPECT_EQ(id->TotalLevel(), 3u);
  EXPECT_EQ(ElementId::Root(2).TotalLevel(), 0u);
}

TEST(ElementIdTest, PathFromRootEncodesOffsets) {
  const CubeShape shape = Shape({8});
  // offset 5 at level 3 = binary 101 = R, P, R from the root.
  auto id = ElementId::Make({{3, 5}}, shape);
  const auto path = id->PathFromRoot();
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[0], (CascadeStep{0, StepKind::kResidual}));
  EXPECT_EQ(path[1], (CascadeStep{0, StepKind::kPartial}));
  EXPECT_EQ(path[2], (CascadeStep{0, StepKind::kResidual}));
}

TEST(ElementIdTest, PathFromRootReachesId) {
  const CubeShape shape = Shape({8, 4});
  auto id = ElementId::Make({{2, 1}, {1, 1}}, shape);
  ElementId current = ElementId::Root(2);
  for (const CascadeStep& step : id->PathFromRoot()) {
    auto next = current.Child(step.dim, step.kind, shape);
    ASSERT_TRUE(next.ok());
    current = *next;
  }
  EXPECT_EQ(current, *id);
}

TEST(ElementIdTest, OrderingAndEquality) {
  const CubeShape shape = Shape({4, 4});
  auto a = ElementId::Make({{0, 0}, {1, 0}}, shape);
  auto b = ElementId::Make({{0, 0}, {1, 1}}, shape);
  EXPECT_TRUE(*a < *b);
  EXPECT_NE(*a, *b);
  EXPECT_EQ(*a, *ElementId::Make({{0, 0}, {1, 0}}, shape));

  // Sorting every id reproduces the enumeration order, which is
  // lexicographic in (level, offset) per dimension.
  for (const CubeShape& s : PropertyShapes()) {
    const std::vector<ElementId> ids = AllIds(s);
    std::vector<ElementId> sorted = ids;
    std::reverse(sorted.begin(), sorted.end());
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, ids);
    for (size_t i = 1; i < ids.size(); ++i) {
      std::vector<DimCode> a_codes, b_codes;
      for (uint32_t m = 0; m < s.ndim(); ++m) {
        a_codes.push_back(ids[i - 1].dim(m));
        b_codes.push_back(ids[i].dim(m));
      }
      EXPECT_LT(a_codes, b_codes);
    }
  }
}

TEST(ElementIdTest, HashDistinguishes) {
  const CubeShape shape = Shape({4, 4});
  std::unordered_set<ElementId, ElementIdHash> set;
  set.insert(*ElementId::Make({{1, 0}, {0, 0}}, shape));
  set.insert(*ElementId::Make({{0, 0}, {1, 0}}, shape));
  set.insert(*ElementId::Make({{1, 0}, {0, 0}}, shape));  // duplicate
  EXPECT_EQ(set.size(), 2u);

  // Equal ids hash equal, however they were built.
  const ElementIdHash hash;
  for (const CubeShape& s : PropertyShapes()) {
    const ElementIndexer indexer(s);
    for (const ElementId& id : AllIds(s)) {
      std::vector<DimCode> codes;
      for (uint32_t m = 0; m < id.ndim(); ++m) codes.push_back(id.dim(m));
      EXPECT_EQ(hash(*ElementId::Make(codes, s)), hash(id));
      EXPECT_EQ(hash(indexer.Decode(indexer.Encode(id))), hash(id));
    }
  }
}

TEST(ElementIdTest, ToString) {
  const CubeShape shape = Shape({4, 4});
  auto id = ElementId::Make({{2, 3}, {0, 0}}, shape);
  EXPECT_EQ(id->ToString(), "(2@3, 0@0)");
}

}  // namespace
}  // namespace vecube
