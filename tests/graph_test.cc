#include "core/graph.h"

#include <gtest/gtest.h>

#include <set>

#include "core/counts.h"

namespace vecube {
namespace {

CubeShape Shape(std::vector<uint32_t> extents) {
  auto s = CubeShape::Make(std::move(extents));
  EXPECT_TRUE(s.ok());
  return *s;
}

TEST(GraphTest, PaperTable1ClosedForms) {
  // Table 1 of the paper, all five columns.
  struct Row {
    uint32_t d, n;
    uint64_t av, iv, rv, ve;
  };
  const Row rows[] = {
      {2, 256, 4, 81, 261040, 261121},
      {3, 32, 8, 216, 249831, 250047},
      {4, 16, 16, 625, 922896, 923521},
      {5, 8, 32, 1024, 758351, 759375},
      {8, 4, 256, 6561, 5758240, 5764801},
  };
  for (const Row& row : rows) {
    const CubeShape shape =
        Shape(std::vector<uint32_t>(row.d, row.n));
    ViewElementGraph graph(shape);
    EXPECT_EQ(graph.NumAggregatedViews(), row.av) << "d=" << row.d;
    EXPECT_EQ(graph.NumIntermediate(), row.iv) << "d=" << row.d;
    EXPECT_EQ(graph.NumResidual(), row.rv) << "d=" << row.d;
    EXPECT_EQ(graph.NumElements(), row.ve) << "d=" << row.d;
  }
}

TEST(GraphTest, CensusEnumerationMatchesClosedForm) {
  for (const auto& extents :
       {std::vector<uint32_t>{4}, std::vector<uint32_t>{8},
        std::vector<uint32_t>{2, 2}, std::vector<uint32_t>{4, 8},
        std::vector<uint32_t>{4, 4, 4}, std::vector<uint32_t>{2, 4, 2, 4}}) {
    const CubeShape shape = Shape(extents);
    EXPECT_EQ(CensusClosedForm(shape), CensusByEnumeration(shape))
        << shape.ToString();
  }
}

TEST(GraphTest, ForEachElementVisitsDistinctIds) {
  const CubeShape shape = Shape({4, 4});
  ViewElementGraph graph(shape);
  std::set<ElementId> seen;
  graph.ForEachElement([&](const ElementId& id) { seen.insert(id); });
  EXPECT_EQ(seen.size(), graph.NumElements());
}

TEST(GraphTest, AggregatedViewsCount) {
  const CubeShape shape = Shape({4, 8, 2});
  ViewElementGraph graph(shape);
  const auto views = graph.AggregatedViews();
  EXPECT_EQ(views.size(), 8u);
  for (const ElementId& v : views) {
    EXPECT_TRUE(v.IsAggregatedView(shape));
  }
}

TEST(GraphTest, IntermediateElementsCount) {
  const CubeShape shape = Shape({4, 8});
  ViewElementGraph graph(shape);
  const auto elements = graph.IntermediateElements();
  EXPECT_EQ(elements.size(), graph.NumIntermediate());
  for (const ElementId& id : elements) {
    EXPECT_TRUE(id.IsIntermediate());
  }
}

TEST(GraphTest, ChildrenPair) {
  const CubeShape shape = Shape({4, 4});
  ViewElementGraph graph(shape);
  auto children = graph.Children(ElementId::Root(2), 1);
  ASSERT_TRUE(children.ok());
  ASSERT_EQ(children->size(), 2u);
  EXPECT_EQ((*children)[0].dim(1), (DimCode{1, 0}));
  EXPECT_EQ((*children)[1].dim(1), (DimCode{1, 1}));
}

TEST(GraphTest, AncestorsOfLeaf) {
  const CubeShape shape = Shape({4});
  ViewElementGraph graph(shape);
  auto leaf = ElementId::Make({{2, 3}}, shape);
  const auto ancestors = graph.Ancestors(*leaf);
  // Prefixes: (0,0), (1,1) — the leaf itself excluded.
  EXPECT_EQ(ancestors.size(), 2u);
}

TEST(GraphTest, DescendantsOfRoot1D) {
  const CubeShape shape = Shape({4});
  ViewElementGraph graph(shape);
  const auto descendants = graph.Descendants(ElementId::Root(1));
  EXPECT_EQ(descendants.size(), graph.NumElements() - 1);
}

TEST(GraphTest, AncestorsDescendantsAreInverse) {
  const CubeShape shape = Shape({4, 2});
  ViewElementGraph graph(shape);
  std::vector<ElementId> all;
  graph.ForEachElement([&](const ElementId& id) { all.push_back(id); });
  for (const ElementId& a : all) {
    for (const ElementId& b : graph.Descendants(a)) {
      const auto ancestors = graph.Ancestors(b);
      EXPECT_NE(std::find(ancestors.begin(), ancestors.end(), a),
                ancestors.end());
    }
  }
}

TEST(GraphTest, NumBlocksMatchesIntermediate) {
  const CubeShape shape = Shape({16, 16});
  ViewElementGraph graph(shape);
  EXPECT_EQ(graph.NumBlocks(), 25u);
}

TEST(IndexerTest, RoundTripAllElements) {
  for (const CubeShape& shape :
       {Shape({4, 8}), Shape({1}), Shape({2, 8}), Shape({4, 1, 16}),
        Shape({2, 2, 2, 2})}) {
    ElementIndexer indexer(shape);
    ViewElementGraph graph(shape);
    EXPECT_EQ(indexer.size(), graph.NumElements());
    // Encode is a bijection onto [0, N_ve) that follows enumeration order.
    uint64_t expected = 0;
    std::set<uint64_t> seen;
    graph.ForEachElement([&](const ElementId& id) {
      const uint64_t index = indexer.Encode(id);
      EXPECT_EQ(index, expected++) << id.ToString();
      EXPECT_TRUE(seen.insert(index).second) << id.ToString();
      EXPECT_EQ(indexer.Decode(index), id);
    });
    EXPECT_EQ(seen.size(), indexer.size());
  }
}

TEST(IndexerTest, RootEncodesDeterministically) {
  const CubeShape shape = Shape({4, 4});
  ElementIndexer indexer(shape);
  const uint64_t root_index = indexer.Encode(ElementId::Root(2));
  EXPECT_EQ(indexer.Decode(root_index), ElementId::Root(2));
}

}  // namespace
}  // namespace vecube
