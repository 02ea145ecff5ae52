// Oracle tests for Algorithm 1's prune: the space-frequency DP keeps a node
// without solving its children when every query that overlaps the node also
// contains it. The exhaustive DP below, which solves all N_ve nodes, is the
// oracle: on random view populations and on random arbitrary-element
// populations, D(V) must match it bit for bit at every node, and the
// extracted basis and predicted cost must be identical. The DP fanned out
// over a ThreadPool must in turn match the serial DP bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <string>
#include <utility>
#include <vector>

#include "core/graph.h"
#include "select/algorithm1.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/population.h"

namespace vecube {
namespace {

CubeShape Shape(std::vector<uint32_t> extents) {
  auto s = CubeShape::Make(std::move(extents));
  EXPECT_TRUE(s.ok());
  return *s;
}

// Eqs. 29-31 evaluated at every node of the graph, with the argmin of each
// node kept in a dense table: Algorithm 1 as the paper states it.
class ExhaustiveSpaceFrequencyDp {
 public:
  ExhaustiveSpaceFrequencyDp(const CubeShape& shape,
                             const QueryPopulation& population)
      : shape_(shape), indexer_(shape), d_(shape.ndim()) {
    for (const QuerySpec& q : population.queries()) {
      Geom geom;
      geom.volume = 1;
      for (uint32_t m = 0; m < d_; ++m) {
        const DimCode c = q.view.dim(m);
        const uint32_t shift = shape.log_extent(m) - c.level;
        geom.lo[m] = static_cast<uint64_t>(c.offset) << shift;
        geom.hi[m] = static_cast<uint64_t>(c.offset + 1) << shift;
        geom.volume *= geom.hi[m] - geom.lo[m];
      }
      geom.frequency = q.frequency;
      queries_.push_back(geom);
    }
    dcost_.assign(indexer_.size(), -1.0);  // -1 == unvisited
    choice_.assign(indexer_.size(), kKeep);
    for (uint64_t index = 0; index < indexer_.size(); ++index) {
      Solve(indexer_.Decode(index));
    }
  }

  [[nodiscard]] double Cost(uint64_t index) const { return dcost_[index]; }

  // Procedure 2 over the argmin table.
  void Extract(const ElementId& id, std::vector<ElementId>* out) const {
    const int8_t choice = choice_[indexer_.Encode(id)];
    if (choice == kKeep) {
      out->push_back(id);
      return;
    }
    const auto m = static_cast<uint32_t>(choice);
    Extract(*id.Child(m, StepKind::kPartial, shape_), out);
    Extract(*id.Child(m, StepKind::kResidual, shape_), out);
  }

 private:
  static constexpr int8_t kKeep = -1;

  struct Geom {
    std::array<uint64_t, 16> lo;
    std::array<uint64_t, 16> hi;
    uint64_t volume;
    double frequency;
  };

  // C_n of Eq. 29.
  [[nodiscard]] double SupportCostOf(const ElementId& id) const {
    std::array<uint64_t, 16> lo, hi;
    uint64_t volume = 1;
    for (uint32_t m = 0; m < d_; ++m) {
      const uint32_t shift = shape_.log_extent(m) - id.dim(m).level;
      lo[m] = static_cast<uint64_t>(id.dim(m).offset) << shift;
      hi[m] = static_cast<uint64_t>(id.dim(m).offset + 1) << shift;
      volume *= hi[m] - lo[m];
    }
    double cost = 0.0;
    for (const Geom& q : queries_) {
      uint64_t overlap = 1;
      for (uint32_t m = 0; m < d_; ++m) {
        const uint64_t olo = std::max(lo[m], q.lo[m]);
        const uint64_t ohi = std::min(hi[m], q.hi[m]);
        if (ohi <= olo) {
          overlap = 0;
          break;
        }
        overlap *= ohi - olo;
      }
      if (overlap == 0) continue;
      cost += q.frequency *
              static_cast<double>((volume - overlap) + (q.volume - overlap));
    }
    return cost;
  }

  double Solve(const ElementId& id) {
    const uint64_t index = indexer_.Encode(id);
    if (dcost_[index] >= 0.0) return dcost_[index];
    double best = SupportCostOf(id);
    int8_t best_choice = kKeep;
    for (uint32_t m = 0; m < d_; ++m) {
      if (!id.CanSplit(m, shape_)) continue;
      const double tm = Solve(*id.Child(m, StepKind::kPartial, shape_)) +
                        Solve(*id.Child(m, StepKind::kResidual, shape_));
      if (tm < best) {
        best = tm;
        best_choice = static_cast<int8_t>(m);
      }
    }
    dcost_[index] = best;
    choice_[index] = best_choice;
    return best;
  }

  CubeShape shape_;
  ElementIndexer indexer_;
  uint32_t d_;
  std::vector<Geom> queries_;
  std::vector<double> dcost_;
  std::vector<int8_t> choice_;
};

// One to eight arbitrary elements with random frequencies, so containment
// patterns are not all anchored at the origin as aggregated views are.
QueryPopulation RandomElementPopulation(const CubeShape& shape,
                                        const ElementIndexer& indexer,
                                        Rng* rng) {
  std::vector<std::pair<ElementId, double>> entries;
  const uint64_t count = 1 + rng->UniformU64(8);
  for (uint64_t k = 0; k < count; ++k) {
    entries.emplace_back(indexer.Decode(rng->UniformU64(indexer.size())),
                         0.01 + rng->UniformDouble());
  }
  auto population = FixedPopulation(entries, shape);
  EXPECT_TRUE(population.ok());
  return *population;
}

// Compares the pruned DP with the oracle at every node, solving the nodes
// root-first (most are then memo reads of the root's solve) and leaf-first
// (every node is solved as the top of its own DP), then the selection.
void ExpectMatchesOracle(const CubeShape& shape,
                         const QueryPopulation& population,
                         const std::string& label) {
  const ElementIndexer indexer(shape);
  const ExhaustiveSpaceFrequencyDp oracle(shape, population);
  std::vector<ElementId> nodes;
  for (uint64_t index = 0; index < indexer.size(); ++index) {
    nodes.push_back(indexer.Decode(index));
  }
  for (const bool leaf_first : {false, true}) {
    std::vector<ElementId> order = nodes;
    if (leaf_first) std::reverse(order.begin(), order.end());
    auto costs = internal::MinTilingCosts(shape, population, order);
    ASSERT_TRUE(costs.ok());
    for (size_t k = 0; k < order.size(); ++k) {
      const double expected = oracle.Cost(indexer.Encode(order[k]));
      ASSERT_EQ(std::bit_cast<uint64_t>((*costs)[k]),
                std::bit_cast<uint64_t>(expected))
          << label << (leaf_first ? " leaf-first" : " root-first") << " node "
          << order[k].ToString() << ": " << (*costs)[k] << " vs " << expected;
    }
  }
  auto selection = SelectMinCostBasis(shape, population);
  ASSERT_TRUE(selection.ok());
  std::vector<ElementId> basis;
  oracle.Extract(ElementId::Root(shape.ndim()), &basis);
  std::sort(basis.begin(), basis.end());
  EXPECT_EQ(selection->basis, basis) << label;
  EXPECT_EQ(std::bit_cast<uint64_t>(selection->predicted_cost),
            std::bit_cast<uint64_t>(oracle.Cost(0)))
      << label;
}

class Algorithm1PruneOracle
    : public ::testing::TestWithParam<std::vector<uint32_t>> {};

TEST_P(Algorithm1PruneOracle, EveryNodeMatchesOnViewPopulations) {
  const CubeShape shape = Shape(GetParam());
  Rng rng(1998);
  for (int trial = 0; trial < 20; ++trial) {
    auto population = RandomViewPopulation(shape, &rng);
    ASSERT_TRUE(population.ok());
    ExpectMatchesOracle(shape, *population,
                        shape.ToString() + " trial " + std::to_string(trial));
  }
}

TEST_P(Algorithm1PruneOracle, EveryNodeMatchesOnElementPopulations) {
  const CubeShape shape = Shape(GetParam());
  const ElementIndexer indexer(shape);
  Rng rng(2203);
  for (int trial = 0; trial < 20; ++trial) {
    const QueryPopulation population =
        RandomElementPopulation(shape, indexer, &rng);
    ExpectMatchesOracle(shape, population,
                        shape.ToString() + " trial " + std::to_string(trial));
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, Algorithm1PruneOracle,
                         ::testing::Values(std::vector<uint32_t>{4, 4},
                                           std::vector<uint32_t>{8, 4, 4},
                                           std::vector<uint32_t>{4, 4, 4},
                                           std::vector<uint32_t>{2, 2, 2, 2,
                                                                  2, 2}));

// A query that overlaps a node without containing it forces the node's
// children to be solved even when other queries contain it. On 4x4 the
// grand total (root) contains every node; the view at (1, 0) overlaps the
// root without containing it, so the root must still split.
TEST(Algorithm1PruneTest, PartialOverlapStillSplits) {
  const CubeShape shape = Shape({4, 4});
  auto root = ElementId::Root(2);
  auto cell = ElementId::Make({{2, 1}, {2, 3}}, shape);
  ASSERT_TRUE(cell.ok());
  auto population = FixedPopulation({{root, 1.0}, {*cell, 100.0}}, shape);
  ASSERT_TRUE(population.ok());
  ExpectMatchesOracle(shape, *population, "root + hot cell");
  auto selection = SelectMinCostBasis(shape, *population);
  ASSERT_TRUE(selection.ok());
  EXPECT_NE(std::find(selection->basis.begin(), selection->basis.end(), *cell),
            selection->basis.end());
}

// The parent's exhaustive DP on the 32^4 graph of perfbench's workloads
// (15,752,961 nodes): the pruned DP must reproduce its predicted cost bit
// for bit, and its basis size, on perfbench's population seed and three
// others, serially and fanned out over `pool`.
void ExpectPinnedCostsOn32To4Graph(ThreadPool* pool) {
  auto shape = CubeShape::MakeSquare(4, 32);
  ASSERT_TRUE(shape.ok());
  struct Pin {
    uint64_t seed;
    uint64_t cost_bits;
    size_t basis_size;
  };
  for (const Pin& pin : {Pin{1998, 0x412294601af8f28dULL, 3},
                         Pin{1, 0x411d84a81d95fcd9ULL, 6},
                         Pin{2, 0x4126b83ac109ac4fULL, 2},
                         Pin{3, 0x412068b2c485e1baULL, 8}}) {
    Rng rng(pin.seed);
    auto population = RandomViewPopulation(*shape, &rng);
    ASSERT_TRUE(population.ok());
    auto selection = SelectMinCostBasis(*shape, *population, pool);
    ASSERT_TRUE(selection.ok());
    EXPECT_EQ(std::bit_cast<uint64_t>(selection->predicted_cost),
              pin.cost_bits)
        << "seed " << pin.seed << ": " << selection->predicted_cost;
    EXPECT_EQ(selection->basis.size(), pin.basis_size) << "seed " << pin.seed;
  }
}

TEST(Algorithm1PruneTest, PinnedCostsOn32To4Graph) {
  ExpectPinnedCostsOn32To4Graph(nullptr);
}

// Kept out of the ThreadSanitizer job with the serial pin (CI excludes
// On32To4Graph): ParallelAlgorithm1Test covers the same fan-out on 16^4.
TEST(Algorithm1PruneTest, PinnedCostsOn32To4GraphOnFourLanes) {
  ThreadPool pool(4);
  ExpectPinnedCostsOn32To4Graph(&pool);
}

// The DP fanned out over pools of 1, 2 and 4 lanes against the serial DP:
// the predicted cost's bits and the basis, and D(V) node for node, solving
// `nodes` in order so that each unsolved one fans out from itself.
void ExpectPoolsMatchSerial(const CubeShape& shape,
                            const QueryPopulation& population,
                            const std::vector<ElementId>& nodes,
                            const std::string& label) {
  auto serial = SelectMinCostBasis(shape, population);
  ASSERT_TRUE(serial.ok());
  auto serial_costs = internal::MinTilingCosts(shape, population, nodes);
  ASSERT_TRUE(serial_costs.ok());
  for (const uint32_t lanes : {1u, 2u, 4u}) {
    ThreadPool pool(lanes);
    const std::string at = label + " at " + std::to_string(lanes) + " lanes";
    auto pooled = SelectMinCostBasis(shape, population, &pool);
    ASSERT_TRUE(pooled.ok());
    EXPECT_EQ(std::bit_cast<uint64_t>(pooled->predicted_cost),
              std::bit_cast<uint64_t>(serial->predicted_cost))
        << at;
    EXPECT_EQ(pooled->basis, serial->basis) << at;
    auto pooled_costs =
        internal::MinTilingCosts(shape, population, nodes, &pool);
    ASSERT_TRUE(pooled_costs.ok());
    for (size_t k = 0; k < nodes.size(); ++k) {
      ASSERT_EQ(std::bit_cast<uint64_t>((*pooled_costs)[k]),
                std::bit_cast<uint64_t>((*serial_costs)[k]))
          << at << " node " << nodes[k].ToString();
    }
  }
}

// Every node leaf-first on graphs of up to 1024 nodes; otherwise 64 random
// nodes, then the root.
std::vector<ElementId> NodesToCompare(const ElementIndexer& indexer,
                                      Rng* rng) {
  std::vector<ElementId> nodes;
  if (indexer.size() <= 1024) {
    for (uint64_t index = indexer.size(); index-- > 0;) {
      nodes.push_back(indexer.Decode(index));
    }
    return nodes;
  }
  for (int k = 0; k < 64; ++k) {
    nodes.push_back(indexer.Decode(rng->UniformU64(indexer.size())));
  }
  nodes.push_back(indexer.Decode(0));
  return nodes;
}

// Fewer trials on the large graphs keep the suite quick under TSan.
int TrialsFor(const ElementIndexer& indexer) {
  return indexer.size() <= 1024 ? 8 : 2;
}

class ParallelAlgorithm1Test
    : public ::testing::TestWithParam<std::vector<uint32_t>> {};

TEST_P(ParallelAlgorithm1Test, PoolsMatchSerialOnViewPopulations) {
  const CubeShape shape = Shape(GetParam());
  const ElementIndexer indexer(shape);
  Rng rng(1998);
  for (int trial = 0; trial < TrialsFor(indexer); ++trial) {
    auto population = RandomViewPopulation(shape, &rng);
    ASSERT_TRUE(population.ok());
    ExpectPoolsMatchSerial(shape, *population, NodesToCompare(indexer, &rng),
                           shape.ToString() + " trial " +
                               std::to_string(trial));
  }
}

TEST_P(ParallelAlgorithm1Test, PoolsMatchSerialOnElementPopulations) {
  const CubeShape shape = Shape(GetParam());
  const ElementIndexer indexer(shape);
  Rng rng(2203);
  for (int trial = 0; trial < TrialsFor(indexer); ++trial) {
    const QueryPopulation population =
        RandomElementPopulation(shape, indexer, &rng);
    ExpectPoolsMatchSerial(shape, population, NodesToCompare(indexer, &rng),
                           shape.ToString() + " trial " +
                               std::to_string(trial));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ParallelAlgorithm1Test,
    ::testing::Values(std::vector<uint32_t>{4, 4},
                      std::vector<uint32_t>{8, 4, 4},
                      std::vector<uint32_t>{4, 4, 4},
                      std::vector<uint32_t>{2, 2, 2, 2, 2, 2},
                      std::vector<uint32_t>{256, 256},
                      std::vector<uint32_t>{16, 16, 16, 16}));

}  // namespace
}  // namespace vecube
