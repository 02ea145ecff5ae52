#include "select/algorithm1.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdlib>
#include <memory>

#include "core/freq_rect.h"
#include "core/graph.h"
#include "util/logging.h"

namespace vecube {

namespace {

constexpr uint64_t kMaxGraphNodes = uint64_t{1} << 24;

// Allocation-free description of one query's frequency rectangle.
struct QueryGeom {
  std::array<FreqInterval, kMaxDims> iv;
  uint64_t volume;
  double frequency;
};

class SpaceFrequencyDp {
 public:
  SpaceFrequencyDp(const CubeShape& shape, const QueryPopulation& population)
      : shape_(shape),
        indexer_(shape),
        memo_(static_cast<uint64_t*>(
            std::calloc(indexer_.size(), sizeof(uint64_t)))) {
    VECUBE_CHECK(memo_ != nullptr);
    for (const QuerySpec& q : population.queries()) {
      QueryGeom geom;
      geom.volume = 1;
      for (uint32_t m = 0; m < shape.ndim(); ++m) {
        geom.iv[m] = DimInterval(q.view, m, shape);
        geom.volume *= geom.iv[m].width();
      }
      geom.frequency = q.frequency;
      queries_.push_back(geom);
    }
  }

  double Solve(const ElementId& node) {
    uint64_t& word = memo_[indexer_.Encode(node)];
    if (word != 0) return std::bit_cast<double>(word & ~kVisited);
    const double cost = Choose(node).cost;
    word = std::bit_cast<uint64_t>(cost) | kVisited;
    return cost;
  }

  // Procedure 2 over the solved memo. Each basis-tree node's choice is
  // re-derived by Choose, whose child solves are now memo reads.
  void Extract(const ElementId& node, std::vector<ElementId>* out) {
    const int choice = Choose(node).choice;
    if (choice == kKeep) {
      out->push_back(node);
      return;
    }
    const auto m = static_cast<uint32_t>(choice);
    Extract(node.ChildUnchecked(m, StepKind::kPartial), out);
    Extract(node.ChildUnchecked(m, StepKind::kResidual), out);
  }

 private:
  static constexpr int kKeep = -1;
  // Memo word of a visited node: D's bits with the (otherwise clear) sign
  // bit set, so 0 means "not yet visited" and the calloc'd table needs no
  // fill. D is finite and non-negative because frequencies are.
  static constexpr uint64_t kVisited = uint64_t{1} << 63;

  struct Best {
    double cost;
    int choice;  // kKeep or the split dimension
  };

  struct FreeDeleter {
    void operator()(uint64_t* words) const { std::free(words); }
  };

  // C_n of Eq. 29 against all queries, allocation-free. Sets `*contained`
  // when every query that overlaps the element also contains it.
  double SupportCostOf(const ElementId& node, bool* contained) const {
    const uint32_t d = shape_.ndim();
    // Left uninitialized: a zero fill per node costs as much as the geometry.
    std::array<uint64_t, kMaxDims> lo, hi;
    uint64_t volume = 1;
    for (uint32_t m = 0; m < d; ++m) {
      const FreqInterval iv = DimInterval(node, m, shape_);
      lo[m] = iv.lo;
      hi[m] = iv.hi;
      volume *= iv.width();
    }
    double cost = 0.0;
    *contained = true;
    for (const QueryGeom& q : queries_) {
      uint64_t overlap = 1;
      for (uint32_t m = 0; m < d; ++m) {
        const uint64_t olo = std::max(lo[m], q.iv[m].lo);
        const uint64_t ohi = std::min(hi[m], q.iv[m].hi);
        if (ohi <= olo) {
          overlap = 0;
          break;
        }
        overlap *= ohi - olo;
      }
      if (overlap == 0) continue;
      if (overlap != volume) *contained = false;
      cost += q.frequency *
              static_cast<double>((volume - overlap) + (q.volume - overlap));
    }
    return cost;
  }

  // Eqs. 30-31 at one node. When every overlapping query contains the node,
  // keeping it is optimal and its children are not solved (DESIGN.md §1,
  // Algorithm 1). Ties break toward keep, then toward the lowest dimension.
  Best Choose(const ElementId& node) {
    bool contained = false;
    Best best{SupportCostOf(node, &contained), kKeep};
    if (contained) return best;
    for (uint32_t m = 0; m < shape_.ndim(); ++m) {
      if (!node.CanSplit(m, shape_)) continue;
      const double tp = Solve(node.ChildUnchecked(m, StepKind::kPartial));
      const double tr = Solve(node.ChildUnchecked(m, StepKind::kResidual));
      const double tm = tp + tr;
      if (tm < best.cost) best = Best{tm, static_cast<int>(m)};
    }
    return best;
  }

  const CubeShape& shape_;
  ElementIndexer indexer_;
  std::vector<QueryGeom> queries_;
  std::unique_ptr<uint64_t[], FreeDeleter> memo_;
};

Status ValidateInputs(const CubeShape& shape,
                      const QueryPopulation& population) {
  if (ViewElementGraph(shape).NumElements() > kMaxGraphNodes) {
    return Status::InvalidArgument(
        "view element graph too large for the dense DP (> 2^24 nodes)");
  }
  for (const QuerySpec& q : population.queries()) {
    if (q.view.ndim() != shape.ndim()) {
      return Status::InvalidArgument("query arity does not match cube");
    }
  }
  return Status::OK();
}

}  // namespace

Result<BasisSelection> SelectMinCostBasis(const CubeShape& shape,
                                          const QueryPopulation& population) {
  VECUBE_RETURN_NOT_OK(ValidateInputs(shape, population));
  SpaceFrequencyDp dp(shape, population);
  BasisSelection selection;
  const ElementId root = ElementId::Root(shape.ndim());
  selection.predicted_cost = dp.Solve(root);
  dp.Extract(root, &selection.basis);
  std::sort(selection.basis.begin(), selection.basis.end());
  return selection;
}

namespace internal {

Result<std::vector<double>> MinTilingCosts(
    const CubeShape& shape, const QueryPopulation& population,
    const std::vector<ElementId>& nodes) {
  VECUBE_RETURN_NOT_OK(ValidateInputs(shape, population));
  SpaceFrequencyDp dp(shape, population);
  std::vector<double> costs;
  costs.reserve(nodes.size());
  for (const ElementId& node : nodes) {
    VECUBE_RETURN_NOT_OK(node.Validate(shape));
    costs.push_back(dp.Solve(node));
  }
  return costs;
}

}  // namespace internal

}  // namespace vecube
