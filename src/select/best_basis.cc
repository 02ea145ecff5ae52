#include "select/best_basis.h"

#include <cmath>
#include <unordered_map>

#include "core/graph.h"
#include "haar/transform.h"
#include "util/logging.h"

namespace vecube {

namespace {

constexpr uint64_t kMaxGraphNodes = uint64_t{1} << 22;

uint64_t CountSignificant(const Tensor& data, double threshold) {
  uint64_t count = 0;
  for (uint64_t i = 0; i < data.size(); ++i) {
    if (std::fabs(data[i]) > threshold) ++count;
  }
  return count;
}

// The best-basis DP. Each element's tensor is split from its parent's on
// the way down; costs are memoized per element, though a child reached
// again through another parent is still split before its memo hit.
class BestBasisSearch {
 public:
  BestBasisSearch(const CubeShape& shape, double threshold)
      : shape_(shape), threshold_(threshold), indexer_(shape) {
    cost_.assign(indexer_.size(), kUnvisited);
    choice_.assign(indexer_.size(), kKeep);
  }

  uint64_t Solve(const ElementId& id, const Tensor& data) {
    const uint64_t index = indexer_.Encode(id);
    if (cost_[index] != kUnvisited) return cost_[index];

    uint64_t best = CountSignificant(data, threshold_);
    int8_t best_choice = kKeep;
    for (uint32_t m = 0; m < shape_.ndim(); ++m) {
      if (!id.CanSplit(m, shape_)) continue;
      Tensor p, r;
      VECUBE_CHECK(PartialPair(data, m, &p, &r).ok());
      const uint64_t split =
          Solve(id.ChildUnchecked(m, StepKind::kPartial), p) +
          Solve(id.ChildUnchecked(m, StepKind::kResidual), r);
      if (split < best) {
        best = split;
        best_choice = static_cast<int8_t>(m);
      }
    }
    cost_[index] = best;
    choice_[index] = best_choice;
    return best;
  }

  void Extract(const ElementId& id, std::vector<ElementId>* out) const {
    const uint64_t index = indexer_.Encode(id);
    VECUBE_CHECK(cost_[index] != kUnvisited);
    if (choice_[index] == kKeep) {
      out->push_back(id);
      return;
    }
    const uint32_t m = static_cast<uint32_t>(choice_[index]);
    Extract(id.ChildUnchecked(m, StepKind::kPartial), out);
    Extract(id.ChildUnchecked(m, StepKind::kResidual), out);
  }

 private:
  static constexpr uint64_t kUnvisited = ~uint64_t{0};
  static constexpr int8_t kKeep = -1;

  const CubeShape& shape_;
  double threshold_;
  ElementIndexer indexer_;
  std::vector<uint64_t> cost_;
  std::vector<int8_t> choice_;
};

}  // namespace

Result<CompressionBasis> SelectCompressionBasis(const CubeShape& shape,
                                                const Tensor& cube,
                                                double threshold) {
  if (cube.extents() != shape.extents()) {
    return Status::InvalidArgument("cube extents do not match shape");
  }
  if (threshold < 0.0) {
    return Status::InvalidArgument("threshold must be non-negative");
  }
  if (ViewElementGraph(shape).NumElements() > kMaxGraphNodes) {
    return Status::InvalidArgument(
        "view element graph too large for the best-basis search");
  }
  BestBasisSearch search(shape, threshold);
  CompressionBasis result;
  result.significant_coefficients =
      search.Solve(ElementId::Root(shape.ndim()), cube);
  search.Extract(ElementId::Root(shape.ndim()), &result.basis);
  result.cube_nonzeros = CountSignificant(cube, 0.0);
  return result;
}

}  // namespace vecube
