#include "select/best_basis.h"

#include <cmath>
#include <utility>

#include "core/tiling_dp.h"
#include "haar/transform.h"
#include "util/logging.h"

namespace vecube {

namespace {

// The best basis's leaf cost: the node's significant-coefficient count,
// settled at 0 (no split counts fewer, and ties keep the node). Each
// node's tensor is split from its parent's on the way down.
struct SignificantCountPolicy {
  using Cost = uint64_t;
  using Data = Tensor;

  Leaf<uint64_t> Evaluate(const ElementId&, const Tensor& data) const {
    uint64_t count = 0;
    for (uint64_t i = 0; i < data.size(); ++i) {
      if (std::fabs(data[i]) > threshold) ++count;
    }
    return {count, count == 0};
  }

  static Tensor Child(const Tensor& data, uint32_t m, StepKind kind) {
    Result<Tensor> child = kind == StepKind::kPartial
                               ? PartialSum(data, m)
                               : PartialResidual(data, m);
    VECUBE_CHECK(child.ok());
    return std::move(child).value();
  }

  double threshold;
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
  VECUBE_RETURN_NOT_OK(CheckDenseGraph(shape));
  TilingDp<SignificantCountPolicy> dp(shape,
                                      SignificantCountPolicy{threshold});
  const ElementId root = ElementId::Root(shape.ndim());
  CompressionBasis result;
  result.significant_coefficients = dp.Solve(root, cube);
  dp.Extract(root, cube, &result.basis);
  result.cube_nonzeros = SignificantCountPolicy{0.0}.Evaluate(root, cube).cost;
  return result;
}

}  // namespace vecube
