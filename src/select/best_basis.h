// Wavelet-packet best-basis selection for cube compression.
//
// Section 4.3: "by selecting the bases that best isolate the non-zero
// data from the zero areas of the data cube, the view element wavelet
// packet basis can represent the data cube in a compact form." The paper
// leaves this unexplored; we implement the Coifman-Wickerhauser [5]
// best-basis search with a significance-count cost: choose the complete,
// non-redundant tiling of the frequency plane minimizing the number of
// coefficients whose magnitude exceeds a threshold. It is Algorithm 1's
// tiling DP (core/tiling_dp.h) with that count as the leaf cost.

#ifndef VECUBE_SELECT_BEST_BASIS_H_
#define VECUBE_SELECT_BEST_BASIS_H_

#include <cstdint>
#include <vector>

#include "core/element_id.h"
#include "cube/shape.h"
#include "cube/tensor.h"
#include "util/result.h"

namespace vecube {

struct CompressionBasis {
  /// The selected non-redundant basis (a wavelet packet basis).
  std::vector<ElementId> basis;
  /// Coefficients with |value| > threshold across the basis — what a
  /// sparse encoding would need to store.
  uint64_t significant_coefficients = 0;
  /// Non-zero cells of the original cube, for comparison.
  uint64_t cube_nonzeros = 0;
};

/// Runs the best-basis DP: cost(V) = #significant coefficients of V's
/// data, minimized over all recursive tilings, each node solved once. The
/// basis lists each split's partial side first. InvalidArgument when the
/// graph has more than kDenseMemoLimit (2^24) nodes.
Result<CompressionBasis> SelectCompressionBasis(const CubeShape& shape,
                                                const Tensor& cube,
                                                double threshold);

}  // namespace vecube

#endif  // VECUBE_SELECT_BEST_BASIS_H_
