// ViewElementGraph: the two-way dependency graph of Section 4.
//
// The graph is *virtual*: its nodes are all Π(2n_m − 1) ElementIds of a
// cube shape, and edges are the P/R child (aggregation) and parent
// (synthesis) relations that ElementId navigation already provides. This
// class supplies the graph-level services: counting (Section 4.1, Table 1),
// enumeration, and materialization order helpers. It never stores the
// element data itself — that is ElementStore's job.

#ifndef VECUBE_CORE_GRAPH_H_
#define VECUBE_CORE_GRAPH_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/element_id.h"
#include "cube/shape.h"
#include "util/logging.h"
#include "util/result.h"

namespace vecube {

class ViewElementGraph {
 public:
  explicit ViewElementGraph(CubeShape shape) : shape_(std::move(shape)) {}

  [[nodiscard]] const CubeShape& shape() const { return shape_; }

  /// N_ve = Π(2 n_m − 1)   (Eq. 17)
  uint64_t NumElements() const;
  /// N_av = 2^d            (Eq. 18)
  uint64_t NumAggregatedViews() const;
  /// N_iv = Π(log2 n_m + 1) (Eq. 19)
  uint64_t NumIntermediate() const;
  /// N_rv = N_ve − N_iv    (Eq. 20)
  uint64_t NumResidual() const;
  /// N_b = Π(log2 n_m + 1): blocks of the cascade (Section 4.1).
  uint64_t NumBlocks() const;

  /// Visits every element of the graph in lexicographic id order. Beware:
  /// the graph is exponentially large; intended for small shapes and for
  /// cross-checking the closed forms.
  void ForEachElement(const std::function<void(const ElementId&)>& fn) const;

  /// All 2^d aggregated views, in mask order (mask 0 == the cube itself).
  std::vector<ElementId> AggregatedViews() const;

  /// All Π(K_m+1) intermediate elements (the Gaussian pyramid cells).
  std::vector<ElementId> IntermediateElements() const;

  /// Both children of `id` along `dim` ({P, R} order).
  Result<std::vector<ElementId>> Children(const ElementId& id,
                                          uint32_t dim) const;

  /// All ancestors of `id` (elements that can generate it by aggregation),
  /// excluding `id` itself, in id order. Scans the whole graph; for small
  /// shapes.
  std::vector<ElementId> Ancestors(const ElementId& id) const;

  /// All descendants of `id` (elements it can generate), excluding itself,
  /// in id order. Scans the whole graph; for small shapes.
  std::vector<ElementId> Descendants(const ElementId& id) const;

 private:
  CubeShape shape_;
};

/// Dense bijection between the N_ve elements of a shape and [0, N_ve),
/// the key of WordMemo, the per-node memo (core/word_memo.h).
/// The one encoder of ids: Σ code_m · weight_m over the heap-order codes
/// (ElementId), mixed-radix with dimension 0 most significant, so index
/// order is id order.
class ElementIndexer {
 public:
  explicit ElementIndexer(CubeShape shape);

  [[nodiscard]] const CubeShape& shape() const { return shape_; }
  [[nodiscard]] uint64_t size() const { return size_; }

  /// Inline: the planners' memo lookups encode once per visited node.
  [[nodiscard]] uint64_t Encode(const ElementId& id) const {
    VECUBE_DCHECK(id.Validate(shape_).ok());
    uint64_t index = 0;
    for (size_t m = 0; m < weight_.size(); ++m) {
      index += id.code(static_cast<uint32_t>(m)) * weight_[m];
    }
    return index;
  }
  [[nodiscard]] ElementId Decode(uint64_t index) const;

 private:
  CubeShape shape_;
  std::vector<uint64_t> weight_;  // place values over radices 2n_m - 1
  uint64_t size_ = 1;
};

}  // namespace vecube

#endif  // VECUBE_CORE_GRAPH_H_
