// TilingDp: the guillotine-tiling DP of Algorithm 1 (Section 5.2) and of
// the Section 4.3 best basis. Keep a node, or split it along m:
//
//   D(V) = min( leaf(V),  min_m  D(P1^m V) + D(R1^m V) )     (Eqs. 30-31)
//
// and extract the argmin tiling with Procedure 2. The Policy prices a leaf
// (`Leaf<Cost> Evaluate(node, data)`, Cost a non-negative double or
// uint64_t) and derives a child's Data (`Data Child(data, m, kind)`), built
// only when the child's memo word is unset. A settled leaf is kept without
// solving its children. Ties break toward keep, then toward the lowest
// dimension. The memo holds one word per node, the cost's bits with the
// sign bit set as the visited flag; Extract re-derives each choice with
// Choose instead of reading an argmin table.

#ifndef VECUBE_SELECT_TILING_DP_H_
#define VECUBE_SELECT_TILING_DP_H_

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/element_id.h"
#include "core/graph.h"
#include "core/word_memo.h"
#include "cube/shape.h"
#include "util/result.h"

namespace vecube {

template <typename Cost>
struct Leaf {
  Cost cost;
  bool settled;  // keeping the node is known to be optimal
};

template <typename Policy>
class TilingDp {
 public:
  using Cost = typename Policy::Cost;
  using Data = typename Policy::Data;

  /// InvalidArgument when the graph has more than kDenseMemoLimit nodes.
  static Result<TilingDp> Make(const CubeShape& shape, Policy policy) {
    if (ViewElementGraph(shape).NumElements() > kDenseMemoLimit) {
      return Status::InvalidArgument(
          "view element graph too large for the dense DP (> 2^24 nodes)");
    }
    return TilingDp(shape, std::move(policy));
  }

  /// D(node), given the node's own Data.
  Cost Solve(const ElementId& node, const Data& data) {
    const uint64_t index = indexer_.Encode(node);
    if (const uint64_t word = memo_.Get(index); word != 0) return Decode(word);
    return SolveAt(index, node, data);
  }

  /// Appends the argmin tiling of a solved node, partial before residual.
  void Extract(const ElementId& node, const Data& data,
               std::vector<ElementId>* out) {
    const int choice = Choose(node, data).choice;
    if (choice == kKeep) {
      out->push_back(node);
      return;
    }
    const auto m = static_cast<uint32_t>(choice);
    for (const StepKind kind : {StepKind::kPartial, StepKind::kResidual}) {
      Extract(node.ChildUnchecked(m, kind), policy_.Child(data, m, kind), out);
    }
  }

 private:
  static constexpr int kKeep = -1;
  static constexpr uint64_t kVisited = uint64_t{1} << 63;

  struct Best {
    Cost cost;
    int choice;  // kKeep or the split dimension
  };

  TilingDp(const CubeShape& shape, Policy policy)
      : indexer_(shape), policy_(std::move(policy)) {}

  static Cost Decode(uint64_t word) {
    return std::bit_cast<Cost>(word & ~kVisited);
  }

  Cost SolveAt(uint64_t index, const ElementId& node, const Data& data) {
    const Cost cost = Choose(node, data).cost;
    memo_.Set(index, std::bit_cast<uint64_t>(cost) | kVisited);
    return cost;
  }

  Cost SolveChild(const ElementId& node, const Data& data, uint32_t m,
                  StepKind kind) {
    const ElementId child = node.ChildUnchecked(m, kind);
    const uint64_t index = indexer_.Encode(child);
    if (const uint64_t word = memo_.Get(index); word != 0) return Decode(word);
    return SolveAt(index, child, policy_.Child(data, m, kind));
  }

  Best Choose(const ElementId& node, const Data& data) {
    const Leaf<Cost> leaf = policy_.Evaluate(node, data);
    Best best{leaf.cost, kKeep};
    if (leaf.settled) return best;
    const CubeShape& shape = indexer_.shape();
    for (uint32_t m = 0; m < shape.ndim(); ++m) {
      if (!node.CanSplit(m, shape)) continue;
      const Cost tp = SolveChild(node, data, m, StepKind::kPartial);
      const Cost tr = SolveChild(node, data, m, StepKind::kResidual);
      const Cost tm = tp + tr;
      if (tm < best.cost) best = Best{tm, static_cast<int>(m)};
    }
    return best;
  }

  ElementIndexer indexer_;
  WordMemo<uint64_t> memo_{indexer_.size()};
  Policy policy_;
};

}  // namespace vecube

#endif  // VECUBE_SELECT_TILING_DP_H_
