// Procedure3Planner: the Procedure-3 recursion (Section 5.3, Eqs. 32-34)
// over a set of stored view elements, without their data.
//
//   F_n = min over stored ancestors s of (Vol(s) − Vol(n))   [aggregation]
//   R_n = Vol(n) + min_m (T_p^m + T_r^m)                     [synthesis]
//   T_n = min(F_n, R_n)
//
// It is the one planner of the tree. AssemblyEngine executes the plans it
// records over its store; Algorithm 2 and the configuration advisor score
// hypothetical element sets with it, and the Section 7.2.2 refinement
// keeps only the elements the recorded plans read (UsedElements).
//
// Implementation note: the recursion is the tree's one tiling DP
// (core/tiling_dp.h) with F_n as the leaf cost and Vol(n) as the split
// charge; the memo word records each node's plan beside its cost. F_n is
// also the DP's upper bound, which prices every split from its children's
// aggregation alone before any child is planned. A node is expanded into
// its synthesis cones only when some stored element is finer than it and
// comparable with it (DESIGN.md §1, Procedure 3), so a plan visits the
// nodes near its target rather than the whole graph.
//
// Planning is serial: the memo tables are unlocked. Once Warm() has
// planned every node a target's execution visits, Plan and SourceOf on
// those nodes only read the memo and may run concurrently.

#ifndef VECUBE_CORE_PLANNER_H_
#define VECUBE_CORE_PLANNER_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/element_id.h"
#include "core/graph.h"
#include "core/tiling_dp.h"
#include "core/word_memo.h"
#include "cube/shape.h"
#include "util/result.h"

namespace vecube {

/// Plans the cheapest assembly of any view element from a fixed set of
/// stored elements. Plans are memoized across calls.
class Procedure3Planner {
 public:
  enum class Choice : uint8_t { kAggregate, kSynthesize, kNone };

  /// One node's plan. A kAggregate node reads SourceOf(node).
  struct Node {
    uint64_t cost = kInfiniteCost;
    Choice choice = Choice::kNone;
    uint32_t split_dim = 0;  // kSynthesize
  };

  /// InvalidArgument if an id does not fit the shape.
  static Result<Procedure3Planner> Make(const CubeShape& shape,
                                        const std::vector<ElementId>& ids);

  /// T_n for one target; kInfiniteCost when the set cannot reconstruct it
  /// or `target` does not fit the shape.
  uint64_t Cost(const ElementId& target);

  /// The plan of `target`, which must fit the shape.
  Node Plan(const ElementId& target);

  /// The stored element a kAggregate node aggregates down from: its
  /// smallest stored ancestor-or-self. Valid once `target` is planned.
  [[nodiscard]] ElementId SourceOf(const ElementId& target) const;

  /// Plans every node the execution of `target` (which must fit the
  /// shape) visits, adding their encoded indices to `visited`; nodes
  /// already in it are skipped. Afterwards Plan and SourceOf on them are
  /// memo reads.
  void Warm(const ElementId& target, std::unordered_set<uint64_t>* visited);

  /// The stored elements the recorded plans of `targets` read, i.e. the
  /// sources of their aggregate leaves, in store order. Every other
  /// stored element is obsolete for these targets: removing it changes
  /// no recorded plan and hence no cost (Section 7.2.2). Incomplete if a
  /// target is unreachable.
  Result<std::vector<ElementId>> UsedElements(
      const std::vector<ElementId>& targets);

 private:
  // Procedure 3 as a TilingDp policy: leaf F_n, split charge Vol(n),
  // settled when F_n <= Vol(n) or n has no finer relative.
  struct Policy {
    using Cost = uint64_t;
    struct Data {};
    explicit Policy(const CubeShape& shape) : indexer(shape) {}
    // A stored element as the ancestor memo refers to it.
    struct StoredRef {
      ElementId id;
      uint64_t volume;  // kInfiniteCost for the "no ancestor" sentinel
    };

    Leaf<uint64_t> Evaluate(const ElementId& node, const Data&);
    // F_n, which no plan of n exceeds.
    uint64_t UpperBound(const ElementId& node) {
      return Aggregate(node, node.DataVolume(indexer.shape()));
    }
    static Data Child(const Data&, uint32_t, StepKind) { return {}; }

    // F_n of a node of Vol(n) `volume`; kInfiniteCost without a stored
    // ancestor.
    uint64_t Aggregate(const ElementId& node, uint64_t volume);

    // The smallest stored ancestor-or-self, as an ancestor-memo word: 1 +
    // its position in `stored` (position 0 is the "none" sentinel).
    uint32_t MinAncestor(const ElementId& node);
    // True when some stored element is comparable with `node` in every
    // dimension (one code a dyadic prefix of the other) and strictly finer
    // in at least one: a "finer relative". Without one, synthesis cannot
    // beat aggregation (DESIGN.md §1, Procedure 3).
    [[nodiscard]] bool HasFinerRelative(const ElementId& node) const;
    // The ancestor-memo word MinAncestor recorded for a visited node.
    [[nodiscard]] uint32_t Recorded(const ElementId& node) const {
      return ancestor_memo.Get(indexer.Encode(node));
    }

    ElementIndexer indexer;
    // Stored elements: encoded index -> position in `stored`, and `stored`
    // itself, behind the "none" sentinel at position 0.
    std::unordered_map<uint64_t, uint32_t> stored_slot;
    std::vector<StoredRef> stored{StoredRef{ElementId{}, kInfiniteCost}};
    WordMemo<uint32_t> ancestor_memo{indexer.size()};
  };
  using Dp = TilingDp<Policy>;

  Procedure3Planner(const CubeShape& shape, Policy policy)
      : dp_(shape, std::move(policy)) {}

  Dp dp_;
};

}  // namespace vecube

#endif  // VECUBE_CORE_PLANNER_H_
