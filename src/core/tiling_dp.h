// TilingDp: the one keep-or-split recursion of the tree. Keep node n, or
// split it along m into its P and R children for a per-node charge:
//
//   D(n) = min( leaf(n),  min_m  charge(n) + D(P1^m n) + D(R1^m n) )
//
// and extract the argmin tiling with Procedure 2. Its policies (DESIGN.md
// §1): Algorithm 1 (Eqs. 30-31) and the Section 4.3 best basis, charge 0;
// Procedure 3 (Eqs. 32-34, core/planner.h), charge Vol(n).
//
// The Policy prices a leaf (`Leaf<Cost> Evaluate(node, data)`, Cost a
// non-negative double or uint64_t) and derives a child's Data (`Data
// Child(data, m, kind)`), built only when the child's memo word is unset.
// A settled leaf is kept without solving its children. A policy may also
// supply `Cost UpperBound(node)` >= D(node): each split is first priced
// with its children's bounds, which seeds the best split before any child
// is solved. Every split costs at least the charge, so splits stop being
// tried once the best is at most the charge. Ties break toward keep, then
// the bound's split, then the lowest dimension. A uint64_t cost saturates
// at kInfiniteCost (a node that cannot be produced), so an infinite child
// never wins.
//
// The memo is one WordMemo word per node, hashed above kDenseMemoLimit
// nodes (CheckDenseGraph rejects such graphs for callers that visit most
// of them). A uint64_t word packs the argmin beside the cost, so a solved
// node's plan is one memo read; a double word is the cost's bits with the
// sign bit as the visited flag, and Lookup re-derives the choice.
//
// Solve on a ThreadPool fans the nodes near the top out over the pool's
// lanes, which share the dense memo: D(n) is a pure function of n, so two
// lanes that race on a node write the same word (DESIGN.md §1). Only a
// policy whose Evaluate and Child are const and thread-safe may fan out.
// Extract stays serial, and the serial Solve is the fan-out's oracle.

#ifndef VECUBE_CORE_TILING_DP_H_
#define VECUBE_CORE_TILING_DP_H_

#include <bit>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/element_id.h"
#include "core/graph.h"
#include "core/word_memo.h"
#include "cube/shape.h"
#include "util/logging.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace vecube {

/// Cost value for unreachable targets.
inline constexpr uint64_t kInfiniteCost =
    std::numeric_limits<uint64_t>::max();

template <typename Cost>
struct Leaf {
  Cost cost;
  bool settled;          // keeping the node is known to be optimal
  Cost split_charge{};   // added to the cost of every split of the node
};

/// InvalidArgument when the graph of `shape` has more than kDenseMemoLimit
/// nodes.
inline Status CheckDenseGraph(const CubeShape& shape) {
  if (ViewElementGraph(shape).NumElements() > kDenseMemoLimit) {
    return Status::InvalidArgument(
        "view element graph too large for the dense DP (> 2^24 nodes)");
  }
  return Status::OK();
}

template <typename Policy>
class TilingDp {
 public:
  using Cost = typename Policy::Cost;
  using Data = typename Policy::Data;

  /// The choice to keep a node; any other choice is a split dimension.
  static constexpr uint32_t kKeep = kMaxDims;

  struct Best {
    Cost cost;
    uint32_t choice;
  };

  TilingDp(const CubeShape& shape, Policy policy)
      : indexer_(shape), policy_(std::move(policy)) {}

  /// D(node), given the node's own Data.
  Cost Solve(const ElementId& node, const Data& data) {
    const uint64_t index = indexer_.Encode(node);
    if (const uint64_t word = memo_.Get(index); word != 0) return CostOf(word);
    return SolveAt(index, node, data).cost;
  }

  /// D(node), with `pool`'s lanes first solving the distinct nodes within
  /// kFanOutDepth levels below `node`, deepest first, on the shared memo;
  /// then `node` itself is solved on the calling thread. The same value,
  /// bit for bit, as Solve(node, data), which a null or one-lane pool runs.
  /// Dense memo only.
  Cost Solve(const ElementId& node, const Data& data, ThreadPool* pool) {
    static_assert(
        requires(const Policy& p, const ElementId& n, const Data& d) {
          p.Evaluate(n, d);
          p.Child(d, 0u, StepKind::kPartial);
        },
        "only a policy with const Evaluate and Child may fan out");
    if (pool == nullptr || pool->num_threads() <= 1 ||
        memo_.Get(indexer_.Encode(node)) != 0) {
      return Solve(node, data);
    }
    memo_.Reserve();
    const std::vector<std::pair<ElementId, Data>> frontier =
        Frontier(node, data);
    const uint64_t n = frontier.size();
    pool->ParallelFor(n, /*grain=*/1, [&](uint64_t begin, uint64_t end) {
      for (uint64_t i = begin; i < end; ++i) {
        const auto& [below, below_data] = frontier[n - 1 - i];
        Solve(below, below_data);
      }
    });
    return Solve(node, data);
  }

  /// D(node) and its choice, solving the node if it is unvisited. For a
  /// visited node with a uint64_t cost this only reads the memo.
  Best Lookup(const ElementId& node, const Data& data) {
    const uint64_t index = indexer_.Encode(node);
    const uint64_t word = memo_.Get(index);
    if (word == 0) return SolveAt(index, node, data);
    if constexpr (kIntegral) {
      return Best{CostOf(word), static_cast<uint32_t>(word) & kChoiceMask};
    } else {
      return Choose(node, data);
    }
  }

  /// Appends the argmin tiling of `node`, partial before residual.
  void Extract(const ElementId& node, const Data& data,
               std::vector<ElementId>* out) {
    const uint32_t choice = Lookup(node, data).choice;
    if (choice == kKeep) {
      out->push_back(node);
      return;
    }
    for (const StepKind kind : {StepKind::kPartial, StepKind::kResidual}) {
      Extract(node.ChildUnchecked(choice, kind),
              policy_.Child(data, choice, kind), out);
    }
  }

  [[nodiscard]] const ElementIndexer& indexer() const { return indexer_; }
  [[nodiscard]] const Policy& policy() const { return policy_; }

 private:
  static constexpr bool kIntegral = std::is_integral_v<Cost>;
  // A uint64_t word is (cost + 1) << kChoiceBits | choice. kInfiniteCost
  // wraps to 0, but only with kKeep, whose choice bits are nonzero (a split
  // is only recorded at a finite cost), so a visited word is never 0.
  static constexpr uint32_t kChoiceBits = 5;
  static constexpr uint32_t kChoiceMask = (1u << kChoiceBits) - 1;
  static_assert(kKeep <= kChoiceMask && kKeep != 0);
  static constexpr uint64_t kVisited = uint64_t{1} << 63;
  // How far below the solved node the fan-out reaches. On the 32^4 graph
  // depth 4 gives 768 nodes, and 4 lanes repeat 1-4% of the serial DP's
  // Evaluate calls; shallower frontiers give fewer, more overlapping tasks
  // (depth 1 repeated 16-19%).
  static constexpr uint32_t kFanOutDepth = 4;

  static uint64_t Pack(const Best& best) {
    if constexpr (kIntegral) {
      VECUBE_CHECK(best.cost == kInfiniteCost ||
                   best.cost < (kInfiniteCost >> kChoiceBits));
      return ((best.cost + 1) << kChoiceBits) | best.choice;
    } else {
      return std::bit_cast<uint64_t>(best.cost) | kVisited;
    }
  }

  static Cost CostOf(uint64_t word) {
    if constexpr (kIntegral) {
      return (word >> kChoiceBits) - 1;
    } else {
      return std::bit_cast<Cost>(word & ~kVisited);
    }
  }

  static Cost Add(Cost a, Cost b) {
    if constexpr (kIntegral) {
      return a > kInfiniteCost - b ? kInfiniteCost : a + b;
    } else {
      return a + b;
    }
  }

  // The distinct nodes 1..kFanOutDepth levels below `node`, level by level,
  // each with its Data. Every path from `node` to a descendant has the same
  // length, so each node appears once, at its depth.
  [[nodiscard]] std::vector<std::pair<ElementId, Data>> Frontier(
      const ElementId& node, const Data& data) const {
    const CubeShape& shape = indexer_.shape();
    std::vector<std::pair<ElementId, Data>> nodes;
    std::vector<std::pair<ElementId, Data>> level{{node, data}};
    std::unordered_set<uint64_t> seen;
    for (uint32_t depth = 1; depth <= kFanOutDepth; ++depth) {
      std::vector<std::pair<ElementId, Data>> next;
      for (const auto& [parent, parent_data] : level) {
        for (uint32_t m = 0; m < shape.ndim(); ++m) {
          if (!parent.CanSplit(m, shape)) continue;
          for (const StepKind kind :
               {StepKind::kPartial, StepKind::kResidual}) {
            const ElementId child = parent.ChildUnchecked(m, kind);
            if (seen.insert(indexer_.Encode(child)).second) {
              next.emplace_back(child, policy_.Child(parent_data, m, kind));
            }
          }
        }
      }
      nodes.insert(nodes.end(), next.begin(), next.end());
      level = std::move(next);
    }
    return nodes;
  }

  Best SolveAt(uint64_t index, const ElementId& node, const Data& data) {
    const Best best = Choose(node, data);
    memo_.Set(index, Pack(best));
    return best;
  }

  Cost SolveChild(const ElementId& node, const Data& data, uint32_t m,
                  StepKind kind) {
    const ElementId child = node.ChildUnchecked(m, kind);
    const uint64_t index = indexer_.Encode(child);
    if (const uint64_t word = memo_.Get(index); word != 0) return CostOf(word);
    return SolveAt(index, child, policy_.Child(data, m, kind)).cost;
  }

  // Prices the splits of `node` in dimension order, with `child(m, kind)`
  // as each child's cost, while one could still beat `best`.
  template <typename ChildCost>
  void TrySplits(const ElementId& node, Cost charge, ChildCost child,
                 Best* best) {
    const CubeShape& shape = indexer_.shape();
    for (uint32_t m = 0; m < shape.ndim() && charge < best->cost; ++m) {
      if (!node.CanSplit(m, shape)) continue;
      const Cost partial = child(m, StepKind::kPartial);
      const Cost residual = child(m, StepKind::kResidual);
      const Cost cost = Add(charge, Add(partial, residual));
      if (cost < best->cost) *best = Best{cost, m};
    }
  }

  Best Choose(const ElementId& node, const Data& data) {
    const Leaf<Cost> leaf = policy_.Evaluate(node, data);
    Best best{leaf.cost, kKeep};
    if (leaf.settled) return best;
    if constexpr (requires { policy_.UpperBound(node); }) {
      TrySplits(
          node, leaf.split_charge,
          [&](uint32_t m, StepKind kind) {
            return policy_.UpperBound(node.ChildUnchecked(m, kind));
          },
          &best);
    }
    TrySplits(
        node, leaf.split_charge,
        [&](uint32_t m, StepKind kind) {
          return SolveChild(node, data, m, kind);
        },
        &best);
    return best;
  }

  ElementIndexer indexer_;
  WordMemo<uint64_t> memo_{indexer_.size()};
  Policy policy_;
};

}  // namespace vecube

#endif  // VECUBE_CORE_TILING_DP_H_
