#include "core/planner.h"

#include <limits>

#include "util/logging.h"

namespace vecube {

Result<Procedure3Planner> Procedure3Planner::Make(
    const CubeShape& shape, const std::vector<ElementId>& ids) {
  VECUBE_CHECK(ids.size() < std::numeric_limits<uint32_t>::max() - 1);
  Policy policy(shape);
  for (const ElementId& id : ids) {
    VECUBE_RETURN_NOT_OK(id.Validate(shape));
    policy.stored_slot[policy.indexer.Encode(id)] =
        static_cast<uint32_t>(policy.stored.size());
    policy.stored.push_back(Policy::StoredRef{id, id.DataVolume(shape)});
  }
  return Procedure3Planner(shape, std::move(policy));
}

uint32_t Procedure3Planner::Policy::MinAncestor(const ElementId& node) {
  const uint64_t index = indexer.Encode(node);
  if (const uint32_t hit = ancestor_memo.Get(index); hit != 0) return hit;
  uint32_t best = 1;  // the "none" sentinel
  if (auto it = stored_slot.find(index); it != stored_slot.end()) {
    best = it->second + 1;
  }
  for (uint32_t m = 0; m < indexer.shape().ndim(); ++m) {
    if (node.code(m) == 0) continue;
    const uint32_t parent = MinAncestor(node.ParentUnchecked(m));
    if (stored[parent - 1].volume < stored[best - 1].volume) best = parent;
  }
  ancestor_memo.Set(index, best);
  return best;
}

bool Procedure3Planner::Policy::HasFinerRelative(const ElementId& node) const {
  const uint32_t ndim = indexer.shape().ndim();
  for (size_t j = 1; j < stored.size(); ++j) {
    const ElementId& s = stored[j].id;
    bool finer = false;
    uint32_t m = 0;
    for (; m < ndim; ++m) {
      const uint32_t a = node.code(m);
      const uint32_t b = s.code(m);
      if (a == b) continue;
      if (IsPrefixCode(a, b)) {
        finer = true;
      } else if (!IsPrefixCode(b, a)) {
        break;
      }
    }
    if (m == ndim && finer) return true;
  }
  return false;
}

uint64_t Procedure3Planner::Policy::Aggregate(const ElementId& node,
                                              uint64_t volume) {
  // Aggregate down from the smallest stored ancestor; a stored node is the
  // ancestor == self case, at cost 0.
  const uint64_t ancestor_volume = stored[MinAncestor(node) - 1].volume;
  return ancestor_volume == kInfiniteCost ? kInfiniteCost
                                          : ancestor_volume - volume;
}

Leaf<uint64_t> Procedure3Planner::Policy::Evaluate(const ElementId& node,
                                                   const Data&) {
  // Synthesis is explored only where it can win (DESIGN.md §1, Procedure
  // 3):
  //  - any synthesis costs at least Vol(n) (the final stage alone), so
  //    aggregation at cost <= Vol(n) settles the node;
  //  - every leaf of a synthesis tree aggregates from a stored element
  //    comparable with n in every dimension. If none of those is finer
  //    than n anywhere, all are ancestors of n of volume >= A (the best
  //    ancestor's), and the >= 2 leaves cost >= 2A > A - Vol(n) = F_n, or
  //    cannot be produced at all when n has no stored ancestor.
  const uint64_t volume = node.DataVolume(indexer.shape());
  const uint64_t aggregate = Aggregate(node, volume);
  return {aggregate, aggregate <= volume || !HasFinerRelative(node), volume};
}

uint64_t Procedure3Planner::Cost(const ElementId& target) {
  // A code outside the shape would index past the memo tables.
  if (!target.Validate(dp_.indexer().shape()).ok()) return kInfiniteCost;
  return dp_.Solve(target, {});
}

Procedure3Planner::Node Procedure3Planner::Plan(const ElementId& target) {
  const Dp::Best best = dp_.Lookup(target, {});
  if (best.choice != Dp::kKeep) {
    return Node{best.cost, Choice::kSynthesize, best.choice};
  }
  return Node{best.cost,
              best.cost == kInfiniteCost ? Choice::kNone : Choice::kAggregate};
}

ElementId Procedure3Planner::SourceOf(const ElementId& target) const {
  const Policy& policy = dp_.policy();
  return policy.stored[policy.Recorded(target) - 1].id;
}

void Procedure3Planner::Warm(const ElementId& target,
                             std::unordered_set<uint64_t>* visited) {
  if (!visited->insert(dp_.indexer().Encode(target)).second) return;
  const Node node = Plan(target);
  if (node.choice != Choice::kSynthesize) return;
  // Execution will recurse into exactly these two children. (A split the
  // DP's upper bound chose may have unplanned children, so warming must
  // descend explicitly.)
  Warm(target.ChildUnchecked(node.split_dim, StepKind::kPartial), visited);
  Warm(target.ChildUnchecked(node.split_dim, StepKind::kResidual), visited);
}

Result<std::vector<ElementId>> Procedure3Planner::UsedElements(
    const std::vector<ElementId>& targets) {
  // Procedure 2 over the recorded plans: their leaves are the aggregate
  // nodes, and each reads the source its ancestor-memo word names.
  std::vector<ElementId> leaves;
  for (const ElementId& target : targets) {
    if (Cost(target) == kInfiniteCost) {
      return Status::Incomplete("stored element set cannot reconstruct " +
                                target.ToString());
    }
    dp_.Extract(target, {}, &leaves);
  }
  const Policy& policy = dp_.policy();
  std::vector<bool> used(policy.stored.size());
  for (const ElementId& leaf : leaves) used[policy.Recorded(leaf) - 1] = true;
  std::vector<ElementId> out;
  for (size_t j = 1; j < policy.stored.size(); ++j) {
    if (used[j]) out.push_back(policy.stored[j].id);
  }
  return out;
}

}  // namespace vecube
