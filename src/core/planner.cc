#include "core/planner.h"

#include "util/logging.h"

namespace vecube {

namespace {
// Plan-memo word: (cost + 1) << 6 | split_dim << 2 | choice. cost + 1 wraps
// kInfiniteCost to 0, and a finite cost makes the word nonzero, so 0 stays
// free for "not yet planned".
constexpr uint32_t kPlanCostShift = 6;
constexpr uint64_t kMaxPackedCost = (uint64_t{1} << (64 - kPlanCostShift)) - 1;

Procedure3Planner::Node Unpack(uint64_t word) {
  return Procedure3Planner::Node{
      (word >> kPlanCostShift) - 1,
      static_cast<Procedure3Planner::Choice>(word & 3u),
      static_cast<uint32_t>(word >> 2) & 15u};
}
static_assert(kMaxDims <= 16, "split_dim is packed into 4 bits");
}  // namespace

Result<Procedure3Planner> Procedure3Planner::Make(
    const CubeShape& shape, const std::vector<ElementId>& ids) {
  VECUBE_CHECK(ids.size() < std::numeric_limits<uint32_t>::max() - 1);
  Procedure3Planner planner(shape);
  for (const ElementId& id : ids) {
    VECUBE_RETURN_NOT_OK(id.Validate(shape));
    planner.stored_slot_[planner.indexer_.Encode(id)] =
        static_cast<uint32_t>(planner.stored_.size());
    planner.stored_.push_back(StoredRef{id, id.DataVolume(shape)});
  }
  return planner;
}

uint32_t Procedure3Planner::MinAncestor(const ElementId& node) {
  const uint64_t index = indexer_.Encode(node);
  if (const uint32_t hit = ancestor_memo_.Get(index); hit != 0) return hit;
  uint32_t best = 1;  // the "none" sentinel
  if (auto it = stored_slot_.find(index); it != stored_slot_.end()) {
    best = it->second + 1;
  }
  for (uint32_t m = 0; m < shape_.ndim(); ++m) {
    if (node.code(m) == 0) continue;
    const uint32_t parent = MinAncestor(node.ParentUnchecked(m));
    if (stored_[parent - 1].volume < stored_[best - 1].volume) best = parent;
  }
  ancestor_memo_.Set(index, best);
  return best;
}

bool Procedure3Planner::HasFinerRelative(const ElementId& node) const {
  const uint32_t ndim = shape_.ndim();
  for (size_t j = 1; j < stored_.size(); ++j) {
    const ElementId& s = stored_[j].id;
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

Procedure3Planner::Node Procedure3Planner::Plan(const ElementId& target) {
  const uint64_t index = indexer_.Encode(target);
  if (const uint64_t word = plan_memo_.Get(index); word != 0) {
    return Unpack(word);
  }

  Node node;
  const uint64_t vol = target.DataVolume(shape_);
  // F option: aggregate down from the smallest stored ancestor (a stored
  // target is the ancestor==self case with cost 0).
  const uint64_t ancestor_volume = stored_[MinAncestor(target) - 1].volume;
  if (ancestor_volume != kInfiniteCost) {
    node.cost = ancestor_volume - vol;
    node.choice = Choice::kAggregate;
  }

  // R option: synthesize from the P/R children along the best dimension.
  // It is explored only where it can win (DESIGN.md §1, Procedure 3):
  //  - any synthesis costs at least Vol(n) (the final stage alone), so
  //    aggregation at cost <= Vol(n) settles the node;
  //  - every leaf of a synthesis tree aggregates from a stored element
  //    comparable with n in every dimension. If none of those is finer
  //    than n anywhere, all are ancestors of n of volume >= A (the best
  //    ancestor's), and the >= 2 leaves cost >= 2A > A - Vol(n) = F_n, or
  //    cannot be produced at all when n has no stored ancestor.
  const bool may_synthesize = node.cost > vol && HasFinerRelative(target);
  // Cheap first pass: bound each dimension's synthesis option by the
  // children's *aggregation-only* costs (no recursive exploration). This
  // often establishes the Vol(n) floor immediately — e.g. when both
  // children are stored — and lets the deep pass be skipped entirely.
  if (may_synthesize) {
    const uint64_t child_vol = vol / 2;
    for (uint32_t m = 0; m < shape_.ndim(); ++m) {
      if (!target.CanSplit(m, shape_)) continue;
      const uint64_t ap =
          stored_[MinAncestor(target.ChildUnchecked(m, StepKind::kPartial)) - 1]
              .volume;
      const uint64_t ar =
          stored_[MinAncestor(target.ChildUnchecked(m, StepKind::kResidual)) -
                  1]
              .volume;
      if (ap == kInfiniteCost || ar == kInfiniteCost) continue;
      const uint64_t cost = vol + (ap - child_vol) + (ar - child_vol);
      if (cost < node.cost) {
        node.cost = cost;
        node.choice = Choice::kSynthesize;
        node.split_dim = m;
      }
      if (node.cost <= vol) break;
    }
  }
  if (may_synthesize && node.cost > vol) {
    for (uint32_t m = 0; m < shape_.ndim(); ++m) {
      if (!target.CanSplit(m, shape_)) continue;
      const uint64_t tp =
          Plan(target.ChildUnchecked(m, StepKind::kPartial)).cost;
      const uint64_t tr =
          Plan(target.ChildUnchecked(m, StepKind::kResidual)).cost;
      if (tp == kInfiniteCost || tr == kInfiniteCost) continue;
      const uint64_t cost = vol + tp + tr;
      if (cost < node.cost) {
        node.cost = cost;
        node.choice = Choice::kSynthesize;
        node.split_dim = m;
      }
      if (node.cost <= vol) break;
    }
  }

  VECUBE_CHECK(node.cost == kInfiniteCost || node.cost < kMaxPackedCost);
  plan_memo_.Set(index, ((node.cost + 1) << kPlanCostShift) |
                            (uint64_t{node.split_dim} << 2) |
                            static_cast<uint64_t>(node.choice));
  return node;
}

uint64_t Procedure3Planner::Cost(const ElementId& target) {
  // A code outside the shape would index past the memo tables.
  if (!target.Validate(shape_).ok()) return kInfiniteCost;
  return Plan(target).cost;
}

ElementId Procedure3Planner::SourceOf(const ElementId& target) const {
  return stored_[ancestor_memo_.Get(indexer_.Encode(target)) - 1].id;
}

void Procedure3Planner::Warm(const ElementId& target,
                             std::unordered_set<uint64_t>* visited) {
  if (!visited->insert(indexer_.Encode(target)).second) return;
  const Node node = Plan(target);
  if (node.choice != Choice::kSynthesize) return;
  // Execution will recurse into exactly these two children. (The cheap
  // first pass of Plan can choose kSynthesize without ever having planned
  // the children, so warming must descend explicitly.)
  Warm(target.ChildUnchecked(node.split_dim, StepKind::kPartial), visited);
  Warm(target.ChildUnchecked(node.split_dim, StepKind::kResidual), visited);
}

Result<std::vector<ElementId>> Procedure3Planner::UsedElements(
    const std::vector<ElementId>& targets) {
  std::unordered_set<uint64_t> visited;
  for (const ElementId& target : targets) {
    if (Cost(target) == kInfiniteCost) {
      return Status::Incomplete("stored element set cannot reconstruct " +
                                target.ToString());
    }
    Warm(target, &visited);
  }
  // The warm walk visited exactly the nodes the recorded plans execute;
  // their aggregate leaves are the stored elements those plans read.
  std::vector<bool> used(stored_.size());
  for (const uint64_t index : visited) {
    if (Unpack(plan_memo_.Get(index)).choice == Choice::kAggregate) {
      used[ancestor_memo_.Get(index) - 1] = true;
    }
  }
  std::vector<ElementId> out;
  for (size_t j = 1; j < stored_.size(); ++j) {
    if (used[j]) out.push_back(stored_[j].id);
  }
  return out;
}

}  // namespace vecube
