#include "core/planner.h"

#include <algorithm>
#include <array>

#include "util/logging.h"

namespace vecube {

namespace {
// Flat memo tables up to this many graph nodes: at most 192 MiB of address
// space (4 + 8 bytes per node), of which only the pages holding visited
// nodes are ever backed. Larger graphs use hash maps over the visited nodes.
constexpr uint64_t kDenseMemoLimit = uint64_t{1} << 24;

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

using Codes = std::array<DimCode, kMaxAssemblyDims>;

Codes CodesOf(const ElementId& id) {
  Codes codes{};
  std::copy(id.codes().begin(), id.codes().end(), codes.begin());
  return codes;
}
}  // namespace

template <typename Word>
void Procedure3Planner::WordMemo<Word>::Set(uint64_t index, Word word) {
  if (!dense_) {
    map_[index] = word;
    return;
  }
  if (words_ == nullptr) {
    words_.reset(static_cast<Word*>(std::calloc(universe_, sizeof(Word))));
    VECUBE_CHECK(words_ != nullptr);
  }
  words_[index] = word;
}

Procedure3Planner::Procedure3Planner(const CubeShape& shape)
    : shape_(shape), indexer_(shape) {
  stored_.assign(1, StoredRef{0, kInfiniteCost});
  const bool dense = indexer_.size() <= kDenseMemoLimit;
  ancestor_memo_.Reset(indexer_.size(), dense);
  plan_memo_.Reset(indexer_.size(), dense);
}

Result<Procedure3Planner> Procedure3Planner::Make(
    const CubeShape& shape, const std::vector<ElementId>& ids) {
  if (shape.ndim() > kMaxAssemblyDims) {
    return Status::InvalidArgument(
        "at most 16 dimensions supported for assembly planning");
  }
  VECUBE_CHECK(ids.size() < std::numeric_limits<uint32_t>::max() - 1);
  Procedure3Planner planner(shape);
  for (const ElementId& id : ids) {
    VECUBE_RETURN_NOT_OK(id.Validate(shape));
    const uint64_t index = planner.indexer_.Encode(id);
    planner.stored_slot_[index] =
        static_cast<uint32_t>(planner.stored_.size());
    planner.stored_.push_back(StoredRef{index, id.DataVolume(shape)});
    planner.stored_codes_.insert(planner.stored_codes_.end(),
                                 id.codes().begin(), id.codes().end());
  }
  return planner;
}

uint64_t Procedure3Planner::EncodeRaw(const DimCode* codes) const {
  uint64_t index = 0;
  uint64_t weight = 1;
  for (uint32_t m = shape_.ndim(); m-- > 0;) {
    index += (((uint64_t{1} << codes[m].level) - 1) + codes[m].offset) * weight;
    weight *= 2ull * shape_.extent(m) - 1;
  }
  return index;
}

uint64_t Procedure3Planner::VolumeRaw(const DimCode* codes) const {
  uint64_t volume = 1;
  for (uint32_t m = 0; m < shape_.ndim(); ++m) {
    volume *= shape_.extent(m) >> codes[m].level;
  }
  return volume;
}

uint32_t Procedure3Planner::MinAncestorRaw(DimCode* codes) {
  const uint64_t index = EncodeRaw(codes);
  if (const uint32_t hit = ancestor_memo_.Get(index); hit != 0) return hit;
  uint32_t best = 1;  // the "none" sentinel
  if (auto it = stored_slot_.find(index); it != stored_slot_.end()) {
    best = it->second + 1;
  }
  for (uint32_t m = 0; m < shape_.ndim(); ++m) {
    if (codes[m].level == 0) continue;
    const DimCode saved = codes[m];
    codes[m] = DimCode{saved.level - 1, saved.offset >> 1};
    const uint32_t parent = MinAncestorRaw(codes);
    codes[m] = saved;
    if (stored_[parent - 1].volume < stored_[best - 1].volume) best = parent;
  }
  ancestor_memo_.Set(index, best);
  return best;
}

bool Procedure3Planner::HasFinerRelativeRaw(const DimCode* codes) const {
  const uint32_t ndim = shape_.ndim();
  for (size_t base = 0; base < stored_codes_.size(); base += ndim) {
    const DimCode* s = &stored_codes_[base];
    bool finer = false;
    uint32_t m = 0;
    for (; m < ndim; ++m) {
      // Comparable along m: the coarser code is a dyadic prefix of the finer.
      const DimCode a = codes[m];
      const DimCode b = s[m];
      if (a.level <= b.level) {
        if ((b.offset >> (b.level - a.level)) != a.offset) break;
        finer |= a.level < b.level;
      } else if ((a.offset >> (a.level - b.level)) != b.offset) {
        break;
      }
    }
    if (m == ndim && finer) return true;
  }
  return false;
}

Procedure3Planner::Node Procedure3Planner::PlanRaw(DimCode* codes) {
  const uint64_t index = EncodeRaw(codes);
  if (const uint64_t word = plan_memo_.Get(index); word != 0) {
    return Unpack(word);
  }

  Node node;
  const uint64_t vol = VolumeRaw(codes);
  // F option: aggregate down from the smallest stored ancestor (a stored
  // target is the ancestor==self case with cost 0).
  const uint64_t ancestor_volume = stored_[MinAncestorRaw(codes) - 1].volume;
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
  const bool may_synthesize = node.cost > vol && HasFinerRelativeRaw(codes);
  // Cheap first pass: bound each dimension's synthesis option by the
  // children's *aggregation-only* costs (no recursive exploration). This
  // often establishes the Vol(n) floor immediately — e.g. when both
  // children are stored — and lets the deep pass be skipped entirely.
  if (may_synthesize) {
    for (uint32_t m = 0; m < shape_.ndim(); ++m) {
      if (codes[m].level >= shape_.log_extent(m)) continue;
      const DimCode saved = codes[m];
      codes[m] = DimCode{saved.level + 1, saved.offset * 2};
      const uint64_t ap = stored_[MinAncestorRaw(codes) - 1].volume;
      const uint64_t child_vol = VolumeRaw(codes);
      codes[m] = DimCode{saved.level + 1, saved.offset * 2 + 1};
      const uint64_t ar = stored_[MinAncestorRaw(codes) - 1].volume;
      codes[m] = saved;
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
      if (codes[m].level >= shape_.log_extent(m)) continue;
      const DimCode saved = codes[m];
      codes[m] = DimCode{saved.level + 1, saved.offset * 2};
      const uint64_t tp = PlanRaw(codes).cost;
      codes[m] = DimCode{saved.level + 1, saved.offset * 2 + 1};
      const uint64_t tr = PlanRaw(codes).cost;
      codes[m] = saved;
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

void Procedure3Planner::WarmPlanRaw(DimCode* codes,
                                    std::unordered_set<uint64_t>* visited) {
  const uint64_t index = EncodeRaw(codes);
  if (!visited->insert(index).second) return;
  const Node node = PlanRaw(codes);
  if (node.choice != Choice::kSynthesize) return;
  // Execution will recurse into exactly these two children. (The cheap
  // first pass of PlanRaw can choose kSynthesize without ever having
  // planned the children, so warming must descend explicitly.)
  const uint32_t m = node.split_dim;
  const DimCode saved = codes[m];
  codes[m] = DimCode{saved.level + 1, saved.offset * 2};
  WarmPlanRaw(codes, visited);
  codes[m] = DimCode{saved.level + 1, saved.offset * 2 + 1};
  WarmPlanRaw(codes, visited);
  codes[m] = saved;
}

uint64_t Procedure3Planner::Cost(const ElementId& target) {
  // A code outside the shape would index past the memo tables.
  if (!target.Validate(shape_).ok()) return kInfiniteCost;
  return Plan(target).cost;
}

Procedure3Planner::Node Procedure3Planner::Plan(const ElementId& target) {
  Codes codes = CodesOf(target);
  return PlanRaw(codes.data());
}

ElementId Procedure3Planner::SourceOf(const ElementId& target) const {
  const Codes codes = CodesOf(target);
  return indexer_.Decode(
      stored_[ancestor_memo_.Get(EncodeRaw(codes.data())) - 1].index);
}

void Procedure3Planner::Warm(const ElementId& target,
                             std::unordered_set<uint64_t>* visited) {
  Codes codes = CodesOf(target);
  WarmPlanRaw(codes.data(), visited);
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
  std::unordered_set<uint64_t> used;
  for (const uint64_t index : visited) {
    if (Unpack(plan_memo_.Get(index)).choice == Choice::kAggregate) {
      used.insert(stored_[ancestor_memo_.Get(index) - 1].index);
    }
  }
  std::vector<ElementId> out;
  for (size_t j = 1; j < stored_.size(); ++j) {
    if (used.count(stored_[j].index) > 0) {
      out.push_back(indexer_.Decode(stored_[j].index));
    }
  }
  return out;
}

}  // namespace vecube
