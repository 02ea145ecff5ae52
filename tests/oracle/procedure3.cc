#include "oracle/procedure3.h"

#include <algorithm>
#include <array>

#include "util/logging.h"

namespace vecube {

namespace {
constexpr uint64_t kMaxGraphNodes = uint64_t{1} << 24;

// The oracle recurses on (level, offset) pairs rather than on ElementId's
// heap-order codes, so the two encodings check each other.
std::array<DimCode, kMaxDims> RawCodes(const ElementId& id) {
  std::array<DimCode, kMaxDims> codes{};
  for (uint32_t m = 0; m < id.ndim(); ++m) codes[m] = id.dim(m);
  return codes;
}
}  // namespace

Result<Procedure3Calculator> Procedure3Calculator::Make(
    const CubeShape& shape, std::vector<ElementId> selected) {
  if (ViewElementGraph(shape).NumElements() > kMaxGraphNodes) {
    return Status::InvalidArgument(
        "view element graph too large for dense Procedure-3 memos");
  }
  for (const ElementId& id : selected) {
    VECUBE_RETURN_NOT_OK(id.Validate(shape));
  }
  return Procedure3Calculator(shape, std::move(selected));
}

Procedure3Calculator::Procedure3Calculator(const CubeShape& shape,
                                           std::vector<ElementId> selected)
    : shape_(shape), selected_(std::move(selected)), indexer_(shape) {
  is_selected_.assign(indexer_.size(), 0);
  for (const ElementId& id : selected_) {
    is_selected_[indexer_.Encode(id)] = 1;
  }
  g_memo_.assign(indexer_.size(), 0);
  g_arg_.assign(indexer_.size(), kInfiniteCost);
  t_memo_.assign(indexer_.size(), 0);
}

// The DP recursions below work on raw DimCode buffers to avoid per-node
// ElementId allocations: the greedy Algorithm 2 evaluates these memos for
// thousands of candidate sets, so the inner loops must not allocate.

uint64_t Procedure3Calculator::EncodeRaw(const DimCode* codes) const {
  uint64_t index = 0;
  uint64_t weight = 1;
  for (uint32_t m = shape_.ndim(); m-- > 0;) {
    index += (((uint64_t{1} << codes[m].level) - 1) + codes[m].offset) * weight;
    weight *= 2ull * shape_.extent(m) - 1;
  }
  return index;
}

uint64_t Procedure3Calculator::VolumeRaw(const DimCode* codes) const {
  uint64_t volume = 1;
  for (uint32_t m = 0; m < shape_.ndim(); ++m) {
    volume *= shape_.extent(m) >> codes[m].level;
  }
  return volume;
}

uint64_t Procedure3Calculator::MinAncestorVolumeRaw(DimCode* codes) {
  const uint64_t index = EncodeRaw(codes);
  if (g_memo_[index] != 0) return g_memo_[index];

  uint64_t best = kInfiniteCost;
  uint64_t best_arg = kInfiniteCost;
  if (is_selected_[index]) {
    best = VolumeRaw(codes);
    best_arg = index;
  }
  for (uint32_t m = 0; m < shape_.ndim(); ++m) {
    if (codes[m].level == 0) continue;
    const DimCode saved = codes[m];
    codes[m] = DimCode{saved.level - 1, saved.offset >> 1};
    const uint64_t parent_best = MinAncestorVolumeRaw(codes);
    const uint64_t parent_index = EncodeRaw(codes);
    codes[m] = saved;
    if (parent_best < best) {
      best = parent_best;
      best_arg = g_arg_[parent_index];
    }
  }
  g_memo_[index] = best;
  g_arg_[index] = best_arg;
  return best;
}

uint64_t Procedure3Calculator::SolveTRaw(DimCode* codes) {
  const uint64_t index = EncodeRaw(codes);
  if (t_memo_[index] != 0) {
    return t_memo_[index] == kInfiniteCost ? kInfiniteCost
                                           : t_memo_[index] - 1;
  }

  const uint64_t vol = VolumeRaw(codes);
  const uint64_t min_ancestor = MinAncestorVolumeRaw(codes);
  uint64_t best =
      (min_ancestor == kInfiniteCost) ? kInfiniteCost : min_ancestor - vol;

  // Synthesis costs at least Vol(n) (Eq. 32's leading term), so when the
  // aggregation option is already that cheap, the children cones need not
  // be explored — an exact pruning that keeps greedy evaluations fast.
  // A cheap first pass bounds each dimension by the children's
  // aggregation-only costs; when that reaches the Vol(n) floor (both
  // children stored), the recursive pass is skipped entirely.
  if (best > vol) {
    for (uint32_t m = 0; m < shape_.ndim(); ++m) {
      if (codes[m].level >= shape_.log_extent(m)) continue;
      const DimCode saved = codes[m];
      codes[m] = DimCode{saved.level + 1, saved.offset * 2};
      const uint64_t gp = MinAncestorVolumeRaw(codes);
      const uint64_t child_vol = VolumeRaw(codes);
      codes[m] = DimCode{saved.level + 1, saved.offset * 2 + 1};
      const uint64_t gr = MinAncestorVolumeRaw(codes);
      codes[m] = saved;
      if (gp == kInfiniteCost || gr == kInfiniteCost) continue;
      best = std::min(best, vol + (gp - child_vol) + (gr - child_vol));
      if (best <= vol) break;
    }
  }
  if (best > vol) {
    for (uint32_t m = 0; m < shape_.ndim(); ++m) {
      if (codes[m].level >= shape_.log_extent(m)) continue;
      const DimCode saved = codes[m];
      codes[m] = DimCode{saved.level + 1, saved.offset * 2};
      const uint64_t tp = SolveTRaw(codes);
      codes[m] = DimCode{saved.level + 1, saved.offset * 2 + 1};
      const uint64_t tr = SolveTRaw(codes);
      codes[m] = saved;
      if (tp == kInfiniteCost || tr == kInfiniteCost) continue;
      best = std::min(best, vol + tp + tr);
      if (best <= vol) break;
    }
  }

  t_memo_[index] = (best == kInfiniteCost) ? kInfiniteCost : best + 1;
  return best;
}

void Procedure3Calculator::TraceUsedRaw(DimCode* codes,
                                        std::vector<uint8_t>* used) {
  const uint64_t t = SolveTRaw(codes);
  VECUBE_CHECK(t != kInfiniteCost);
  const uint64_t vol = VolumeRaw(codes);
  const uint64_t min_ancestor = MinAncestorVolumeRaw(codes);
  // The aggregation option is preferred on ties, matching SolveTRaw's min.
  if (min_ancestor != kInfiniteCost && t == min_ancestor - vol) {
    const uint64_t arg = g_arg_[EncodeRaw(codes)];
    VECUBE_CHECK(arg != kInfiniteCost);
    (*used)[arg] = 1;
    return;
  }
  for (uint32_t m = 0; m < shape_.ndim(); ++m) {
    if (codes[m].level >= shape_.log_extent(m)) continue;
    const DimCode saved = codes[m];
    codes[m] = DimCode{saved.level + 1, saved.offset * 2};
    const uint64_t tp = SolveTRaw(codes);
    codes[m] = DimCode{saved.level + 1, saved.offset * 2 + 1};
    const uint64_t tr = SolveTRaw(codes);
    codes[m] = saved;
    if (tp == kInfiniteCost || tr == kInfiniteCost) continue;
    if (t == vol + tp + tr) {
      codes[m] = DimCode{saved.level + 1, saved.offset * 2};
      TraceUsedRaw(codes, used);
      codes[m] = DimCode{saved.level + 1, saved.offset * 2 + 1};
      TraceUsedRaw(codes, used);
      codes[m] = saved;
      return;
    }
  }
  VECUBE_CHECK(false && "no plan branch achieves the memoized cost");
}

uint64_t Procedure3Calculator::Cost(const ElementId& target) {
  if (target.ndim() != shape_.ndim()) return kInfiniteCost;
  std::array<DimCode, kMaxDims> codes = RawCodes(target);
  return SolveTRaw(codes.data());
}

double Procedure3Calculator::TotalCost(const QueryPopulation& population) {
  double total = 0.0;
  for (const QuerySpec& q : population.queries()) {
    const uint64_t t = Cost(q.view);
    if (t == kInfiniteCost) return static_cast<double>(kInfiniteCost);
    total += q.frequency * static_cast<double>(t);
  }
  return total;
}

Result<std::vector<ElementId>> Procedure3Calculator::UsedElements(
    const QueryPopulation& population) {
  std::vector<uint8_t> used(indexer_.size(), 0);
  for (const QuerySpec& q : population.queries()) {
    if (Cost(q.view) == kInfiniteCost) {
      return Status::Incomplete("selected set cannot reconstruct " +
                                q.view.ToString());
    }
    std::array<DimCode, kMaxDims> codes = RawCodes(q.view);
    TraceUsedRaw(codes.data(), &used);
  }
  std::vector<ElementId> out;
  for (const ElementId& id : selected_) {
    if (used[indexer_.Encode(id)]) out.push_back(id);
  }
  return out;
}

}  // namespace vecube
