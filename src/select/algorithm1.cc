#include "select/algorithm1.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdlib>
#include <memory>

#include "core/graph.h"
#include "util/logging.h"

namespace vecube {

namespace {

constexpr uint32_t kMaxDims = 16;
constexpr uint64_t kMaxGraphNodes = uint64_t{1} << 24;

// Allocation-free description of one query's frequency rectangle.
struct QueryGeom {
  std::array<uint64_t, kMaxDims> lo;
  std::array<uint64_t, kMaxDims> hi;
  uint64_t volume;
  double frequency;
};

// The DP works on raw per-dimension codes to avoid per-node allocation.
class SpaceFrequencyDp {
 public:
  SpaceFrequencyDp(const CubeShape& shape, const QueryPopulation& population)
      : shape_(shape),
        memo_(static_cast<uint64_t*>(
            std::calloc(ElementIndexer(shape).size(), sizeof(uint64_t)))) {
    VECUBE_CHECK(memo_ != nullptr);
    d_ = shape.ndim();
    for (uint32_t m = 0; m < d_; ++m) {
      log_extent_[m] = shape.log_extent(m);
      extent_[m] = shape.extent(m);
    }
    for (const QuerySpec& q : population.queries()) {
      QueryGeom geom;
      geom.volume = 1;
      for (uint32_t m = 0; m < d_; ++m) {
        const DimCode& c = q.view.dim(m);
        const uint32_t shift = log_extent_[m] - c.level;
        geom.lo[m] = static_cast<uint64_t>(c.offset) << shift;
        geom.hi[m] = static_cast<uint64_t>(c.offset + 1) << shift;
        geom.volume *= geom.hi[m] - geom.lo[m];
      }
      geom.frequency = q.frequency;
      queries_.push_back(geom);
    }
  }

  double Solve(const ElementId& id) {
    std::array<DimCode, kMaxDims> codes{};
    std::copy(id.codes().begin(), id.codes().end(), codes.begin());
    return Solve(codes.data());
  }

  void Extract(std::vector<ElementId>* out) {
    std::array<DimCode, kMaxDims> codes{};
    ExtractRec(codes.data(), out);
  }

 private:
  static constexpr int kKeep = -1;
  // Memo word of a visited node: D's bits with the (otherwise clear) sign
  // bit set, so 0 means "not yet visited" and the calloc'd table needs no
  // fill. D is finite and non-negative because frequencies are.
  static constexpr uint64_t kVisited = uint64_t{1} << 63;

  struct Best {
    double cost;
    int choice;  // kKeep or the split dimension
  };

  struct FreeDeleter {
    void operator()(uint64_t* words) const { std::free(words); }
  };

  uint64_t EncodeIndex(const DimCode* codes) const {
    uint64_t index = 0;
    uint64_t weight = 1;
    for (uint32_t m = d_; m-- > 0;) {
      const uint64_t code_index =
          ((uint64_t{1} << codes[m].level) - 1) + codes[m].offset;
      index += code_index * weight;
      weight *= 2ull * extent_[m] - 1;
    }
    return index;
  }

  // C_n of Eq. 29 against all queries, allocation-free. Sets `*contained`
  // when every query that overlaps the element also contains it.
  double SupportCostOf(const DimCode* codes, bool* contained) const {
    // Element geometry in 2^-K units.
    std::array<uint64_t, kMaxDims> lo, hi;
    uint64_t volume = 1;
    for (uint32_t m = 0; m < d_; ++m) {
      const uint32_t shift = log_extent_[m] - codes[m].level;
      lo[m] = static_cast<uint64_t>(codes[m].offset) << shift;
      hi[m] = static_cast<uint64_t>(codes[m].offset + 1) << shift;
      volume *= hi[m] - lo[m];
    }
    double cost = 0.0;
    *contained = true;
    for (const QueryGeom& q : queries_) {
      uint64_t overlap = 1;
      for (uint32_t m = 0; m < d_; ++m) {
        const uint64_t olo = std::max(lo[m], q.lo[m]);
        const uint64_t ohi = std::min(hi[m], q.hi[m]);
        if (ohi <= olo) {
          overlap = 0;
          break;
        }
        overlap *= ohi - olo;
      }
      if (overlap == 0) continue;
      if (overlap != volume) *contained = false;
      cost += q.frequency *
              static_cast<double>((volume - overlap) + (q.volume - overlap));
    }
    return cost;
  }

  // Eqs. 30-31 at one node. When every overlapping query contains the node,
  // keeping it is optimal and its children are not solved (DESIGN.md §1,
  // Algorithm 1). Ties break toward keep, then toward the lowest dimension.
  Best Choose(DimCode* codes) {
    bool contained = false;
    Best best{SupportCostOf(codes, &contained), kKeep};
    if (contained) return best;
    for (uint32_t m = 0; m < d_; ++m) {
      if (codes[m].level >= log_extent_[m]) continue;
      const DimCode saved = codes[m];
      codes[m] = DimCode{saved.level + 1, saved.offset * 2};
      const double tp = Solve(codes);
      codes[m] = DimCode{saved.level + 1, saved.offset * 2 + 1};
      const double tr = Solve(codes);
      codes[m] = saved;
      const double tm = tp + tr;
      if (tm < best.cost) best = Best{tm, static_cast<int>(m)};
    }
    return best;
  }

  double Solve(DimCode* codes) {
    uint64_t& word = memo_[EncodeIndex(codes)];
    if (word != 0) return std::bit_cast<double>(word & ~kVisited);
    const double cost = Choose(codes).cost;
    word = std::bit_cast<uint64_t>(cost) | kVisited;
    return cost;
  }

  // Procedure 2 over the solved memo. Each basis-tree node's choice is
  // re-derived by Choose, whose child solves are now memo reads.
  void ExtractRec(DimCode* codes, std::vector<ElementId>* out) {
    const int choice = Choose(codes).choice;
    if (choice == kKeep) {
      std::vector<DimCode> vec(codes, codes + d_);
      auto id = ElementId::Make(std::move(vec), shape_);
      VECUBE_CHECK(id.ok());
      out->push_back(*id);
      return;
    }
    const auto m = static_cast<uint32_t>(choice);
    const DimCode saved = codes[m];
    codes[m] = DimCode{saved.level + 1, saved.offset * 2};
    ExtractRec(codes, out);
    codes[m] = DimCode{saved.level + 1, saved.offset * 2 + 1};
    ExtractRec(codes, out);
    codes[m] = saved;
  }

  const CubeShape& shape_;
  uint32_t d_ = 0;
  std::array<uint32_t, kMaxDims> log_extent_{};
  std::array<uint32_t, kMaxDims> extent_{};
  std::vector<QueryGeom> queries_;
  std::unique_ptr<uint64_t[], FreeDeleter> memo_;
};

Status ValidateInputs(const CubeShape& shape,
                      const QueryPopulation& population) {
  if (shape.ndim() > kMaxDims) {
    return Status::InvalidArgument("at most 16 dimensions supported");
  }
  if (ViewElementGraph(shape).NumElements() > kMaxGraphNodes) {
    return Status::InvalidArgument(
        "view element graph too large for the dense DP (> 2^24 nodes)");
  }
  for (const QuerySpec& q : population.queries()) {
    if (q.view.ndim() != shape.ndim()) {
      return Status::InvalidArgument("query arity does not match cube");
    }
  }
  return Status::OK();
}

}  // namespace

Result<BasisSelection> SelectMinCostBasis(const CubeShape& shape,
                                          const QueryPopulation& population) {
  VECUBE_RETURN_NOT_OK(ValidateInputs(shape, population));
  SpaceFrequencyDp dp(shape, population);
  BasisSelection selection;
  selection.predicted_cost = dp.Solve(ElementId::Root(shape.ndim()));
  dp.Extract(&selection.basis);
  std::sort(selection.basis.begin(), selection.basis.end());
  return selection;
}

namespace internal {

Result<std::vector<double>> MinTilingCosts(
    const CubeShape& shape, const QueryPopulation& population,
    const std::vector<ElementId>& nodes) {
  VECUBE_RETURN_NOT_OK(ValidateInputs(shape, population));
  SpaceFrequencyDp dp(shape, population);
  std::vector<double> costs;
  costs.reserve(nodes.size());
  for (const ElementId& node : nodes) {
    ElementId checked;
    VECUBE_ASSIGN_OR_RETURN(checked, ElementId::Make(node.codes(), shape));
    costs.push_back(dp.Solve(node));
  }
  return costs;
}

}  // namespace internal

}  // namespace vecube
