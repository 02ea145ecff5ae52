// ElementId: canonical identity of a view element (Definitions 2-4).
//
// Every view element of a cube A corresponds, per dimension m, to a node
// of the dyadic cascade tree: a (level, offset) pair with
// 0 <= level <= K_m = log2(n_m) and 0 <= offset < 2^level. The partial
// aggregation P1^m maps (k, o) -> (k+1, 2o) and the residual R1^m maps
// (k, o) -> (k+1, 2o+1), exactly mirroring the frequency-plane positions
// of Eq. 23: the element occupies the dyadic frequency interval
// [offset / 2^level, (offset+1) / 2^level) along dimension m.
//
// Classification (Definitions 1, 3, 4):
//  * aggregated view: every dimension untouched (0,0) or totally
//    aggregated (K_m, 0);
//  * intermediate element: every offset is 0 (no residual ever applied);
//  * residual element: some offset != 0.

#ifndef VECUBE_CORE_ELEMENT_ID_H_
#define VECUBE_CORE_ELEMENT_ID_H_

#include <array>
#include <bit>
#include <compare>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "cube/shape.h"
#include "haar/cascade.h"
#include "util/result.h"

namespace vecube {

/// Per-dimension cascade position.
struct DimCode {
  uint32_t level = 0;   ///< number of P1/R1 applications along this dim
  uint32_t offset = 0;  ///< dyadic frequency position, in [0, 2^level)

  auto operator<=>(const DimCode&) const = default;
};

/// True iff heap-order code `a` is `d` or an ancestor of `d` in one
/// dimension's cascade tree: a's dyadic interval contains d's. code + 1 is
/// the node's offset behind a leading 1 bit, so the test is a bit prefix.
constexpr bool IsPrefixCode(uint32_t a, uint32_t d) {
  const int drop = std::bit_width(d + 1) - std::bit_width(a + 1);
  return drop >= 0 && ((d + 1) >> drop) == a + 1;
}

/// Immutable identity of a view element of a given cube shape: a
/// trivially copyable value holding, per dimension, the node's heap-order
/// code (1 << level) - 1 + offset, which is also its index among the
/// 2n_m - 1 nodes of that dimension. The P and R children of code c are
/// 2c + 1 and 2c + 2, its parent (c - 1) / 2. Within one dimension code
/// order is (level, offset) order, and unused slots stay 0, so the
/// defaulted comparisons order ids lexicographically by (level, offset).
class ElementId {
 public:
  ElementId() = default;

  /// The root element: the data cube A itself (all levels 0).
  static ElementId Root(uint32_t ndim);

  /// Validates levels/offsets against the shape: same arity, every level
  /// within its dimension's cascade depth, every offset below 2^level.
  static Result<ElementId> Make(std::vector<DimCode> codes,
                                const CubeShape& shape);

  /// The aggregated view that totally aggregates exactly the dimensions in
  /// `aggregated_mask` (bit m set -> dimension m aggregated). Eq. 16 /
  /// Definition 1. Mask 0 is the cube itself.
  static Result<ElementId> AggregatedView(uint32_t aggregated_mask,
                                          const CubeShape& shape);

  /// The intermediate element with the given per-dimension levels (all
  /// offsets zero) — a cell of the Gaussian pyramid (Section 4.3).
  static Result<ElementId> Intermediate(const std::vector<uint32_t>& levels,
                                        const CubeShape& shape);

  /// InvalidArgument unless the id fits `shape`: same arity and every
  /// level within its dimension's cascade depth.
  [[nodiscard]] Status Validate(const CubeShape& shape) const;

  [[nodiscard]] uint32_t ndim() const { return ndim_; }
  /// The heap-order code along `m`, in [0, 2n_m - 1).
  [[nodiscard]] uint32_t code(uint32_t m) const { return codes_[m]; }
  [[nodiscard]] uint32_t level(uint32_t m) const {
    return static_cast<uint32_t>(std::bit_width(codes_[m] + 1)) - 1;
  }
  [[nodiscard]] DimCode dim(uint32_t m) const {
    const uint32_t lvl = level(m);
    return DimCode{lvl, codes_[m] + 1 - (uint32_t{1} << lvl)};
  }

  /// True iff `level < log2(n_dim)` so the children along `dim` exist.
  /// Level K_m starts at code 2^K_m - 1 = n_m - 1.
  [[nodiscard]] bool CanSplit(uint32_t dim, const CubeShape& shape) const {
    return codes_[dim] + 1 < shape.extent(dim);
  }

  /// Partial (P) or residual (R) child along `dim` (Eq. 23 mapping).
  Result<ElementId> Child(uint32_t dim, StepKind kind,
                          const CubeShape& shape) const;

  /// Child() without the checks, for recursions that know CanSplit.
  [[nodiscard]] ElementId ChildUnchecked(uint32_t dim, StepKind kind) const {
    ElementId child = *this;
    child.codes_[dim] = 2 * codes_[dim] + (kind == StepKind::kResidual ? 2 : 1);
    return child;
  }

  /// Parent along `dim`; requires level > 0 along `dim`.
  Result<ElementId> Parent(uint32_t dim) const;

  /// Parent() without the checks, for recursions that know level > 0.
  [[nodiscard]] ElementId ParentUnchecked(uint32_t dim) const {
    ElementId parent = *this;
    parent.codes_[dim] = (codes_[dim] - 1) / 2;
    return parent;
  }

  /// Sibling along `dim` (P <-> R); requires level > 0 along `dim`.
  Result<ElementId> Sibling(uint32_t dim) const;

  /// True iff this element is the P child of its parent along `dim` (also
  /// true at level 0, whose offset is even).
  bool IsPartialChild(uint32_t dim) const {
    return codes_[dim] == 0 || (codes_[dim] & 1u) != 0;
  }

  bool IsRoot() const;
  bool IsAggregatedView(const CubeShape& shape) const;
  bool IsIntermediate() const;
  [[nodiscard]] bool IsResidual() const { return !IsIntermediate(); }

  /// Extents of the element's data array: n_m >> level_m.
  std::vector<uint32_t> DataExtents(const CubeShape& shape) const;

  /// Vol(V): number of cells of the element's data array.
  uint64_t DataVolume(const CubeShape& shape) const;

  /// Sum of levels over dimensions — the cascade depth; children are
  /// always strictly deeper, which recursive algorithms rely on.
  uint32_t TotalLevel() const;

  /// The analysis cascade that generates this element from the root cube:
  /// along each dimension, offset bits MSB-first select P (0) or R (1).
  std::vector<CascadeStep> PathFromRoot() const;

  /// e.g. "(2@0, 0@0, 1@1)" — level@offset per dimension.
  std::string ToString() const;

  bool operator==(const ElementId&) const = default;
  /// Lexicographic; a total order for deterministic iteration.
  auto operator<=>(const ElementId&) const = default;

 private:
  friend class ElementIndexer;

  std::array<uint32_t, kMaxDims> codes_{};
  uint32_t ndim_ = 0;
};

static_assert(std::is_trivially_copyable_v<ElementId>);

/// FNV-1a over the codes, one word per dimension.
struct ElementIdHash {
  size_t operator()(const ElementId& id) const;
};

}  // namespace vecube

#endif  // VECUBE_CORE_ELEMENT_ID_H_
