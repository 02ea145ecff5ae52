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

#include <compare>
#include <cstdint>
#include <string>
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

/// Immutable identity of a view element of a given cube shape.
class ElementId {
 public:
  ElementId() = default;

  /// The root element: the data cube A itself (all levels 0).
  static ElementId Root(uint32_t ndim);

  /// Validates levels/offsets against the shape.
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

  /// Constructs an id from raw codes WITHOUT validating them against any
  /// shape. For corruption-injection tests of the invariant checker
  /// (src/verify) only — invalid codes are caught by the checker, not
  /// here. Production code must use Make().
  static ElementId UnsafeFromCodes(std::vector<DimCode> codes) {
    return ElementId(std::move(codes));
  }

  /// InvalidArgument unless the codes fit `shape`: same arity, every level
  /// within its dimension's cascade depth, every offset below 2^level.
  /// Allocates nothing when they do.
  [[nodiscard]] Status Validate(const CubeShape& shape) const;

  [[nodiscard]] uint32_t ndim() const { return static_cast<uint32_t>(codes_.size()); }
  [[nodiscard]] const DimCode& dim(uint32_t m) const { return codes_[m]; }
  [[nodiscard]] const std::vector<DimCode>& codes() const { return codes_; }

  /// True iff `level < log2(n_dim)` so the children along `dim` exist.
  bool CanSplit(uint32_t dim, const CubeShape& shape) const;

  /// Partial (P) or residual (R) child along `dim` (Eq. 23 mapping).
  Result<ElementId> Child(uint32_t dim, StepKind kind,
                          const CubeShape& shape) const;

  /// Parent along `dim`; requires level > 0 along `dim`.
  Result<ElementId> Parent(uint32_t dim) const;

  /// Sibling along `dim` (P <-> R); requires level > 0 along `dim`.
  Result<ElementId> Sibling(uint32_t dim) const;

  /// True iff this element is the P child of its parent along `dim`.
  bool IsPartialChild(uint32_t dim) const {
    return (codes_[dim].offset & 1u) == 0;
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

  bool operator==(const ElementId& other) const {
    return codes_ == other.codes_;
  }
  bool operator!=(const ElementId& other) const { return !(*this == other); }
  /// Lexicographic; a total order for deterministic iteration.
  bool operator<(const ElementId& other) const { return codes_ < other.codes_; }

 private:
  explicit ElementId(std::vector<DimCode> codes) : codes_(std::move(codes)) {}

  std::vector<DimCode> codes_;
};

/// FNV-1a style hash for unordered containers.
struct ElementIdHash {
  size_t operator()(const ElementId& id) const;
};

}  // namespace vecube

#endif  // VECUBE_CORE_ELEMENT_ID_H_
