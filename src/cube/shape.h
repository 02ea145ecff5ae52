// CubeShape: the dimensional geometry of a MOLAP data cube.
//
// The paper (Section 2) assumes every dimension extent is a power of two,
// n_m = 2^{k_m}; the Haar partial-aggregation cascade (Section 3) requires
// it. CubeShape validates and caches the log-extents.

#ifndef VECUBE_CUBE_SHAPE_H_
#define VECUBE_CUBE_SHAPE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace vecube {

/// Highest cube dimensionality. Element ids hold one code per dimension
/// inline, and the planners pack a split dimension into 4 bits.
inline constexpr uint32_t kMaxDims = 16;

/// Immutable description of a d-dimensional cube: extents (each a power of
/// two), row-major strides, and per-dimension log2 extents.
class CubeShape {
 public:
  CubeShape() = default;

  /// Validates that `extents` is non-empty with at most kMaxDims entries,
  /// every extent is a power of two >= 1, and the total volume fits in 64
  /// bits comfortably.
  static Result<CubeShape> Make(std::vector<uint32_t> extents);

  /// Convenience for tests/examples: d dimensions, all of extent n.
  static Result<CubeShape> MakeSquare(uint32_t d, uint32_t n);

  /// Real attribute domains are rarely powers of two; this rounds each
  /// raw extent up to the next power of two. The padding cells stay zero,
  /// which is exact for SUM/COUNT aggregation (the operator the paper's
  /// decomposition is built for) — padded cells contribute nothing to any
  /// view element.
  static Result<CubeShape> MakePadded(const std::vector<uint32_t>& raw_extents);

  [[nodiscard]] uint32_t ndim() const { return static_cast<uint32_t>(extents_.size()); }
  [[nodiscard]] const std::vector<uint32_t>& extents() const { return extents_; }
  [[nodiscard]] uint32_t extent(uint32_t dim) const { return extents_[dim]; }
  /// log2 of the extent of `dim`; also the cascade depth D_m of Section 4.1.
  [[nodiscard]] uint32_t log_extent(uint32_t dim) const { return log_extents_[dim]; }
  [[nodiscard]] const std::vector<uint32_t>& log_extents() const { return log_extents_; }

  /// Number of cells, Vol(A) of Eq. 11.
  [[nodiscard]] uint64_t volume() const { return volume_; }

  /// Row-major stride of `dim` (last dimension is contiguous).
  [[nodiscard]] uint64_t stride(uint32_t dim) const { return strides_[dim]; }
  [[nodiscard]] const std::vector<uint64_t>& strides() const { return strides_; }

  /// Flat offset of a coordinate vector (unchecked in release builds).
  uint64_t FlatIndex(const std::vector<uint32_t>& coords) const;

  /// Inverse of FlatIndex.
  std::vector<uint32_t> Coords(uint64_t flat) const;

  /// "[4, 4, 16]"
  std::string ToString() const;

  bool operator==(const CubeShape& other) const {
    return extents_ == other.extents_;
  }
  bool operator!=(const CubeShape& other) const { return !(*this == other); }

 private:
  std::vector<uint32_t> extents_;
  std::vector<uint32_t> log_extents_;
  std::vector<uint64_t> strides_;
  uint64_t volume_ = 0;
};

}  // namespace vecube

#endif  // VECUBE_CUBE_SHAPE_H_
