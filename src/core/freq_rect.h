// Frequency-plane geometry (Section 4.2), in exact integer arithmetic.
//
// Each view element occupies a dyadic rectangle of the d-dimensional
// frequency plane (Eqs. 21-23). We measure every dimension in units of
// 2^{-K_m} (one unit = 1 cell of the fully-decomposed axis), so that
// rectangle volume in "units" equals the element's data volume in cells —
// which is exactly the I(Va, Vb) of Eq. 25 that the cost model consumes.

#ifndef VECUBE_CORE_FREQ_RECT_H_
#define VECUBE_CORE_FREQ_RECT_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/element_id.h"
#include "cube/shape.h"

namespace vecube {

/// Half-open integer interval [lo, hi). No member initializers: Algorithm
/// 1 fills a per-node IntervalArray, and zero-filling its unused entries
/// slowed BM_Algorithm1/4/32 by ~18%.
struct FreqInterval {
  uint64_t lo;
  uint64_t hi;

  [[nodiscard]] uint64_t width() const { return hi - lo; }
  bool operator==(const FreqInterval&) const = default;
};

/// The frequency interval of `id` along dimension `m` (Eq. 23): its
/// dyadic interval [offset, offset + 1) / 2^level in units of 2^{-K_m}.
inline FreqInterval DimInterval(const ElementId& id, uint32_t m,
                                const CubeShape& shape) {
  const DimCode c = id.dim(m);
  const uint32_t shift = shape.log_extent(m) - c.level;
  return FreqInterval{uint64_t{c.offset} << shift,
                      uint64_t{c.offset + 1} << shift};
}

/// The frequency rectangle of a view element, one interval per dimension,
/// each in units of 2^{-K_m} (i.e. spanning [0, n_m)).
class FreqRect {
 public:
  /// Rectangle of `id` within a cube of `shape`.
  static FreqRect Of(const ElementId& id, const CubeShape& shape);

  [[nodiscard]] uint32_t ndim() const { return static_cast<uint32_t>(intervals_.size()); }
  [[nodiscard]] const FreqInterval& interval(uint32_t m) const { return intervals_[m]; }

  /// Volume in units == element data volume in cells.
  uint64_t Volume() const;

  /// Overlap volume in cells; 0 when disjoint (Eqs. 24-25).
  uint64_t Overlap(const FreqRect& other) const;

  [[nodiscard]] bool Intersects(const FreqRect& other) const { return Overlap(other) > 0; }

  /// True iff this rectangle contains `other` entirely; for dyadic
  /// rectangles this is equivalent to `other` being a descendant of this
  /// element in the view element graph.
  bool Contains(const FreqRect& other) const;

  std::string ToString() const;

 private:
  std::vector<FreqInterval> intervals_;
};

/// True iff `ancestor` can generate `descendant` by a (possibly empty)
/// cascade of partial/residual aggregations — per-dimension prefix test on
/// the dyadic codes. Equivalent to FreqRect containment but cheaper.
bool IsAncestorOf(const ElementId& ancestor, const ElementId& descendant);

/// A frequency rectangle as a fixed array: the first ndim entries are its
/// intervals, one per dimension.
using IntervalArray = std::array<FreqInterval, kMaxDims>;

/// Overlap volume in cells of two frequency rectangles, each given by its
/// first `ndim` intervals; 0 when disjoint (Eqs. 24-25). The one overlap
/// routine of FreqRect, the pair cost (Eq. 27) and Algorithm 1's support
/// cost (Eq. 29).
template <typename Intervals>
uint64_t OverlapCells(const Intervals& a, const Intervals& b, uint32_t ndim) {
  uint64_t cells = 1;
  for (uint32_t m = 0; m < ndim; ++m) {
    const uint64_t lo = std::max(a[m].lo, b[m].lo);
    const uint64_t hi = std::min(a[m].hi, b[m].hi);
    if (hi <= lo) return 0;
    cells *= hi - lo;
  }
  return cells;
}

/// Overlap volume in cells of two elements' frequency rectangles.
uint64_t OverlapCells(const ElementId& a, const ElementId& b,
                      const CubeShape& shape);

}  // namespace vecube

#endif  // VECUBE_CORE_FREQ_RECT_H_
