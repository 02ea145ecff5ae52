#include "core/freq_rect.h"

#include "util/logging.h"

namespace vecube {

FreqRect FreqRect::Of(const ElementId& id, const CubeShape& shape) {
  VECUBE_DCHECK(id.ndim() == shape.ndim());
  FreqRect rect;
  rect.intervals_.resize(id.ndim());
  for (uint32_t m = 0; m < id.ndim(); ++m) {
    rect.intervals_[m] = DimInterval(id, m, shape);
  }
  return rect;
}

uint64_t FreqRect::Volume() const {
  uint64_t volume = 1;
  for (const FreqInterval& iv : intervals_) volume *= iv.width();
  return volume;
}

uint64_t FreqRect::Overlap(const FreqRect& other) const {
  VECUBE_DCHECK(ndim() == other.ndim());
  return OverlapCells(intervals_, other.intervals_, ndim());
}

bool FreqRect::Contains(const FreqRect& other) const {
  VECUBE_DCHECK(ndim() == other.ndim());
  for (uint32_t m = 0; m < ndim(); ++m) {
    if (other.intervals_[m].lo < intervals_[m].lo ||
        other.intervals_[m].hi > intervals_[m].hi) {
      return false;
    }
  }
  return true;
}

std::string FreqRect::ToString() const {
  std::string out = "{";
  for (uint32_t m = 0; m < ndim(); ++m) {
    if (m > 0) out += " x ";
    out += '[';
    out += std::to_string(intervals_[m].lo);
    out += ',';
    out += std::to_string(intervals_[m].hi);
    out += ')';
  }
  out += "}";
  return out;
}

bool IsAncestorOf(const ElementId& ancestor, const ElementId& descendant) {
  VECUBE_DCHECK(ancestor.ndim() == descendant.ndim());
  for (uint32_t m = 0; m < ancestor.ndim(); ++m) {
    if (!IsPrefixCode(ancestor.code(m), descendant.code(m))) return false;
  }
  return true;
}

uint64_t OverlapCells(const ElementId& a, const ElementId& b,
                      const CubeShape& shape) {
  return FreqRect::Of(a, shape).Overlap(FreqRect::Of(b, shape));
}

}  // namespace vecube
