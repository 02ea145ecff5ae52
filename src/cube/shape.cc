#include "cube/shape.h"

#include <limits>

#include "util/bits.h"
#include "util/logging.h"

namespace vecube {

Result<CubeShape> CubeShape::Make(std::vector<uint32_t> extents) {
  if (extents.empty()) {
    return Status::InvalidArgument("cube must have at least one dimension");
  }
  // With d <= 16 and volume <= 2^40, the view-element count
  // Π(2n_m - 1) < 2^d * volume <= 2^56 always fits in a uint64_t, which
  // the element indexers rely on.
  if (extents.size() > kMaxDims) {
    return Status::InvalidArgument(
        "cube dimensionality is limited to " + std::to_string(kMaxDims) +
        " (got " + std::to_string(extents.size()) + ")");
  }
  uint64_t volume = 1;
  for (uint32_t e : extents) {
    if (!IsPowerOfTwo(e)) {
      return Status::InvalidArgument(
          "every cube extent must be a power of two (got " +
          std::to_string(e) + ")");
    }
    if (volume > std::numeric_limits<uint64_t>::max() / e) {
      return Status::InvalidArgument("cube volume overflows 64 bits");
    }
    volume *= e;
  }
  // Keep dense cubes allocatable: 2^40 cells of doubles is already 8 TiB.
  if (volume > (uint64_t{1} << 40)) {
    return Status::InvalidArgument("cube volume exceeds 2^40 cells");
  }
  CubeShape shape;
  shape.extents_ = std::move(extents);
  shape.volume_ = volume;
  shape.log_extents_.resize(shape.extents_.size());
  shape.strides_.resize(shape.extents_.size());
  uint64_t stride = 1;
  for (size_t i = shape.extents_.size(); i-- > 0;) {
    shape.log_extents_[i] = ExactLog2(shape.extents_[i]);
    shape.strides_[i] = stride;
    stride *= shape.extents_[i];
  }
  return shape;
}

Result<CubeShape> CubeShape::MakeSquare(uint32_t d, uint32_t n) {
  return Make(std::vector<uint32_t>(d, n));
}

Result<CubeShape> CubeShape::MakePadded(
    const std::vector<uint32_t>& raw_extents) {
  std::vector<uint32_t> padded(raw_extents.size());
  for (size_t i = 0; i < raw_extents.size(); ++i) {
    if (raw_extents[i] == 0) {
      return Status::InvalidArgument("extent must be >= 1");
    }
    if (raw_extents[i] > (1u << 30)) {
      return Status::InvalidArgument("extent too large to pad");
    }
    padded[i] = static_cast<uint32_t>(NextPowerOfTwo(raw_extents[i]));
  }
  return Make(std::move(padded));
}

uint64_t CubeShape::FlatIndex(const std::vector<uint32_t>& coords) const {
  VECUBE_DCHECK(coords.size() == extents_.size());
  uint64_t flat = 0;
  for (size_t i = 0; i < coords.size(); ++i) {
    VECUBE_DCHECK(coords[i] < extents_[i]);
    flat += coords[i] * strides_[i];
  }
  return flat;
}

std::vector<uint32_t> CubeShape::Coords(uint64_t flat) const {
  VECUBE_DCHECK(flat < volume_);
  std::vector<uint32_t> coords(extents_.size());
  for (size_t i = 0; i < extents_.size(); ++i) {
    coords[i] = static_cast<uint32_t>(flat / strides_[i]);
    flat %= strides_[i];
  }
  return coords;
}

std::string CubeShape::ToString() const {
  std::string out = "[";
  for (size_t i = 0; i < extents_.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(extents_[i]);
  }
  out += "]";
  return out;
}

}  // namespace vecube
