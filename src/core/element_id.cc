#include "core/element_id.h"

#include "util/logging.h"

namespace vecube {

namespace {

// The code of the node at (level, 0): the first code of its level.
uint32_t LevelStart(uint32_t level) { return (uint32_t{1} << level) - 1; }

}  // namespace

ElementId ElementId::Root(uint32_t ndim) {
  VECUBE_CHECK(ndim <= kMaxDims);
  ElementId id;
  id.ndim_ = ndim;
  return id;
}

Result<ElementId> ElementId::Make(std::vector<DimCode> codes,
                                  const CubeShape& shape) {
  if (codes.size() != shape.ndim()) {
    return Status::InvalidArgument("element arity does not match cube");
  }
  ElementId id = Root(shape.ndim());
  for (uint32_t m = 0; m < shape.ndim(); ++m) {
    if (codes[m].level > shape.log_extent(m)) {
      return Status::InvalidArgument(
          "level " + std::to_string(codes[m].level) +
          " exceeds cascade depth " + std::to_string(shape.log_extent(m)) +
          " of dimension " + std::to_string(m));
    }
    if (codes[m].offset >= (1u << codes[m].level)) {
      return Status::InvalidArgument(
          "offset " + std::to_string(codes[m].offset) +
          " out of range for level " + std::to_string(codes[m].level));
    }
    id.codes_[m] = LevelStart(codes[m].level) + codes[m].offset;
  }
  return id;
}

Status ElementId::Validate(const CubeShape& shape) const {
  if (ndim_ != shape.ndim()) {
    return Status::InvalidArgument("element arity does not match cube");
  }
  for (uint32_t m = 0; m < ndim_; ++m) {
    if (level(m) > shape.log_extent(m)) {
      return Status::InvalidArgument(
          "level " + std::to_string(level(m)) + " exceeds cascade depth " +
          std::to_string(shape.log_extent(m)) + " of dimension " +
          std::to_string(m));
    }
  }
  return Status::OK();
}

Result<ElementId> ElementId::AggregatedView(uint32_t aggregated_mask,
                                            const CubeShape& shape) {
  if ((aggregated_mask >> shape.ndim()) != 0) {
    return Status::InvalidArgument("aggregation mask has extra bits");
  }
  ElementId id = Root(shape.ndim());
  for (uint32_t m = 0; m < shape.ndim(); ++m) {
    if ((aggregated_mask >> m) & 1u) {
      id.codes_[m] = LevelStart(shape.log_extent(m));
    }
  }
  return id;
}

Result<ElementId> ElementId::Intermediate(const std::vector<uint32_t>& levels,
                                          const CubeShape& shape) {
  if (levels.size() != shape.ndim()) {
    return Status::InvalidArgument("level arity does not match cube");
  }
  ElementId id = Root(shape.ndim());
  for (uint32_t m = 0; m < shape.ndim(); ++m) {
    if (levels[m] > shape.log_extent(m)) {
      return Status::InvalidArgument("level exceeds cascade depth");
    }
    id.codes_[m] = LevelStart(levels[m]);
  }
  return id;
}

Result<ElementId> ElementId::Child(uint32_t dim, StepKind kind,
                                   const CubeShape& shape) const {
  if (dim >= ndim()) return Status::InvalidArgument("dimension out of range");
  if (!CanSplit(dim, shape)) {
    return Status::FailedPrecondition(
        "element is fully aggregated along dimension " + std::to_string(dim));
  }
  return ChildUnchecked(dim, kind);
}

Result<ElementId> ElementId::Parent(uint32_t dim) const {
  if (dim >= ndim()) return Status::InvalidArgument("dimension out of range");
  if (codes_[dim] == 0) {
    return Status::FailedPrecondition("root has no parent along dimension " +
                                      std::to_string(dim));
  }
  return ParentUnchecked(dim);
}

Result<ElementId> ElementId::Sibling(uint32_t dim) const {
  if (dim >= ndim()) return Status::InvalidArgument("dimension out of range");
  if (codes_[dim] == 0) {
    return Status::FailedPrecondition("root has no sibling");
  }
  ElementId sibling = *this;
  sibling.codes_[dim] = ((codes_[dim] - 1) ^ 1u) + 1;
  return sibling;
}

bool ElementId::IsRoot() const {
  for (uint32_t m = 0; m < ndim_; ++m) {
    if (codes_[m] != 0) return false;
  }
  return true;
}

bool ElementId::IsAggregatedView(const CubeShape& shape) const {
  for (uint32_t m = 0; m < ndim_; ++m) {
    if (codes_[m] != 0 && codes_[m] != LevelStart(shape.log_extent(m))) {
      return false;
    }
  }
  return true;
}

bool ElementId::IsIntermediate() const {
  // Offset 0 exactly when code + 1 is a power of two.
  for (uint32_t m = 0; m < ndim_; ++m) {
    if ((codes_[m] & (codes_[m] + 1)) != 0) return false;
  }
  return true;
}

std::vector<uint32_t> ElementId::DataExtents(const CubeShape& shape) const {
  VECUBE_DCHECK(ndim() == shape.ndim());
  std::vector<uint32_t> extents(ndim());
  for (uint32_t m = 0; m < ndim(); ++m) {
    extents[m] = shape.extent(m) >> level(m);
  }
  return extents;
}

uint64_t ElementId::DataVolume(const CubeShape& shape) const {
  VECUBE_DCHECK(ndim() == shape.ndim());
  uint64_t volume = 1;
  for (uint32_t m = 0; m < ndim(); ++m) {
    volume *= shape.extent(m) >> level(m);
  }
  return volume;
}

uint32_t ElementId::TotalLevel() const {
  uint32_t total = 0;
  for (uint32_t m = 0; m < ndim_; ++m) total += level(m);
  return total;
}

std::vector<CascadeStep> ElementId::PathFromRoot() const {
  std::vector<CascadeStep> steps;
  for (uint32_t m = 0; m < ndim(); ++m) {
    const DimCode c = dim(m);
    for (uint32_t bit = c.level; bit-- > 0;) {
      const bool residual = ((c.offset >> bit) & 1u) != 0;
      steps.push_back(
          CascadeStep{m, residual ? StepKind::kResidual : StepKind::kPartial});
    }
  }
  return steps;
}

std::string ElementId::ToString() const {
  std::string out = "(";
  for (uint32_t m = 0; m < ndim(); ++m) {
    if (m > 0) out += ", ";
    const DimCode c = dim(m);
    out += std::to_string(c.level);
    out += "@";
    out += std::to_string(c.offset);
  }
  out += ")";
  return out;
}

size_t ElementIdHash::operator()(const ElementId& id) const {
  uint64_t h = 1469598103934665603ULL;  // FNV offset basis
  for (uint32_t m = 0; m < id.ndim(); ++m) {
    h ^= id.code(m);
    h *= 1099511628211ULL;  // FNV prime
  }
  return static_cast<size_t>(h);
}

}  // namespace vecube
