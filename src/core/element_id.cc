#include "core/element_id.h"

#include "util/logging.h"

namespace vecube {

ElementId ElementId::Root(uint32_t ndim) {
  return ElementId(std::vector<DimCode>(ndim));
}

Result<ElementId> ElementId::Make(std::vector<DimCode> codes,
                                  const CubeShape& shape) {
  ElementId id(std::move(codes));
  VECUBE_RETURN_NOT_OK(id.Validate(shape));
  return id;
}

Status ElementId::Validate(const CubeShape& shape) const {
  if (codes_.size() != shape.ndim()) {
    return Status::InvalidArgument("element arity does not match cube");
  }
  for (uint32_t m = 0; m < shape.ndim(); ++m) {
    if (codes_[m].level > shape.log_extent(m)) {
      return Status::InvalidArgument(
          "level " + std::to_string(codes_[m].level) +
          " exceeds cascade depth " + std::to_string(shape.log_extent(m)) +
          " of dimension " + std::to_string(m));
    }
    if (codes_[m].offset >= (1u << codes_[m].level)) {
      return Status::InvalidArgument(
          "offset " + std::to_string(codes_[m].offset) +
          " out of range for level " + std::to_string(codes_[m].level));
    }
  }
  return Status::OK();
}

Result<ElementId> ElementId::AggregatedView(uint32_t aggregated_mask,
                                            const CubeShape& shape) {
  if (shape.ndim() < 32 && (aggregated_mask >> shape.ndim()) != 0) {
    return Status::InvalidArgument("aggregation mask has extra bits");
  }
  std::vector<DimCode> codes(shape.ndim());
  for (uint32_t m = 0; m < shape.ndim(); ++m) {
    if ((aggregated_mask >> m) & 1u) {
      codes[m] = DimCode{shape.log_extent(m), 0};
    }
  }
  return ElementId(std::move(codes));
}

Result<ElementId> ElementId::Intermediate(const std::vector<uint32_t>& levels,
                                          const CubeShape& shape) {
  if (levels.size() != shape.ndim()) {
    return Status::InvalidArgument("level arity does not match cube");
  }
  std::vector<DimCode> codes(shape.ndim());
  for (uint32_t m = 0; m < shape.ndim(); ++m) {
    if (levels[m] > shape.log_extent(m)) {
      return Status::InvalidArgument("level exceeds cascade depth");
    }
    codes[m] = DimCode{levels[m], 0};
  }
  return ElementId(std::move(codes));
}

bool ElementId::CanSplit(uint32_t dim, const CubeShape& shape) const {
  VECUBE_DCHECK(dim < ndim());
  return codes_[dim].level < shape.log_extent(dim);
}

Result<ElementId> ElementId::Child(uint32_t dim, StepKind kind,
                                   const CubeShape& shape) const {
  if (dim >= ndim()) return Status::InvalidArgument("dimension out of range");
  if (!CanSplit(dim, shape)) {
    return Status::FailedPrecondition(
        "element is fully aggregated along dimension " + std::to_string(dim));
  }
  std::vector<DimCode> codes = codes_;
  codes[dim].level += 1;
  codes[dim].offset =
      codes[dim].offset * 2 + (kind == StepKind::kResidual ? 1 : 0);
  return ElementId(std::move(codes));
}

Result<ElementId> ElementId::Parent(uint32_t dim) const {
  if (dim >= ndim()) return Status::InvalidArgument("dimension out of range");
  if (codes_[dim].level == 0) {
    return Status::FailedPrecondition("root has no parent along dimension " +
                                      std::to_string(dim));
  }
  std::vector<DimCode> codes = codes_;
  codes[dim].level -= 1;
  codes[dim].offset >>= 1;
  return ElementId(std::move(codes));
}

Result<ElementId> ElementId::Sibling(uint32_t dim) const {
  if (dim >= ndim()) return Status::InvalidArgument("dimension out of range");
  if (codes_[dim].level == 0) {
    return Status::FailedPrecondition("root has no sibling");
  }
  std::vector<DimCode> codes = codes_;
  codes[dim].offset ^= 1u;
  return ElementId(std::move(codes));
}

bool ElementId::IsRoot() const {
  for (const DimCode& c : codes_) {
    if (c.level != 0) return false;
  }
  return true;
}

bool ElementId::IsAggregatedView(const CubeShape& shape) const {
  for (uint32_t m = 0; m < ndim(); ++m) {
    const DimCode& c = codes_[m];
    const bool untouched = (c.level == 0);
    const bool total = (c.level == shape.log_extent(m) && c.offset == 0);
    if (!untouched && !total) return false;
  }
  return true;
}

bool ElementId::IsIntermediate() const {
  for (const DimCode& c : codes_) {
    if (c.offset != 0) return false;
  }
  return true;
}

std::vector<uint32_t> ElementId::DataExtents(const CubeShape& shape) const {
  VECUBE_DCHECK(ndim() == shape.ndim());
  std::vector<uint32_t> extents(ndim());
  for (uint32_t m = 0; m < ndim(); ++m) {
    extents[m] = shape.extent(m) >> codes_[m].level;
  }
  return extents;
}

uint64_t ElementId::DataVolume(const CubeShape& shape) const {
  VECUBE_DCHECK(ndim() == shape.ndim());
  uint64_t volume = 1;
  for (uint32_t m = 0; m < ndim(); ++m) {
    volume *= shape.extent(m) >> codes_[m].level;
  }
  return volume;
}

uint32_t ElementId::TotalLevel() const {
  uint32_t total = 0;
  for (const DimCode& c : codes_) total += c.level;
  return total;
}

std::vector<CascadeStep> ElementId::PathFromRoot() const {
  std::vector<CascadeStep> steps;
  for (uint32_t m = 0; m < ndim(); ++m) {
    const DimCode& c = codes_[m];
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
    out += std::to_string(codes_[m].level);
    out += "@";
    out += std::to_string(codes_[m].offset);
  }
  out += ")";
  return out;
}

size_t ElementIdHash::operator()(const ElementId& id) const {
  uint64_t h = 1469598103934665603ULL;  // FNV offset basis
  for (const DimCode& c : id.codes()) {
    h ^= (static_cast<uint64_t>(c.level) << 32) | c.offset;
    h *= 1099511628211ULL;  // FNV prime
  }
  return static_cast<size_t>(h);
}

}  // namespace vecube
