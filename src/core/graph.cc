#include "core/graph.h"

#include "core/freq_rect.h"
#include "util/logging.h"

namespace vecube {

uint64_t ViewElementGraph::NumElements() const {
  return ElementIndexer(shape_).size();
}

uint64_t ViewElementGraph::NumAggregatedViews() const {
  return uint64_t{1} << shape_.ndim();
}

uint64_t ViewElementGraph::NumIntermediate() const {
  uint64_t n = 1;
  for (uint32_t m = 0; m < shape_.ndim(); ++m) {
    n *= shape_.log_extent(m) + 1;
  }
  return n;
}

uint64_t ViewElementGraph::NumResidual() const {
  return NumElements() - NumIntermediate();
}

uint64_t ViewElementGraph::NumBlocks() const { return NumIntermediate(); }

void ViewElementGraph::ForEachElement(
    const std::function<void(const ElementId&)>& fn) const {
  // Index order is lexicographic id order: dimension 0 has the largest
  // place value, and code order is (level, offset) order.
  const ElementIndexer indexer(shape_);
  for (uint64_t index = 0; index < indexer.size(); ++index) {
    fn(indexer.Decode(index));
  }
}

std::vector<ElementId> ViewElementGraph::AggregatedViews() const {
  std::vector<ElementId> views;
  const uint32_t d = shape_.ndim();
  for (uint32_t mask = 0; mask < (1u << d); ++mask) {
    auto view = ElementId::AggregatedView(mask, shape_);
    VECUBE_CHECK(view.ok());
    views.push_back(*view);
  }
  return views;
}

std::vector<ElementId> ViewElementGraph::IntermediateElements() const {
  std::vector<ElementId> elements;
  std::vector<uint32_t> levels(shape_.ndim(), 0);
  for (;;) {
    auto id = ElementId::Intermediate(levels, shape_);
    VECUBE_CHECK(id.ok());
    elements.push_back(*id);
    // Odometer increment over per-dimension levels.
    uint32_t m = 0;
    for (; m < shape_.ndim(); ++m) {
      if (levels[m] < shape_.log_extent(m)) {
        ++levels[m];
        for (uint32_t j = 0; j < m; ++j) levels[j] = 0;
        break;
      }
    }
    if (m == shape_.ndim()) break;
  }
  return elements;
}

Result<std::vector<ElementId>> ViewElementGraph::Children(const ElementId& id,
                                                          uint32_t dim) const {
  ElementId p, r;
  VECUBE_ASSIGN_OR_RETURN(p, id.Child(dim, StepKind::kPartial, shape_));
  VECUBE_ASSIGN_OR_RETURN(r, id.Child(dim, StepKind::kResidual, shape_));
  return std::vector<ElementId>{p, r};
}

std::vector<ElementId> ViewElementGraph::Ancestors(const ElementId& id) const {
  std::vector<ElementId> out;
  ForEachElement([&](const ElementId& a) {
    if (a != id && IsAncestorOf(a, id)) out.push_back(a);
  });
  return out;
}

std::vector<ElementId> ViewElementGraph::Descendants(
    const ElementId& id) const {
  std::vector<ElementId> out;
  ForEachElement([&](const ElementId& d) {
    if (d != id && IsAncestorOf(id, d)) out.push_back(d);
  });
  return out;
}

ElementIndexer::ElementIndexer(CubeShape shape) : shape_(std::move(shape)) {
  weight_.resize(shape_.ndim());
  uint64_t w = 1;
  for (uint32_t m = shape_.ndim(); m-- > 0;) {
    weight_[m] = w;
    w *= 2ull * shape_.extent(m) - 1;
  }
  size_ = w;
}

ElementId ElementIndexer::Decode(uint64_t index) const {
  VECUBE_DCHECK(index < size_);
  ElementId id = ElementId::Root(shape_.ndim());
  for (uint32_t m = 0; m < shape_.ndim(); ++m) {
    id.codes_[m] = static_cast<uint32_t>(index / weight_[m]);
    index %= weight_[m];
  }
  return id;
}

}  // namespace vecube
