#include "core/computer.h"

#include "util/logging.h"

namespace vecube {

ElementComputer::ElementComputer(const CubeShape& shape, const Tensor* cube)
    : shape_(shape), cube_(cube) {
  VECUBE_CHECK(cube != nullptr);
  VECUBE_CHECK(cube->extents() == shape.extents());
}

Result<Tensor> ElementComputer::Compute(const ElementId& id, OpCounter* ops) {
  VECUBE_RETURN_NOT_OK(id.Validate(shape_));

  if (id.IsRoot()) return *cube_;
  if (auto it = cache_.find(id); it != cache_.end()) return it->second;

  // Recurse via the parent along the last dimension with nonzero level, so
  // cascade prefixes are shared through the cache.
  uint32_t dim = id.ndim();
  for (uint32_t m = id.ndim(); m-- > 0;) {
    if (id.code(m) != 0) {
      dim = m;
      break;
    }
  }
  VECUBE_CHECK(dim < id.ndim());
  ElementId parent;
  VECUBE_ASSIGN_OR_RETURN(parent, id.Parent(dim));
  Tensor parent_data;
  VECUBE_ASSIGN_OR_RETURN(parent_data, Compute(parent, ops));

  Tensor data;
  if (id.IsPartialChild(dim)) {
    VECUBE_ASSIGN_OR_RETURN(data, PartialSum(parent_data, dim, ops));
  } else {
    VECUBE_ASSIGN_OR_RETURN(data, PartialResidual(parent_data, dim, ops));
  }
  cache_.emplace(id, data);
  return data;
}

Result<ElementStore> ElementComputer::Materialize(
    const std::vector<ElementId>& set, OpCounter* ops) {
  ElementStore store(shape_);
  for (const ElementId& id : set) {
    Tensor data;
    VECUBE_ASSIGN_OR_RETURN(data, Compute(id, ops));
    VECUBE_RETURN_NOT_OK(store.Put(id, std::move(data)));
  }
  return store;
}

}  // namespace vecube
