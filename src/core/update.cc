#include "core/update.h"

#include "cube/tensor.h"
#include "util/logging.h"

namespace vecube {

Result<PointProjection> ProjectPoint(const ElementId& id,
                                     const std::vector<uint32_t>& coords,
                                     const CubeShape& shape) {
  if (id.ndim() != shape.ndim() || coords.size() != shape.ndim()) {
    return Status::InvalidArgument("arity mismatch");
  }
  PointProjection projection;
  uint64_t flat = 0;
  uint64_t stride = 1;
  int sign = +1;
  // Row-major over the element's data extents, last dimension contiguous.
  for (uint32_t m = shape.ndim(); m-- > 0;) {
    if (coords[m] >= shape.extent(m)) {
      return Status::OutOfRange("coordinate outside cube extent");
    }
    const DimCode c = id.dim(m);
    // Analysis step t consumes coordinate bit t; its kind is offset bit
    // (level - 1 - t). Residual steps negate when the consumed bit is 1.
    for (uint32_t t = 0; t < c.level; ++t) {
      const bool residual = ((c.offset >> (c.level - 1 - t)) & 1u) != 0;
      if (residual && ((coords[m] >> t) & 1u) != 0) sign = -sign;
    }
    const uint64_t cell = coords[m] >> c.level;
    flat += cell * stride;
    stride *= shape.extent(m) >> c.level;
  }
  projection.flat_index = flat;
  projection.sign = sign;
  return projection;
}

Status ApplyPointDelta(ElementStore* store,
                       const std::vector<uint32_t>& coords, double delta) {
  if (store == nullptr) {
    return Status::InvalidArgument("store must be non-null");
  }
  const CubeShape& shape = store->shape();
  // Two phases: validate every projection before touching any element.
  // A mid-loop failure must not leave the store partially updated — the
  // elements would then disagree with the base cube and with each other.
  struct Pending {
    Tensor* data;
    uint64_t flat_index;
    int sign;
  };
  const std::vector<ElementId> ids = store->Ids();
  std::vector<Pending> pending;
  pending.reserve(ids.size());
  for (const ElementId& id : ids) {
    PointProjection projection;
    VECUBE_ASSIGN_OR_RETURN(projection, ProjectPoint(id, coords, shape));
    Tensor* data;
    VECUBE_ASSIGN_OR_RETURN(data, store->GetMutable(id));
    pending.push_back(Pending{data, projection.flat_index, projection.sign});
  }
  for (const Pending& p : pending) {
    (*p.data)[p.flat_index] += p.sign * delta;
  }
  return Status::OK();
}

Status ApplyDeltas(ElementStore* store,
                   const std::vector<CellDelta>& deltas) {
  for (const CellDelta& d : deltas) {
    VECUBE_RETURN_NOT_OK(ApplyPointDelta(store, d.coords, d.delta));
  }
  return Status::OK();
}

}  // namespace vecube
