#include "range/range_engine.h"

#include <vector>

#include "core/update.h"
#include "util/logging.h"

namespace vecube {

RangeEngine::RangeEngine(const ElementStore* store,
                         MissingElementPolicy policy, ElementServer* server)
    : store_(store),
      server_(policy == MissingElementPolicy::kAssemble ? server : nullptr),
      assembled_cache_(store->shape()) {
  VECUBE_CHECK(store != nullptr);
  VECUBE_CHECK(policy == MissingElementPolicy::kError || server != nullptr);
}

Result<double> RangeEngine::RangeSum(const RangeSpec& range,
                                     RangeQueryStats* stats,
                                     const QueryContext& ctx) {
  const CubeShape& shape = store_->shape();
  if (range.ndim() != shape.ndim()) {
    return Status::InvalidArgument("range arity does not match store");
  }
  RangeSpec checked;
  VECUBE_ASSIGN_OR_RETURN(
      checked, RangeSpec::Make(range.start, range.width, shape));

  const uint32_t d = shape.ndim();
  std::vector<std::vector<DyadicBlock>> blocks(d);
  for (uint32_t m = 0; m < d; ++m) {
    blocks[m] =
        DecomposeInterval(range.start[m], range.width[m], shape.log_extent(m));
  }
  QueryContext exact = ctx;
  exact.set_allow_degraded(false);
  // Served intermediates live in the server's cache, or else here.
  const bool memo = server_ != nullptr && !server_->caching();

  // Odometer over block combinations.
  std::vector<size_t> pick(d, 0);
  std::vector<uint32_t> levels(d);
  std::vector<uint32_t> coords(d);
  double total = 0.0;
  uint64_t terms = 0;
  for (;;) {
    VECUBE_RETURN_NOT_OK(server_ != nullptr ? server_->Check(exact)
                                            : exact.Check());
    for (uint32_t m = 0; m < d; ++m) {
      levels[m] = blocks[m][pick[m]].level;
      coords[m] = blocks[m][pick[m]].index;
    }
    ElementId id;
    VECUBE_ASSIGN_OR_RETURN(id, ElementId::Intermediate(levels, shape));

    const Tensor* element = nullptr;
    ViewCache::ReadHandle hit;  // a cache hit, read in place
    QueryAnswer served;         // keeps a served answer alive
    if (store_->Contains(id)) {
      VECUBE_ASSIGN_OR_RETURN(element, store_->Get(id));
    } else if (server_ == nullptr) {
      return Status::NotFound("intermediate element " + id.ToString() +
                              " not materialized");
    } else if (memo && assembled_cache_.Contains(id)) {
      VECUBE_ASSIGN_OR_RETURN(element, assembled_cache_.Get(id));
    } else {
      VECUBE_ASSIGN_OR_RETURN(served, server_->Resolve(id, exact, &hit));
      if (stats != nullptr && served.ops > 0) {
        ++stats->elements_missing;
        stats->assembly_ops += served.ops;
      }
      if (memo) {
        VECUBE_RETURN_NOT_OK(
            assembled_cache_.Put(id, std::move(served.data).Take()));
        VECUBE_ASSIGN_OR_RETURN(element, assembled_cache_.Get(id));
      } else if (!hit) {
        element = &served.data.get();
      }
    }

    // A cache hit reads one cell through the handle, which applies the
    // entry's pending write patches to it: no copy of the element.
    total += hit ? hit.At(coords) : element->At(coords);
    ++terms;
    if (stats != nullptr) ++stats->cell_reads;

    // Advance the odometer.
    uint32_t m = 0;
    for (; m < d; ++m) {
      if (++pick[m] < blocks[m].size()) break;
      pick[m] = 0;
    }
    if (m == d) break;
  }
  if (stats != nullptr && terms > 0) stats->additions += terms - 1;
  return total;
}

Status RangeEngine::ApplyPointDelta(const std::vector<uint32_t>& coords,
                                    double delta) {
  return vecube::ApplyPointDelta(&assembled_cache_, coords, delta);
}

Result<double> NaiveRangeSum(const Tensor& cube, const CubeShape& shape,
                             const RangeSpec& range, uint64_t* cells_read) {
  if (cube.extents() != shape.extents()) {
    return Status::InvalidArgument("cube extents do not match shape");
  }
  RangeSpec checked;
  VECUBE_ASSIGN_OR_RETURN(
      checked, RangeSpec::Make(range.start, range.width, shape));

  const uint32_t d = shape.ndim();
  std::vector<uint32_t> coords(range.start);
  double total = 0.0;
  uint64_t reads = 0;
  for (;;) {
    total += cube.At(coords);
    ++reads;
    uint32_t m = 0;
    for (; m < d; ++m) {
      if (++coords[m] < range.start[m] + range.width[m]) break;
      coords[m] = range.start[m];
    }
    if (m == d) break;
  }
  if (cells_read != nullptr) *cells_read += reads;
  return total;
}

}  // namespace vecube
