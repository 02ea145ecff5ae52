#include "oracle/tilings.h"

#include <utility>

namespace vecube {

void EnumerateTilings(const ElementId& id, const CubeShape& shape,
                      std::vector<std::vector<ElementId>>* out) {
  out->push_back({id});
  for (uint32_t m = 0; m < id.ndim(); ++m) {
    if (!id.CanSplit(m, shape)) continue;
    auto p = id.Child(m, StepKind::kPartial, shape);
    auto r = id.Child(m, StepKind::kResidual, shape);
    std::vector<std::vector<ElementId>> left, right;
    EnumerateTilings(*p, shape, &left);
    EnumerateTilings(*r, shape, &right);
    for (const auto& l : left) {
      for (const auto& t : right) {
        std::vector<ElementId> combined = l;
        combined.insert(combined.end(), t.begin(), t.end());
        out->push_back(std::move(combined));
      }
    }
  }
}

}  // namespace vecube
