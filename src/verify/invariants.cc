#include "verify/invariants.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "core/assembly.h"
#include "core/computer.h"
#include "core/element_id.h"
#include "haar/transform.h"
#include "util/rng.h"

namespace vecube {
namespace {

constexpr size_t kMaxReportMessages = 16;

/// Mixed absolute/relative comparison: exact algebra up to one rounding
/// per cascade stage, scaled for large aggregates.
bool CellsClose(double a, double b, double tol) {
  const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= tol * scale;
}

}  // namespace

InvariantChecker::InvariantChecker(CubeShape shape, InvariantOptions options)
    : shape_(std::move(shape)), options_(options) {}

Status InvariantChecker::Violation(std::string message) {
  ++report_.violations;
  if (report_.messages.size() < kMaxReportMessages) {
    report_.messages.push_back(message);
  }
  return Status::Internal(std::move(message));
}

Status InvariantChecker::Finish(Status status) {
  ++report_.checks_run;
  return status;
}

Status InvariantChecker::CheckElementBounds(const ElementStore& store) {
  if (store.shape() != shape_) {
    return Finish(Violation("store shape " + store.shape().ToString() +
                            " does not match checker shape " +
                            shape_.ToString()));
  }
  // ElementStore::Put already refuses an id of the wrong arity or with a
  // level beyond its dimension's depth, so what can still rot is data.
  for (const ElementId& id : store.Ids()) {
    Result<const Tensor*> data = store.Get(id);
    if (!data.ok()) {
      return Finish(Violation("element " + id.ToString() +
                              " listed but not readable: " +
                              data.status().ToString()));
    }
    if ((*data)->extents() != id.DataExtents(shape_)) {
      return Finish(Violation("element " + id.ToString() + " data extents " +
                              (*data)->ShapeString() +
                              " disagree with (k,o) geometry"));
    }
  }
  return Finish(Status::OK());
}

Status InvariantChecker::CheckHaarRoundTrip(const Tensor& tensor) {
  Rng rng(options_.seed ^ 0x1);
  uint64_t examined = 0;
  for (uint32_t dim = 0; dim < tensor.ndim(); ++dim) {
    const uint32_t extent = tensor.extent(dim);
    if (extent < 2 || extent % 2 != 0) continue;
    const uint64_t stride = tensor.stride(dim);
    const uint64_t lines = tensor.size() / extent;
    const uint64_t samples =
        std::min<uint64_t>(options_.max_sampled_rows, lines);
    for (uint64_t s = 0; s < samples; ++s) {
      // Derive the start of the line containing a uniformly sampled cell.
      const uint64_t cell = rng.UniformU64(tensor.size());
      const uint64_t coord = (cell / stride) % extent;
      const uint64_t start = cell - coord * stride;
      for (uint32_t i = 0; i < extent / 2; ++i) {
        const double even = tensor[start + uint64_t{2} * i * stride];
        const double odd = tensor[start + (uint64_t{2} * i + 1) * stride];
        const double p = even + odd;   // Eq. 1
        const double r = even - odd;   // Eq. 2
        const double even_back = (p + r) / 2.0;  // Eq. 3
        const double odd_back = (p - r) / 2.0;   // Eq. 4
        if (!CellsClose(even_back, even, options_.tolerance) ||
            !CellsClose(odd_back, odd, options_.tolerance)) {
          return Finish(Violation(
              "Haar round trip failed along dim " + std::to_string(dim) +
              " at pair " + std::to_string(i) + ": (" +
              std::to_string(even) + ", " + std::to_string(odd) +
              ") -> (" + std::to_string(even_back) + ", " +
              std::to_string(odd_back) + ")"));
        }
      }
      examined += extent;
      if (examined > options_.max_checked_cells) return Finish(Status::OK());
    }
  }
  return Finish(Status::OK());
}

Status InvariantChecker::CheckNonExpansiveSplit(const Tensor& tensor) {
  uint64_t examined = 0;
  for (uint32_t dim = 0; dim < tensor.ndim(); ++dim) {
    const uint32_t extent = tensor.extent(dim);
    if (extent < 2 || extent % 2 != 0) continue;
    Tensor partial, residual;
    Status split = PartialPair(tensor, dim, &partial, &residual);
    if (!split.ok()) {
      return Finish(Violation("P1/R1 split failed along dim " +
                              std::to_string(dim) + ": " + split.ToString()));
    }
    if (partial.size() + residual.size() != tensor.size()) {
      return Finish(Violation(
          "non-expansiveness violated along dim " + std::to_string(dim) +
          ": Vol(P)=" + std::to_string(partial.size()) + " + Vol(R)=" +
          std::to_string(residual.size()) + " != Vol(A)=" +
          std::to_string(tensor.size())));
    }
    Result<Tensor> back = SynthesizePair(partial, residual, dim);
    if (!back.ok()) {
      return Finish(Violation("synthesis failed along dim " +
                              std::to_string(dim) + ": " +
                              back.status().ToString()));
    }
    if (!back->ApproxEquals(tensor, options_.tolerance)) {
      return Finish(Violation(
          "perfect reconstruction violated along dim " + std::to_string(dim) +
          ": synthesized parent differs from original"));
    }
    examined += tensor.size();
    if (examined > options_.max_checked_cells) break;
  }
  return Finish(Status::OK());
}

Status InvariantChecker::CheckOpCount(uint64_t plan_cost,
                                      uint64_t measured_ops) {
  if (plan_cost != measured_ops) {
    return Finish(Violation("measured assembly ops " +
                            std::to_string(measured_ops) +
                            " differ from Procedure-3 plan cost " +
                            std::to_string(plan_cost)));
  }
  return Finish(Status::OK());
}

Status InvariantChecker::CheckStoreConsistency(const ElementStore& store,
                                               const Tensor& cube) {
  if (cube.extents() != shape_.extents()) {
    return Finish(Violation("cube extents " + cube.ShapeString() +
                            " do not match checker shape " +
                            shape_.ToString()));
  }
  std::vector<ElementId> ids = store.Ids();
  if (ids.empty()) return Finish(Status::OK());

  // Deterministic sample of at most max_checked_elements ids, charging
  // one cube volume of budget per recomputed element.
  Rng rng(options_.seed ^ 0x2);
  std::vector<ElementId> sample;
  if (ids.size() <= options_.max_checked_elements) {
    sample = std::move(ids);
  } else {
    std::vector<uint8_t> taken(ids.size(), 0);
    while (sample.size() < options_.max_checked_elements) {
      uint64_t pick = rng.UniformU64(ids.size());
      while (taken[pick]) pick = (pick + 1) % ids.size();
      taken[pick] = 1;
      sample.push_back(ids[pick]);
    }
  }

  ElementComputer computer(shape_, &cube);
  uint64_t examined = 0;
  for (const ElementId& id : sample) {
    Result<Tensor> expected = computer.Compute(id);
    if (!expected.ok()) {
      return Finish(Violation("cannot recompute element " + id.ToString() +
                              ": " + expected.status().ToString()));
    }
    Result<const Tensor*> stored = store.Get(id);
    if (!stored.ok()) {
      return Finish(Violation("element " + id.ToString() +
                              " vanished during consistency check"));
    }
    if (!(*stored)->ApproxEquals(*expected, options_.tolerance)) {
      return Finish(Violation(
          "store inconsistent with base cube: element " + id.ToString() +
          " differs from its analysis cascade"));
    }
    examined += shape_.volume();
    if (examined > options_.max_checked_cells) break;
  }
  return Finish(Status::OK());
}

Status InvariantChecker::CheckStoreAccounting(const ElementStore& store) {
  uint64_t cells = 0;
  for (const ElementId& id : store.Ids()) {
    Result<const Tensor*> data = store.Get(id);
    if (!data.ok()) {
      return Finish(Violation("element " + id.ToString() +
                              " listed but not readable: " +
                              data.status().ToString()));
    }
    cells += (*data)->size();
    if (store.IsQuarantined(id)) {
      return Finish(Violation("element " + id.ToString() +
                              " is both resident and quarantined"));
    }
  }
  if (cells != store.StorageCells()) {
    return Finish(Violation(
        "StorageCells() = " + std::to_string(store.StorageCells()) +
        " but resident elements sum to " + std::to_string(cells)));
  }
  return Finish(Status::OK());
}

Status InvariantChecker::CheckPerfectReconstruction(const ElementStore& store,
                                                    const Tensor& cube) {
  if (cube.extents() != shape_.extents()) {
    return Finish(Violation("cube extents " + cube.ShapeString() +
                            " do not match checker shape " +
                            shape_.ToString()));
  }
  AssemblyEngine engine(&store);
  const ElementId root = ElementId::Root(shape_.ndim());
  const uint64_t plan_cost = engine.PlanCost(root);
  // A store with no path to the root (e.g. beyond the engine's planning
  // arity, or deliberately partial) is not an invariant violation;
  // completeness is checked where a plan claims to exist.
  if (plan_cost == kInfiniteCost) return Finish(Status::OK());

  OpCounter ops;
  Result<Tensor> rebuilt = engine.Assemble(root, &ops);
  if (!rebuilt.ok()) {
    return Finish(Violation(
        "root plan cost is finite but assembly failed: " +
        rebuilt.status().ToString()));
  }
  if (ops.adds != plan_cost) {
    return Finish(Violation("root reconstruction ops " +
                            std::to_string(ops.adds) +
                            " differ from Procedure-3 plan cost " +
                            std::to_string(plan_cost)));
  }
  if (!rebuilt->ApproxEquals(cube, options_.tolerance)) {
    return Finish(Violation(
        "perfect reconstruction violated: assembled base cube differs "
        "from A"));
  }
  return Finish(Status::OK());
}

Status InvariantChecker::CheckAll(const ElementStore& store,
                                  const Tensor& cube) {
  Status first = Status::OK();
  auto absorb = [&first](Status status) {
    if (first.ok() && !status.ok()) first = std::move(status);
  };
  absorb(CheckElementBounds(store));
  absorb(CheckStoreAccounting(store));
  absorb(CheckHaarRoundTrip(cube));
  absorb(CheckNonExpansiveSplit(cube));
  absorb(CheckStoreConsistency(store, cube));
  absorb(CheckPerfectReconstruction(store, cube));
  return first;
}

}  // namespace vecube
