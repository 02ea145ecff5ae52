#include "core/repair.h"

#include <algorithm>
#include <utility>

#include "core/assembly.h"

namespace vecube {

Result<RepairReport> RepairStore(ElementStore* store, ThreadPool* pool) {
  if (store == nullptr) {
    return Status::InvalidArgument("store must be non-null");
  }
  RepairReport report;

  // Fixpoint iteration: a pass that repairs anything may open paths for
  // elements that previously had none (e.g. a repaired sibling enables a
  // synthesis). Each pass rebuilds the engine so new residents plan.
  bool progressed = true;
  while (progressed && store->quarantined_count() > 0) {
    progressed = false;
    AssemblyEngine engine(store, pool);
    std::vector<std::pair<ElementId, Tensor>> derived;
    for (const ElementId& id : store->QuarantinedIds()) {
      OpCounter ops;
      Result<Tensor> data = engine.Assemble(id, &ops);
      report.assembly_ops += ops.adds;
      if (!data.ok()) continue;  // retried next pass if others repair
      derived.emplace_back(id, std::move(data).value());
    }
    // Reinstate after the scan: the engine borrows the store, and a Put
    // mid-scan would invalidate its memoized plans.
    for (auto& [id, tensor] : derived) {
      VECUBE_RETURN_NOT_OK(store->Put(id, std::move(tensor)));
      report.repaired.push_back(id);
      progressed = true;
    }
  }
  report.unrepaired = store->QuarantinedIds();
  std::sort(report.repaired.begin(), report.repaired.end());
  return report;
}

}  // namespace vecube
