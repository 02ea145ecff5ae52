// Self-healing of quarantined view elements via dynamic assembly.
//
// The paper's central result — any view element is assemblable from
// other elements (Procedure 3) — doubles as a repair primitive: an
// element whose persisted bytes were lost to corruption is not data loss
// as long as a reconstruction path (a stored ancestor to aggregate, or
// the P/R children to synthesize) survives. RepairStore walks the
// quarantine list and re-derives each element from the healthy ones,
// iterating to a fixpoint so repaired elements can in turn unlock
// further repairs. Whatever remains unreachable stays quarantined and is
// reported — never silently zeroed.

#ifndef VECUBE_CORE_REPAIR_H_
#define VECUBE_CORE_REPAIR_H_

#include <cstdint>
#include <vector>

#include "core/store.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace vecube {

/// Outcome of one repair pass.
struct RepairReport {
  std::vector<ElementId> repaired;    ///< re-derived and reinstated
  std::vector<ElementId> unrepaired;  ///< no surviving reconstruction path
  uint64_t assembly_ops = 0;          ///< add/sub operations spent
  [[nodiscard]] bool complete() const { return unrepaired.empty(); }
};

/// Re-derives every quarantined element of `store` that has a surviving
/// reconstruction path, reinstating it via Put (which clears the
/// quarantine mark). Deterministic: elements are attempted in sorted
/// order, and repeated passes run until no pass makes progress.
Result<RepairReport> RepairStore(ElementStore* store,
                                 ThreadPool* pool = nullptr);

}  // namespace vecube

#endif  // VECUBE_CORE_REPAIR_H_
