// Procedure 3: total processing cost of a (possibly redundant) view
// element set (Section 5.3).
//
//   F_n = min over stored ancestors s of (Vol(s) − Vol(n))   [aggregation]
//   R_n = Vol(n) + min_m (T_p^m + T_r^m)                     [synthesis]
//   T_n = min(F_n, R_n),     T = Σ_k f_k T_k                 (Eqs. 32-34)
//
// The exhaustive test oracle for Procedure3Planner (core/planner.h), the
// Procedure-3 policy of the tiling DP (core/tiling_dp.h). It is written
// apart from that DP: it explores every synthesis cone the planner's
// finer-relative prune skips, prices no split by an upper bound, fills
// dense memo tables eagerly, and re-derives the used set from the costs
// rather than from recorded plans.

#ifndef VECUBE_TESTS_ORACLE_PROCEDURE3_H_
#define VECUBE_TESTS_ORACLE_PROCEDURE3_H_

#include <cstdint>
#include <vector>

#include "core/element_id.h"
#include "core/graph.h"
#include "core/planner.h"
#include "cube/shape.h"
#include "util/result.h"
#include "workload/population.h"

namespace vecube {

/// Evaluates Procedure-3 costs for a fixed selected set. Construction is
/// cheap; per-target evaluations are memoized across calls.
class Procedure3Calculator {
 public:
  /// The graph must be small enough for dense memo arrays (<= 2^24 nodes).
  static Result<Procedure3Calculator> Make(const CubeShape& shape,
                                           std::vector<ElementId> selected);

  /// T_n for one target; kInfiniteCost when the set cannot reconstruct it.
  uint64_t Cost(const ElementId& target);

  /// T = Σ_k f_k T_k. Infinity (kInfiniteCost as double) if any query is
  /// unreachable.
  double TotalCost(const QueryPopulation& population);

  /// The selected elements referenced by the optimal plans of the
  /// population's queries. Elements NOT in this set are obsolete: removing
  /// them leaves every optimal plan — and hence the total cost — intact
  /// (the "remove the obsolete view elements" refinement of Section
  /// 7.2.2). Errors if any query is unreachable.
  Result<std::vector<ElementId>> UsedElements(
      const QueryPopulation& population);

  [[nodiscard]] const std::vector<ElementId>& selected() const { return selected_; }

 private:
  Procedure3Calculator(const CubeShape& shape,
                       std::vector<ElementId> selected);

  // Allocation-free DP recursions over raw per-dimension code buffers.
  uint64_t EncodeRaw(const DimCode* codes) const;
  uint64_t VolumeRaw(const DimCode* codes) const;
  // Minimum volume over stored ancestors (inclusive); kInfiniteCost if none.
  uint64_t MinAncestorVolumeRaw(DimCode* codes);
  uint64_t SolveTRaw(DimCode* codes);
  void TraceUsedRaw(DimCode* codes, std::vector<uint8_t>* used);

  CubeShape shape_;
  std::vector<ElementId> selected_;
  ElementIndexer indexer_;
  std::vector<uint8_t> is_selected_;
  std::vector<uint64_t> g_memo_;  // min ancestor volume; 0 == unvisited
  std::vector<uint64_t> g_arg_;   // encoded index of the argmin ancestor
  std::vector<uint64_t> t_memo_;  // T_n + 1; 0 == unvisited
};

}  // namespace vecube

#endif  // VECUBE_TESTS_ORACLE_PROCEDURE3_H_
