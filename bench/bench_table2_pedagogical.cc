// Reproduces Table 2 / Figure 7 of the paper: the pedagogical 2x2 data
// cube example. Two views, V1 and V7, are equally likely (f1 = f7 = 0.5).
// For ten view element sets we compute completeness, redundancy, the
// processing cost (operations to generate each queried view once, per
// Procedure 3) and the storage cost, and compare against the paper's
// values.
//
// Element labels (see DESIGN.md for the derivation):
//   V0 = A = (I, I)    V1 = (P, I)   V2 = (P, P)   V3 = (P, R)
//   V4 = (R, I)        V5 = (R, P)   V6 = (R, R)   V7 = (I, P)
//   V8 = (I, R)

#include <cstdio>
#include <string>
#include <vector>

#include "core/basis.h"
#include "core/planner.h"
#include "select/algorithm1.h"
#include "select/pair_cost.h"
#include "workload/population.h"

using vecube::ElementId;

namespace {

struct Row {
  std::string label;
  std::vector<int> members;
  bool paper_basis;
  bool paper_redundant;
  uint64_t paper_processing;
  uint64_t paper_storage;
};

}  // namespace

int main() {
  auto shape_result = vecube::CubeShape::Make({2, 2});
  if (!shape_result.ok()) return 1;
  const vecube::CubeShape shape = *shape_result;

  auto make = [&](uint32_t l0, uint32_t o0, uint32_t l1, uint32_t o1) {
    auto id = ElementId::Make({{l0, o0}, {l1, o1}}, shape);
    return *id;
  };
  const std::vector<ElementId> v = {
      make(0, 0, 0, 0), make(1, 0, 0, 0), make(1, 0, 1, 0),
      make(1, 0, 1, 1), make(1, 1, 0, 0), make(1, 1, 1, 0),
      make(1, 1, 1, 1), make(0, 0, 1, 0), make(0, 0, 1, 1)};

  const std::vector<Row> rows = {
      {"{V3, V6, V7}", {3, 6, 7}, true, false, 3, 4},
      {"{V1, V5, V6}", {1, 5, 6}, true, false, 3, 4},
      {"{V0}", {0}, true, false, 4, 4},
      {"{V1, V4}", {1, 4}, true, false, 4, 4},
      {"{V7, V8}", {7, 8}, true, false, 4, 4},
      {"{V2, V3, V5, V6}", {2, 3, 5, 6}, true, false, 4, 4},
      {"{V0, V1, V7}", {0, 1, 7}, true, true, 0, 8},
      {"{V1, V7}", {1, 7}, false, true, 0, 4},
      {"{V3, V7}", {3, 7}, false, false, 3, 3},
      {"{V2, V3, V5}", {2, 3, 5}, false, false, 4, 3},
  };

  std::printf("Table 2: processing and storage costs of view element sets\n");
  std::printf("(2x2 cube, queries V1 and V7 equally likely; processing =\n");
  std::printf(" operations to generate each queried view once)\n\n");
  std::printf("%-18s | %-5s %-9s | %10s %7s | %s\n", "set", "basis",
              "redundant", "processing", "storage", "vs paper");
  std::printf("-------------------------------------------------------------"
              "-----------\n");

  bool all_match = true;
  for (const Row& row : rows) {
    std::vector<ElementId> set;
    for (int i : row.members) set.push_back(v[static_cast<size_t>(i)]);

    const bool complete = vecube::IsComplete(set, shape);
    const bool redundant = !vecube::IsNonRedundant(set, shape);
    const uint64_t storage = vecube::StorageVolume(set, shape);

    auto planner = vecube::Procedure3Planner::Make(shape, set);
    if (!planner.ok()) return 1;
    const uint64_t c1 = planner->Cost(v[1]);
    const uint64_t c7 = planner->Cost(v[7]);
    const uint64_t processing = c1 + c7;

    const bool matches = complete == row.paper_basis &&
                         redundant == row.paper_redundant &&
                         processing == row.paper_processing &&
                         storage == row.paper_storage;
    all_match = all_match && matches;
    std::printf("%-18s | %-5s %-9s | %10llu %7llu | %s\n", row.label.c_str(),
                complete ? "yes" : "no", redundant ? "yes" : "no",
                static_cast<unsigned long long>(processing),
                static_cast<unsigned long long>(storage),
                matches ? "= paper" : "MISMATCH");
  }

  // The example's optimization claim: Algorithm 1 finds a cost-3 basis.
  auto population = vecube::FixedPopulation({{v[1], 0.5}, {v[7], 0.5}}, shape);
  auto selection = vecube::SelectMinCostBasis(shape, *population);
  if (!selection.ok()) return 1;
  std::printf("\nAlgorithm 1 selection: cost %.1f (weighted; x2 = %g ops), "
              "basis of %zu elements\n",
              selection->predicted_cost, 2 * selection->predicted_cost,
              selection->basis.size());
  for (const ElementId& id : selection->basis) {
    std::printf("  %s\n", id.ToString().c_str());
  }
  const bool optimal = selection->predicted_cost == 1.5;
  all_match = all_match && optimal;

  std::printf("\n%s\n", all_match ? "All Table 2 rows match the paper; "
                                    "Algorithm 1 attains the optimum (3 ops)."
                                  : "MISMATCH detected — see rows above.");
  return all_match ? 0 : 1;
}
