// InvariantChecker: runtime verification of the paper's algebraic
// guarantees.
//
// Every materialization path in vecube must preserve a small set of
// invariants that the paper proves analytically:
//
//   * (k,o) well-formedness — every resident element's per-dimension
//     (level, offset) codes obey 0 <= level <= K_m and 0 <= offset < 2^k,
//     and its data extents are n_m >> k (Definitions 2-4, the Eq. 23
//     frequency-plane map);
//   * perfect reconstruction — the Haar analysis/synthesis pair is an
//     exact round trip (Eqs. 1-4), so the store can rebuild the base cube
//     A bit-for-bit (up to float tolerance);
//   * non-expansiveness — Vol(P1(A)) + Vol(R1(A)) = Vol(A) along every
//     dimension (Property 3);
//   * cost-model fidelity — the op count measured while executing an
//     assembly equals the Procedure-3 analytic plan cost;
//   * store consistency — after incremental maintenance
//     (ApplyPointDelta), every stored element still equals the analysis
//     cascade of the current cube.
//
// The checker is deliberately sampling-based and budgeted so it can run
// after *every* engine operation in a VECUBE_VERIFY build without turning
// the test suite quadratic: row and element samples are drawn from a
// deterministic Rng re-seeded per call, and each call stops once
// `max_checked_cells` of input volume have been examined.
//
// All checks return Status: OK when the invariant holds (or the check was
// skipped for budget reasons), Internal with a diagnostic message when it
// is violated. Violations are also accumulated in report() so callers can
// distinguish "never ran" from "ran clean".

#ifndef VECUBE_VERIFY_INVARIANTS_H_
#define VECUBE_VERIFY_INVARIANTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/store.h"
#include "cube/shape.h"
#include "cube/tensor.h"
#include "util/result.h"

namespace vecube {

/// Sampling budgets and tolerances for the checker. Defaults keep a
/// per-operation check roughly O(Vol(A)) worst case.
struct InvariantOptions {
  /// Lines sampled per dimension by the Haar round-trip check.
  uint32_t max_sampled_rows = 4;
  /// Stored elements recomputed per store-consistency check.
  uint32_t max_checked_elements = 4;
  /// Input-volume budget (cells) per check call; sampling stops once
  /// exceeded. At least one sample always runs.
  uint64_t max_checked_cells = uint64_t{1} << 16;
  /// Absolute tolerance for float comparisons. The unnormalized Haar pair
  /// over test-scale data is exact in IEEE double, but synthesized halves
  /// ((P±R)/2) can round once per cascade stage on adversarial values.
  double tolerance = 1e-6;
  /// Seed for the deterministic sampling streams.
  uint64_t seed = 0x7ecb5eedULL;
};

/// Violation accounting across a checker's lifetime.
struct InvariantReport {
  uint64_t checks_run = 0;
  uint64_t violations = 0;
  /// First few violation diagnostics (capped at 16).
  std::vector<std::string> messages;
};

class InvariantChecker {
 public:
  explicit InvariantChecker(CubeShape shape, InvariantOptions options = {});

  /// Store shape and data-extent agreement for every resident element
  /// ((k,o) bounds themselves are enforced by ElementStore::Put).
  Status CheckElementBounds(const ElementStore& store);

  /// Analysis/synthesis round trip on sampled lines of `tensor` along
  /// every dimension with even extent (Eqs. 1-4).
  Status CheckHaarRoundTrip(const Tensor& tensor);

  /// Non-expansiveness of the P1/R1 split along every splittable
  /// dimension: volumes partition exactly and the children synthesize the
  /// parent back (Property 3 + Eqs. 3-4).
  Status CheckNonExpansiveSplit(const Tensor& tensor);

  /// Procedure-3 cost-model fidelity: measured ops equal the plan cost.
  Status CheckOpCount(uint64_t plan_cost, uint64_t measured_ops);

  /// Sampled stored elements equal the analysis cascade of `cube`.
  Status CheckStoreConsistency(const ElementStore& store, const Tensor& cube);

  /// Store bookkeeping: StorageCells() equals the summed volume of the
  /// resident elements, and no id is simultaneously resident and
  /// quarantined. Exact (not sampled) — it is O(#elements), touching no
  /// cell data — and guards the accounting under Put/Erase/Quarantine
  /// churn during degraded operation and repair.
  Status CheckStoreAccounting(const ElementStore& store);

  /// The store reconstructs the base cube A exactly, and the measured
  /// reconstruction ops equal the analytic plan cost. Skipped (OK) when
  /// the store cannot reach the root at all — completeness is the
  /// planner's contract, not every store's.
  Status CheckPerfectReconstruction(const ElementStore& store,
                                    const Tensor& cube);

  /// Runs every store-level check above (bounds, round trip, split,
  /// consistency, reconstruction) and returns the first violation.
  Status CheckAll(const ElementStore& store, const Tensor& cube);

  [[nodiscard]] const InvariantReport& report() const { return report_; }
  void ResetReport() { report_ = {}; }
  [[nodiscard]] const CubeShape& shape() const { return shape_; }

 private:
  /// Records a violation and returns it as Status::Internal.
  Status Violation(std::string message);
  /// Bumps checks_run; returns the argument unchanged.
  Status Finish(Status status);

  CubeShape shape_;
  InvariantOptions options_;
  InvariantReport report_;
};

}  // namespace vecube

#endif  // VECUBE_VERIFY_INVARIANTS_H_
