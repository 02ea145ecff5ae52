// The step vocabulary of cascades of the first partial aggregation pair
// (Sections 3.1-3.2).
//
// Distributivity (Property 2) lets the k-th partial aggregation be computed
// by applying P1 recursively (the "telescopic" Eq. 8); separability
// (Property 4) lets cascades along different dimensions commute (Eq. 14).
// Total aggregation S^m is the log2(n_m)-fold cascade of P1^m (Eq. 15),
// and the grand total S(A) cascades over every dimension (Eq. 16).
//
// A cascade is a list of CascadeSteps. CascadeAnalysis / CascadeSum
// (haar/fused.h) run one standalone; AssemblyEngine runs its descents
// through ShardPlan (core/shard_plan.h); both execute the same fused
// serial kernel. The step-at-a-time reference is PartialSum /
// PartialResidual (haar/transform.h).

#ifndef VECUBE_HAAR_CASCADE_H_
#define VECUBE_HAAR_CASCADE_H_

#include <cstdint>

namespace vecube {

/// One analysis step of a cascade: which operator along which dimension.
enum class StepKind : uint8_t {
  kPartial,   ///< P1^dim
  kResidual,  ///< R1^dim
};

struct CascadeStep {
  uint32_t dim;
  StepKind kind;

  bool operator==(const CascadeStep&) const = default;
};

}  // namespace vecube

#endif  // VECUBE_HAAR_CASCADE_H_
