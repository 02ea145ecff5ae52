#include "core/approximate.h"

#include <cmath>
#include <limits>
#include <utility>

#include "core/freq_rect.h"
#include "haar/transform.h"

namespace vecube {

Result<ElementStore> ThresholdResiduals(const ElementStore& store,
                                        double threshold,
                                        ThresholdSummary* summary) {
  if (threshold < 0.0) {
    return Status::InvalidArgument("threshold must be non-negative");
  }
  ElementStore out(store.shape());
  ThresholdSummary local;
  for (const ElementId& id : store.Ids()) {
    const Tensor* data;
    VECUBE_ASSIGN_OR_RETURN(data, store.Get(id));
    Tensor copy = *data;
    if (id.IsResidual()) {
      for (uint64_t i = 0; i < copy.size(); ++i) {
        if (copy[i] != 0.0 && std::fabs(copy[i]) <= threshold) {
          copy[i] = 0.0;
          ++local.zeroed;
        }
      }
    }
    for (uint64_t i = 0; i < copy.size(); ++i) {
      if (copy[i] != 0.0) ++local.retained_nonzero;
    }
    local.total_cells += copy.size();
    VECUBE_RETURN_NOT_OK(out.Put(id, std::move(copy)));
  }
  if (summary != nullptr) *summary = local;
  return out;
}

Result<ApproxError> CompareTensors(const Tensor& exact,
                                   const Tensor& approximate) {
  if (exact.extents() != approximate.extents()) {
    return Status::InvalidArgument("tensor extents differ");
  }
  ApproxError error;
  double sum_sq = 0.0;
  double sum_abs_err = 0.0;
  double sum_abs_exact = 0.0;
  for (uint64_t i = 0; i < exact.size(); ++i) {
    const double err = std::fabs(exact[i] - approximate[i]);
    error.max_abs = std::max(error.max_abs, err);
    sum_sq += err * err;
    sum_abs_err += err;
    sum_abs_exact += std::fabs(exact[i]);
  }
  error.rms = std::sqrt(sum_sq / static_cast<double>(exact.size()));
  error.relative_l1 =
      sum_abs_exact > 0.0 ? sum_abs_err / sum_abs_exact : 0.0;
  return error;
}

namespace {

constexpr double kInfNorm = std::numeric_limits<double>::infinity();

double TensorL2(const Tensor& t) {
  double sum_sq = 0.0;
  for (uint64_t i = 0; i < t.size(); ++i) sum_sq += t[i] * t[i];
  return std::sqrt(sum_sq);
}

}  // namespace

ApproxAssembler::ApproxAssembler(AssemblyEngine* engine,
                                 const ElementStore* store)
    : engine_(engine), store_(store) {
  Refresh();
}

void ApproxAssembler::Refresh() {
  stored_norms_.clear();
  for (const ElementId& id : store_->Ids()) {
    Result<const Tensor*> data = store_->Get(id);
    if (data.ok()) stored_norms_.emplace(id, TensorL2(**data));
  }
}

double ApproxAssembler::NormBound(const ElementId& id) const {
  double best = kInfNorm;
  for (const auto& [stored, norm] : stored_norms_) {
    if (!IsAncestorOf(stored, id)) continue;
    const uint32_t depth = id.TotalLevel() - stored.TotalLevel();
    // ||child||₂ ≤ √2·||parent||₂ per P1/R1 step, composed `depth` times.
    best = std::min(best, std::exp2(0.5 * static_cast<double>(depth)) * norm);
  }
  return best;
}

Result<DegradedAnswer> ApproxAssembler::AssembleWithin(
    const ElementId& target, uint64_t op_budget, const QueryContext* ctx) {
  if (engine_->PlanCost(target) == kInfiniteCost) {
    return Status::Incomplete("stored element set cannot reconstruct " +
                              target.ToString());
  }
  return Recurse(target, op_budget, ctx);
}

Result<DegradedAnswer> ApproxAssembler::Recurse(const ElementId& target,
                                                uint64_t budget,
                                                const QueryContext* ctx) {
  if (ctx != nullptr) VECUBE_RETURN_NOT_OK(ctx->Check());
  const CubeShape& shape = store_->shape();

  // The plan fits: answer exactly. (PlanCost is memoized; kInfiniteCost
  // means only synthesis below can reach this node, handled underneath.)
  const uint64_t exact_cost = engine_->PlanCost(target);
  if (exact_cost != kInfiniteCost && exact_cost <= budget) {
    OpCounter ops;
    DegradedAnswer answer;
    VECUBE_ASSIGN_OR_RETURN(answer.data,
                            engine_->Assemble(target, &ops, ctx));
    answer.ops = ops.adds;
    return answer;
  }

  // Too expensive. Descend one synthesis level: spend the budget on the
  // partial child, zero the residual child if it cannot be afforded.
  const uint64_t volume = target.DataVolume(shape);
  uint32_t split_dim = 0;
  uint64_t split_cost = kInfiniteCost;
  bool can_split = false;
  for (uint32_t m = 0; m < target.ndim(); ++m) {
    if (!target.CanSplit(m, shape)) continue;
    ElementId p_id;
    VECUBE_ASSIGN_OR_RETURN(p_id,
                            target.Child(m, StepKind::kPartial, shape));
    const uint64_t p_cost = engine_->PlanCost(p_id);
    if (!can_split || p_cost < split_cost) {
      can_split = true;
      split_dim = m;
      split_cost = p_cost;
    }
  }

  if (!can_split || budget < volume) {
    // A leaf of the lattice, or not even the synthesis pass is payable:
    // the whole element's mass is skipped. Bound it from a stored
    // ancestor; with none, no bounded answer exists at this budget.
    const double bound = NormBound(target);
    if (bound == kInfNorm) {
      return Status::DeadlineExceeded(
          "op budget cannot cover a bounded answer for " +
          target.ToString());
    }
    DegradedAnswer answer;
    VECUBE_ASSIGN_OR_RETURN(answer.data,
                            Tensor::Zeros(target.DataExtents(shape)));
    answer.l2_bound = bound;
    answer.degraded = true;
    return answer;
  }

  ElementId p_id, r_id;
  VECUBE_ASSIGN_OR_RETURN(
      p_id, target.Child(split_dim, StepKind::kPartial, shape));
  VECUBE_ASSIGN_OR_RETURN(
      r_id, target.Child(split_dim, StepKind::kResidual, shape));

  DegradedAnswer partial;
  VECUBE_ASSIGN_OR_RETURN(partial, Recurse(p_id, budget - volume, ctx));

  // Whatever the partial child left over goes to the residual child.
  const uint64_t r_budget =
      budget - volume - std::min(budget - volume, partial.ops);
  const uint64_t r_cost = engine_->PlanCost(r_id);
  DegradedAnswer residual;
  if (r_cost != kInfiniteCost && r_cost <= r_budget) {
    OpCounter ops;
    VECUBE_ASSIGN_OR_RETURN(residual.data,
                            engine_->Assemble(r_id, &ops, ctx));
    residual.ops = ops.adds;
  } else {
    const double bound = NormBound(r_id);
    if (bound != kInfNorm) {
      VECUBE_ASSIGN_OR_RETURN(residual.data,
                              Tensor::Zeros(r_id.DataExtents(shape)));
      residual.l2_bound = bound;
      residual.degraded = true;
    } else {
      // No stored ancestor bounds the residual mass; recurse so its own
      // partial children (which always plan from somewhere — the target
      // is reconstructible) produce a bounded approximation.
      VECUBE_ASSIGN_OR_RETURN(residual, Recurse(r_id, r_budget, ctx));
    }
  }

  OpCounter synth_ops;
  DegradedAnswer answer;
  VECUBE_ASSIGN_OR_RETURN(
      answer.data, SynthesizePair(partial.data, residual.data, split_dim,
                                  &synth_ops, nullptr));
  // Synthesis is linear: errors combine as (a±e)/2 pairs, so
  // ||E||₂² = (||E_p||₂² + ||E_r||₂²) / 2.
  answer.l2_bound = std::sqrt(
      (partial.l2_bound * partial.l2_bound +
       residual.l2_bound * residual.l2_bound) / 2.0);
  answer.ops = partial.ops + residual.ops + synth_ops.adds;
  answer.degraded = partial.degraded || residual.degraded;
  return answer;
}

}  // namespace vecube
