#include "select/dynamic.h"

#include "core/basis.h"
#include "select/algorithm1.h"
#include "select/algorithm2.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "workload/population.h"

namespace vecube {

Result<std::unique_ptr<DynamicAssembler>> DynamicAssembler::Make(
    const CubeShape& shape, const Tensor& cube, DynamicOptions options) {
  if (cube.extents() != shape.extents()) {
    return Status::InvalidArgument("cube extents do not match shape");
  }
  std::unique_ptr<DynamicAssembler> assembler(
      new DynamicAssembler(shape, options));
  VECUBE_RETURN_NOT_OK(
      assembler->store_.Put(ElementId::Root(shape.ndim()), cube));
  if (options.cache.enabled) {
    assembler->cache_ = std::make_unique<ViewCache>(options.cache);
  }
  assembler->RebuildEngine();
  return assembler;
}

DynamicAssembler::~DynamicAssembler() {
  // Buffered observations must reach the tracker before anything still
  // holding a reference reads the final history.
  access_log_.Drain();
}

void DynamicAssembler::RebuildEngine() {
  engine_ = std::make_unique<AssemblyEngine>(&store_);
  server_ = std::make_unique<ElementServer>(engine_.get(), &store_,
                                            cache_.get());
}

Result<Tensor> DynamicAssembler::Query(const ElementId& view, OpCounter* ops,
                                       const QueryContext& ctx) {
  VECUBE_RETURN_NOT_OK(view.Validate(shape_));
  QueryContext exact = ctx;
  exact.set_allow_degraded(false);
  QueryAnswer answer;
  VECUBE_ASSIGN_OR_RETURN(answer, server_->Serve(view, exact));
  if (ops != nullptr) {
    ops->adds += answer.ops;
    ops->muls += answer.muls;
  }
  access_log_.Record(view);
  ++queries_served_;
  // The query was answered; a failed adaptation is a background-health
  // event, not a query error. Record it and return the answer anyway.
  if (Status reconfig = MaybeReconfigure(); !reconfig.ok()) {
    last_reconfig_error_ = std::move(reconfig);
    ++reconfig_failures_;
  }
  // One copy per hit (a shared answer), none per uncached fill.
  return std::move(answer.data).Take();
}

Status DynamicAssembler::MaybeReconfigure() {
  if (queries_served_ - queries_at_last_reconfig_ <
      options_.min_queries_between_reconfigs) {
    return Status::OK();
  }
  // Drift must be evaluated against the complete observed history,
  // including records still in the write-behind buffer.
  access_log_.Drain();
  if (tracker_.L1Drift(baseline_distribution_) < options_.drift_threshold) {
    return Status::OK();
  }
  return Reconfigure();
}

Status DynamicAssembler::Reconfigure() {
  if (Failpoints::Hit("dynamic.reconfigure").has_value()) {
    return Status::Internal(
        "injected reconfiguration failure (failpoint dynamic.reconfigure)");
  }
  access_log_.Drain();
  const auto distribution = tracker_.Distribution();
  if (distribution.empty()) {
    return Status::FailedPrecondition("no accesses observed yet");
  }
  QueryPopulation population;
  VECUBE_ASSIGN_OR_RETURN(population,
                          FixedPopulation(distribution, shape_));

  BasisSelection selection;
  VECUBE_ASSIGN_OR_RETURN(selection, SelectMinCostBasis(shape_, population));
  std::vector<ElementId> target_set = selection.basis;

  if (options_.storage_budget_cells > StorageVolume(target_set, shape_)) {
    GreedyOptions greedy;
    greedy.storage_target_cells = options_.storage_budget_cells;
    // Online reconfiguration must be cheap: restrict the redundancy pass
    // to the 2^d aggregated views (the objects queries actually name)
    // rather than scanning the whole element graph per greedy stage.
    greedy.pool = CandidatePool::kAggregatedViews;
    std::vector<GreedyStep> frontier;
    VECUBE_ASSIGN_OR_RETURN(
        frontier, GreedySelect(shape_, population, target_set, greedy));
    // An empty frontier (budget already satisfied, or no admissible
    // candidates at all) means the greedy pass selected nothing beyond
    // the basis; frontier.back() would be undefined behavior. The
    // Algorithm-1 basis stays the target set in that case.
    if (!frontier.empty()) {
      target_set = frontier.back().selected;
    }
  }

  // Migrate: assemble every element of the new set from the current store
  // (complete by construction), then swap.
  ElementStore next(shape_);
  for (const ElementId& id : target_set) {
    Tensor data;
    VECUBE_ASSIGN_OR_RETURN(data, engine_->Assemble(id));
    VECUBE_RETURN_NOT_OK(next.Put(id, std::move(data)));
  }
  store_ = std::move(next);
  RebuildEngine();
  // The materialized set changed wholesale: every cached entry's rebuild
  // cost (its eviction score) is stale, so flush rather than patch.
  if (cache_ != nullptr) cache_->InvalidateAll();
  baseline_distribution_ = distribution;
  queries_at_last_reconfig_ = queries_served_;
  ++reconfigurations_;
  last_reconfig_error_ = Status::OK();
  return Status::OK();
}

}  // namespace vecube
