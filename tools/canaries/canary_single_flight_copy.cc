// Checker canary: a second copy of the ViewCache leader/follower loop
// outside ElementServer — it would miss the op-budget gate, verify_fill,
// the bounded follower backoff and the deadline accounting. NOT compiled
// — consumed by tools/vecube_check.py --canaries.
//
// vecube-check-as: src/range/range_engine.cc
// vecube-check-expect: single-flight-in-server

#include "range/range_engine.h"

namespace vecube {

Result<double> RangeEngine::RangeSum(const RangeSpec& range,
                                     RangeQueryStats* stats,
                                     const QueryContext& ctx) {
  ElementId id = ElementId::Root(range.ndim());
  for (;;) {
    ViewCache::LookupOutcome outcome = cache_->LookupOrBegin(id);  // BUG
    if (outcome.hit) return outcome.hit.At(range.start);
    if (!outcome.fill.leader()) {
      ViewCache::FillWait wait = cache_->WaitFill(outcome.fill, ctx);  // BUG
      if (wait.status.ok()) return wait.data->At(range.start);
      continue;
    }
    OpCounter ops;
    Result<Tensor> data = engine_.Assemble(id, &ops, &ctx);
    if (!data.ok()) {
      cache_->AbortFill(std::move(outcome.fill), data.status());  // BUG
      return data.status();
    }
    return cache_->CompleteFill(std::move(outcome.fill),  // BUG
                                std::move(data).value(), ops.adds)
        ->At(range.start);
  }
}

}  // namespace vecube
