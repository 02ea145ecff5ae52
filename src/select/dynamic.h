// DynamicAssembler: the paper's titular loop — dynamic assembly of views
// with online adaptation of the materialized view element set.
//
// Section 5: "the frequencies of access can be observed on-line, allowing
// the system to dynamically reconfigure." The assembler serves queries
// from the current element store, tracks the observed access
// distribution, and when it drifts far enough from the distribution the
// current basis was selected for, re-runs Algorithm 1 (and optionally the
// greedy Algorithm 2 under a storage budget) and migrates: every element
// of the new set is *assembled from the current store* — never recomputed
// from base data — exploiting the two-way dependencies of the view
// element graph.

#ifndef VECUBE_SELECT_DYNAMIC_H_
#define VECUBE_SELECT_DYNAMIC_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/assembly.h"
#include "core/element_id.h"
#include "core/store.h"
#include "core/tracker.h"
#include "cube/shape.h"
#include "cube/tensor.h"
#include "serve/serving.h"
#include "serve/view_cache.h"
#include "util/query_context.h"
#include "util/result.h"

namespace vecube {

struct DynamicOptions {
  /// Reconfigure when the observed distribution's L1 distance from the
  /// distribution the current basis was selected for exceeds this.
  double drift_threshold = 0.5;
  /// Never reconfigure more often than this many queries.
  uint64_t min_queries_between_reconfigs = 16;
  /// Exponential decay applied to access history (1.0 = plain counts).
  double access_decay = 0.98;
  /// If > 0, after Algorithm 1 run the greedy Algorithm 2 up to this
  /// storage budget (in cells) to add redundant elements.
  uint64_t storage_budget_cells = 0;
  /// Serving cache in front of the assembly loop (src/serve): memoizes
  /// assembled answers with benefit-weighted eviction. Off unless
  /// cache.enabled; flushed wholesale on every reconfiguration.
  ViewCacheOptions cache = {};
};

/// Serves aggregated-view queries over an adaptively chosen element basis.
class DynamicAssembler {
 public:
  /// Starts with the trivial basis {A} materialized from `cube`.
  static Result<std::unique_ptr<DynamicAssembler>> Make(
      const CubeShape& shape, const Tensor& cube, DynamicOptions options);

  /// Drains the buffered access log so no observed history is lost.
  ~DynamicAssembler();

  /// Answers a query for `view` through an ElementServer over the
  /// current store and the cache (serve/serving.h), records the access,
  /// and possibly reconfigures *after* answering. `ops` accrues the
  /// assembly operations the answer spent (nothing on a cache hit or a
  /// budget refusal). A failed reconfiguration never discards the
  /// already-assembled answer: it is recorded in last_reconfig_error() /
  /// reconfiguration_failures() and the answer is returned; only serving
  /// itself failing yields an error. `ctx` bounds the query with the
  /// server's contract (deadline, cancellation, op budget), always
  /// exact: degradation is stripped, as this signature has no channel
  /// for an error bound, so a budget shortfall fails with
  /// kDeadlineExceeded. InvalidArgument when `view` does not fit the
  /// cube's shape.
  Result<Tensor> Query(const ElementId& view, OpCounter* ops = nullptr,
                       const QueryContext& ctx = QueryContext());

  /// Forces reselection against the currently observed distribution.
  /// Instrumented with the "dynamic.reconfigure" failpoint so tests can
  /// inject deterministic failures.
  Status Reconfigure();

  [[nodiscard]] const ElementStore& store() const { return store_; }
  [[nodiscard]] uint64_t reconfiguration_count() const { return reconfigurations_; }
  [[nodiscard]] uint64_t queries_served() const { return queries_served_; }
  /// The observed-traffic tracker. Query() buffers its records; they are
  /// applied before every drift evaluation and by DrainAccessHistory(),
  /// so the tracker lags by at most the records of the current batch.
  [[nodiscard]] const AccessTracker& tracker() const { return tracker_; }
  /// Applies every buffered access record to the tracker immediately.
  void DrainAccessHistory() { access_log_.Drain(); }
  /// Access records buffered but not yet applied to the tracker.
  [[nodiscard]] size_t buffered_accesses() const {
    return access_log_.buffered();
  }
  /// Status of the most recent reconfiguration attempt triggered from
  /// Query(); OK when none has failed since the last success.
  [[nodiscard]] const Status& last_reconfig_error() const {
    return last_reconfig_error_;
  }
  /// Reconfiguration attempts (from Query()) that failed.
  [[nodiscard]] uint64_t reconfiguration_failures() const {
    return reconfig_failures_;
  }
  /// Null when DynamicOptions::cache.enabled was false.
  [[nodiscard]] const ViewCache* cache() const { return cache_.get(); }
  /// Serving counters; a zeroed struct when the cache is disabled.
  [[nodiscard]] ServeMetrics serve_metrics() const {
    return cache_ != nullptr ? cache_->Metrics() : ServeMetrics{};
  }

 private:
  DynamicAssembler(CubeShape shape, DynamicOptions options)
      : shape_(std::move(shape)),
        options_(options),
        store_(shape_),
        tracker_(options.access_decay) {}

  Status MaybeReconfigure();
  /// (Re)builds engine_ and server_ over the current store_ and cache_.
  void RebuildEngine();

  CubeShape shape_;
  DynamicOptions options_;
  ElementStore store_;
  std::unique_ptr<AssemblyEngine> engine_;
  std::unique_ptr<ViewCache> cache_;  // null unless options.cache.enabled
  /// Serves Query() over engine_ and cache_; rebuilt with engine_.
  std::unique_ptr<ElementServer> server_;
  AccessTracker tracker_;
  /// Write-behind buffer keeping tracker bookkeeping off the serving hit
  /// path; declared after tracker_ so destruction drains first.
  BufferedAccessLog access_log_{&tracker_};
  /// Distribution the current basis was selected against.
  std::vector<std::pair<ElementId, double>> baseline_distribution_;
  uint64_t queries_served_ = 0;
  uint64_t queries_at_last_reconfig_ = 0;
  uint64_t reconfigurations_ = 0;
  uint64_t reconfig_failures_ = 0;
  Status last_reconfig_error_ = Status::OK();
};

}  // namespace vecube

#endif  // VECUBE_SELECT_DYNAMIC_H_
