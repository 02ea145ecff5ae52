// OlapSession: the one-stop public API.
//
// Wraps the full pipeline — cube construction, workload-driven view
// element selection (Algorithms 1 and 2), materialization, dynamic
// assembly, and range aggregation — behind a single object with sane
// defaults, for applications that do not need to compose the lower-level
// pieces themselves.
//
//   auto session = OlapSession::FromRelation(relation, shape);
//   session->DeclareWorkload(population);   // or just start querying
//   session->Optimize();                    // select + materialize
//   auto view = session->ViewByMask(0b101);
//   auto sum  = session->RangeSum(range);
//
// Thread safety (DESIGN.md §12): an OlapSession is a single-caller
// object — queries, updates, Optimize(), and Checkpoint() must not run
// concurrently. The planner memo tables and SessionStats are
// deliberately unsynchronized: planning is serial by contract, and
// concurrent serving is built by sharing the internally synchronized
// components (ViewCache, BufferedAccessLog, WriteAheadLog, EpochDomain)
// across one AssemblyEngine per worker, not by hammering
// one session from many threads. Of the accessors, serve_metrics(),
// buffered_accesses(), and last_lsn() are safe to call from a monitoring
// thread while the owner is querying; stats(), access_tracker(), store()
// and cube() are not (they return references into unsynchronized state).

#ifndef VECUBE_API_SESSION_H_
#define VECUBE_API_SESSION_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/assembly.h"
#include "core/io.h"
#include "core/repair.h"
#include "core/store.h"
#include "core/tracker.h"
#include "core/wal.h"
#include "cube/cube_builder.h"
#include "cube/relation.h"
#include "cube/shape.h"
#include "cube/tensor.h"
#include "range/range_engine.h"
#include "serve/serving.h"
#include "serve/view_cache.h"
#include "util/query_context.h"
#include "util/result.h"
#include "util/thread_pool.h"
#include "verify/invariants.h"
#include "workload/population.h"

namespace vecube {

/// Cumulative session accounting.
struct SessionStats {
  uint64_t queries = 0;
  uint64_t assembly_ops = 0;       ///< add/sub operations across queries
  uint64_t range_queries = 0;
  uint64_t range_cell_reads = 0;
  uint64_t optimizations = 0;      ///< times Optimize() rebuilt the store
  uint64_t wal_appends = 0;        ///< facts made durable before applying
  uint64_t wal_replayed = 0;       ///< records re-applied by OpenDurable()
  uint64_t checkpoints = 0;        ///< successful Checkpoint() calls
};

/// Durability configuration. Off by default: a session without durability
/// behaves exactly as before (no WAL, no snapshot files, no extra I/O).
struct DurabilityOptions {
  /// Master switch. When on, `directory` must name an existing directory;
  /// the session keeps its snapshot, base-cube, and WAL files there.
  bool enabled = false;
  std::string directory;
  /// fsync the WAL on every AddFact (full write-ahead durability). Off
  /// trades the fsync for throughput: a crash may lose the OS-buffered
  /// tail, but never corrupts what was flushed.
  bool sync_each_append = true;
  /// Auto-Checkpoint() after this many WAL records (0 = manual only).
  uint64_t checkpoint_every = 0;
};

/// Session construction options.
struct OlapSessionOptions {
  /// Extra storage (cells) the optimizer may spend on redundant
  /// elements beyond the non-expansive basis; 0 = non-expansive only.
  uint64_t redundancy_budget_cells = 0;
  /// Record queries so Optimize() can run against observed traffic when
  /// no workload was declared.
  bool track_accesses = true;
  /// Exponential decay of the access history.
  double access_decay = 0.98;
  /// Maintain a parallel COUNT cube/store so AvgByMask() is available.
  bool maintain_count_cube = false;
  /// Crash durability: WAL-before-apply on AddFact, checkpoint snapshots,
  /// OpenDurable() recovery. See DurabilityOptions.
  DurabilityOptions durability = {};
  /// Serving cache (src/serve): memoizes assembled SUM-side element
  /// tensors across Element()/ViewByMask()/RangeSum() with
  /// benefit-weighted eviction. Off unless view_cache.enabled. Cached
  /// answers are bit-exact with uncached ones (assembly is
  /// deterministic). AddFact() patches every cached tensor's one
  /// affected cell instead of flushing: bit-exact for integer-valued
  /// facts below 2^53, within the error bound of DESIGN.md §10
  /// otherwise. Optimize()/Repair() flush wholesale (the materialized
  /// set changes). The COUNT side (AvgByMask) is never cached — its
  /// elements share ids with SUM ones.
  ViewCacheOptions view_cache = {};
  /// Execution lanes for assembly (large aggregate descents split into
  /// one dyadic shard per lane, DESIGN.md §14; synthesis kernels chunk
  /// their row loops; batch assembly fans out across targets). 0 =
  /// hardware concurrency; 1 = fully serial, bit- and count-identical to
  /// the single-threaded engine (any thread count is, but 1 spawns no
  /// workers at all).
  uint32_t num_threads = 0;
  /// Run the InvariantChecker (src/verify) after each engine operation:
  /// (k,o) bounds, Haar round trip, non-expansive splits, op-count ==
  /// plan-cost, and store consistency after incremental maintenance. A
  /// violation surfaces as Status/Result Internal from the operation that
  /// exposed it. Defaults to ON when the tree is built with the
  /// VECUBE_VERIFY CMake option, OFF otherwise.
#ifdef VECUBE_VERIFY
  bool verify_invariants = true;
#else
  bool verify_invariants = false;
#endif
  /// Budgets for the checker when enabled.
  InvariantOptions verify_options = {};
};

class OlapSession {
 public:
  using Options = OlapSessionOptions;

  /// Drains the buffered access log so no observed-traffic history is
  /// lost (Checkpoint() and Optimize() also drain).
  ~OlapSession();

  /// Starts a session over an existing cube tensor (copied in).
  static Result<std::unique_ptr<OlapSession>> FromCube(const CubeShape& shape,
                                                       Tensor cube,
                                                       Options options = {});

  /// Builds the SUM cube from a relation first (see CubeBuilder).
  static Result<std::unique_ptr<OlapSession>> FromRelation(
      const Relation& relation, const CubeShape& shape,
      const CubeBuildOptions& build_options = {}, Options options = {});

  /// Reopens a durable session from options.durability.directory: loads
  /// the checkpoint snapshots, replays the committed WAL suffix onto each
  /// component (idempotently — each snapshot records the lsn it folded
  /// in, so a crash between checkpoint renames double-applies nothing),
  /// and truncates any torn WAL tail. Elements whose snapshot payload
  /// failed its checksum come back *quarantined*: the session keeps
  /// serving everything assemblable without them, and Repair() re-derives
  /// them. Fails only when the damage is global (unreadable directory or
  /// snapshot structure, base cube unrecoverable, WAL/lsn sequence gap).
  static Result<std::unique_ptr<OlapSession>> OpenDurable(Options options);

  /// Folds the current state into fresh snapshot files (written atomically
  /// via temp + rename) and truncates the WAL. Requires durability.
  Status Checkpoint();

  /// Re-derives quarantined elements (SUM and COUNT sides) from healthy
  /// ones via dynamic assembly; see RepairStore. The base cube is
  /// authoritative for a quarantined root element. Requires nothing —
  /// callable on any session; a clean store yields an empty report.
  Result<RepairReport> Repair();

  /// Declares the expected query distribution; used by Optimize().
  Status DeclareWorkload(QueryPopulation population);

  /// Selects the minimum-cost element set for the declared (or observed)
  /// workload — Algorithm 1, plus Algorithm 2 up to the redundancy budget
  /// — and materializes it. Without any workload information this is an
  /// error; the session serves queries from the raw cube until then.
  Status Optimize();

  /// Appends one fact: cube[coords] += amount, with every materialized
  /// element (and the COUNT side, if enabled) updated incrementally in
  /// O(#elements * d) — no rematerialization.
  Status AddFact(const std::vector<uint32_t>& coords, double amount);

  /// Aggregated view by dimension mask (bit m set = dim m aggregated).
  /// `ctx` (here and below) bounds the query: an expired or cancelled
  /// context unwinds assembly and every wait with kDeadlineExceeded /
  /// kCancelled; the default context is unbounded.
  Result<Tensor> ViewByMask(uint32_t aggregated_mask,
                            const QueryContext& ctx = QueryContext());

  /// AVG view: SUM / COUNT cell-wise (cells with zero count yield 0).
  /// Requires Options::maintain_count_cube. Both sides serve through an
  /// ElementServer (the SUM side through the session's, cached when the
  /// view cache is on; the COUNT side uncached), so the context's
  /// deadline and op budget gate each, and degradation is stripped as in
  /// Element().
  Result<Tensor> AvgByMask(uint32_t aggregated_mask,
                           const QueryContext& ctx = QueryContext());

  /// Any view element by id — always exact (degradation, if requested on
  /// `ctx`, is stripped: this signature has no channel for a bound).
  /// InvalidArgument when `id` does not fit the session's shape.
  Result<Tensor> Element(const ElementId& id,
                         const QueryContext& ctx = QueryContext());

  /// Degradation-aware element query: like Element(), but when `ctx`
  /// opted in via set_allow_degraded and the budget falls short, returns
  /// an approximate answer whose `l2_bound` soundly bounds its L2 error.
  /// Degraded answers are never cached. InvalidArgument when `id` does
  /// not fit the session's shape.
  Result<QueryAnswer> Query(const ElementId& id,
                            const QueryContext& ctx = QueryContext());

  /// Range-aggregation (Section 6); missing intermediate elements are
  /// served through the session's ElementServer (cached when the view
  /// cache is on). Always exact, like Element().
  Result<double> RangeSum(const RangeSpec& range,
                          const QueryContext& ctx = QueryContext());

  [[nodiscard]] const CubeShape& shape() const { return shape_; }
  [[nodiscard]] const ElementStore& store() const { return store_; }
  [[nodiscard]] const SessionStats& stats() const { return stats_; }
  [[nodiscard]] const Tensor& cube() const { return cube_; }
  /// True when durability is active (a WAL is open).
  [[nodiscard]] bool durable() const { return wal_ != nullptr; }
  /// Lsn of the last durable fact; 0 before any. Requires durable().
  [[nodiscard]] uint64_t last_lsn() const {
    return wal_ != nullptr ? wal_->last_lsn() : 0;
  }
  /// Violation accounting when Options::verify_invariants is on; null
  /// otherwise.
  [[nodiscard]] const InvariantChecker* invariant_checker() const { return checker_.get(); }
  /// True when the serving cache is active.
  [[nodiscard]] bool caching() const { return cache_ != nullptr; }
  /// Applies every buffered access record to the tracker immediately.
  /// Called automatically by Optimize(), Checkpoint(), and the
  /// destructor; exposed so tools/tests can observe up-to-date history.
  void DrainAccessHistory() { access_log_.Drain(); }
  /// Access records buffered but not yet applied to the tracker.
  [[nodiscard]] size_t buffered_accesses() const {
    return access_log_.buffered();
  }
  /// The observed-traffic tracker. Lags by up to buffered_accesses()
  /// records until DrainAccessHistory() (or Optimize/Checkpoint) runs.
  [[nodiscard]] const AccessTracker& access_tracker() const {
    return tracker_;
  }
  /// Serving-cache counters; a zeroed struct when the cache is disabled.
  [[nodiscard]] ServeMetrics serve_metrics() const {
    return cache_ != nullptr ? cache_->Metrics() : ServeMetrics{};
  }

 private:
  OlapSession(CubeShape shape, Tensor cube, Options options);

  /// Opens (or creates) the WAL and writes the initial checkpoint; called
  /// by the fresh-start constructors when durability is requested.
  Status InitDurability();
  /// Saves `cube` as a single-root-element v2 snapshot at `path`.
  Status SaveCubeSnapshot(const std::string& path, const Tensor& cube,
                          uint64_t wal_seq) const;

  void RebuildEngines();
  /// Full invariant sweep (bounds, round trip, splits, consistency,
  /// reconstruction) over the SUM store — and the COUNT store when
  /// maintained. No-op returning OK when verification is off.
  Status VerifyFullState();
  /// Light per-update sweep: bounds + sampled store/cube consistency.
  Status VerifyAfterUpdate();
  /// Measured-vs-planned op check for one target `engine` assembled.
  Status VerifyOpCount(AssemblyEngine* engine, const ElementId& target,
                       uint64_t measured_ops);

  CubeShape shape_;
  Tensor cube_;
  Options options_;
  std::unique_ptr<ThreadPool> pool_;  // null when running serial
  ElementStore store_;
  std::optional<Tensor> count_cube_;
  std::optional<ElementStore> count_store_;
  std::unique_ptr<AssemblyEngine> engine_;
  std::unique_ptr<AssemblyEngine> count_engine_;
  std::unique_ptr<ViewCache> cache_;  // null unless view_cache.enabled
  /// Serving front end for Element()/Query() and range_engine_'s missing
  /// intermediates; rebuilt with the engines.
  std::unique_ptr<ElementServer> server_;
  /// AvgByMask's COUNT side: cacheless (COUNT elements share ids with
  /// SUM ones); null unless maintain_count_cube.
  std::unique_ptr<ElementServer> count_server_;
  std::unique_ptr<RangeEngine> range_engine_;  // borrows server_
  AccessTracker tracker_;
  /// Write-behind buffer in front of tracker_ keeping Record() off the
  /// serving hit path; declared after tracker_ so it drains cleanly
  /// first during destruction.
  BufferedAccessLog access_log_{&tracker_};
  std::optional<QueryPopulation> declared_workload_;
  std::unique_ptr<WriteAheadLog> wal_;  // null unless durability enabled
  SessionStats stats_;
  std::unique_ptr<InvariantChecker> checker_;  // null when verification off
};

}  // namespace vecube

#endif  // VECUBE_API_SESSION_H_
