// ElementServer: the bounded-latency query front end (DESIGN.md §13).
//
// One ElementServer per serving worker, all sharing one ViewCache (and
// its single-flight miss coalescing) with one AssemblyEngine each. It
// layers the robustness contract over Element() queries:
//
//   * deadline propagation — the QueryContext is threaded through the
//     cache waits, the planner, and the fused cascade loops, so an
//     expired or cancelled query unwinds instead of running to
//     completion;
//   * budget gating — before assembling, the Procedure-3 plan cost is
//     compared against the query's op budget (explicit, or derived from
//     the remaining wall time via `ops_per_ms`); plans that cannot
//     finish in time are not started;
//   * graceful degradation — when the budget falls short and the query
//     opted in, the answer comes from ApproxAssembler: an approximate
//     tensor plus a sound L2 error bound. Degraded answers are NEVER
//     cached (the fill is aborted first) and never served to other
//     queries;
//   * bounded follower retries — when a fill leader aborts for a
//     leader-local reason (its own deadline/cancellation, or an
//     unspecified abort), followers retry a bounded number of times
//     with a short backoff; an element-local failure (Incomplete,
//     injected fill error) propagates immediately. Either way repeated
//     leader failures surface an error instead of a retry livelock.
//
// Every query resolves to exactly one of: an exact answer, a degraded
// answer (with its bound), or a non-OK Status — and every wait on the
// way is a bounded timed slice.
//
// An exact answer served from the cache is not copied: an unpatched hit,
// a follower's wait and a leader's fill answer with the cached tensor
// itself, shared (AnswerTensor). Cached tensors are never written after
// they are published, so such an answer is the snapshot taken at
// lookup and stays valid after later writes, flushes and evictions.

#ifndef VECUBE_SERVE_SERVING_H_
#define VECUBE_SERVE_SERVING_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>

#include "core/approximate.h"
#include "core/assembly.h"
#include "core/element_id.h"
#include "core/store.h"
#include "cube/tensor.h"
#include "serve/view_cache.h"
#include "util/query_context.h"
#include "util/result.h"

namespace vecube {

/// A served answer. Exact unless `degraded`; a degraded answer always
/// carries its L2 error bound (||exact − data||₂ ≤ l2_bound). `data`
/// shares the cached tensor on an unpatched hit, a follower wait or a
/// leader fill, and owns its tensor otherwise (a patched hit, a cacheless
/// or degraded answer); std::move(answer.data).Take() yields a Tensor of
/// the caller's own either way.
struct QueryAnswer {
  AnswerTensor data;
  bool degraded = false;
  double l2_bound = 0.0;
  /// Assembly ops this query actually spent (0 for cache hits and
  /// coalesced waits).
  uint64_t ops = 0;
};

struct ServeQueryOptions {
  /// Server-wide degradation default; a query can also opt in per-call
  /// via QueryContext::set_allow_degraded.
  bool allow_degraded = false;
  /// Assembly throughput estimate used to convert remaining wall time
  /// into an op budget when the context carries no explicit one.
  uint64_t ops_per_ms = 256 * 1024;
  /// Follower retries after leader-local aborts before giving up.
  uint32_t max_follower_retries = 3;
  /// Pause between follower retries (clamped to the query's remaining
  /// deadline) so a rapidly re-aborting leader is not hammered.
  std::chrono::milliseconds follower_backoff{1};
  /// Optional hook run on a leader's assembled tensor before it is
  /// published (OlapSession wires its op-count invariant check here).
  /// A non-OK return aborts the fill with that status.
  std::function<Status(const ElementId&, uint64_t measured_ops)> verify_fill;
};

/// Per-worker facade. Not thread-safe itself (one per worker by
/// construction); all cross-worker state lives in the shared ViewCache.
class ElementServer {
 public:
  /// Borrows everything; the caller keeps the engine, store, and cache
  /// alive. `cache` may be null: queries are then served directly (no
  /// coalescing, no robustness counters) but still budget-gated.
  ElementServer(AssemblyEngine* engine, const ElementStore* store,
                ViewCache* cache, ServeQueryOptions options = {});

  /// Serves one element query under `ctx`. See the file comment for the
  /// outcome contract.
  Result<QueryAnswer> Serve(const ElementId& id,
                            const QueryContext& ctx = QueryContext());

  /// The op budget `ctx` implies (explicit override, else remaining
  /// time × ops_per_ms, else effectively unlimited).
  [[nodiscard]] uint64_t OpsBudget(const QueryContext& ctx) const;

  /// Drops the degradation helper's precomputed norms; call after the
  /// store's data changes (it rebuilds lazily on the next degraded
  /// query).
  void InvalidateApprox() { approx_.reset(); }

 private:
  [[nodiscard]] bool AllowDegraded(const QueryContext& ctx) const {
    return options_.allow_degraded || ctx.allow_degraded();
  }
  /// Records terminal deadline/cancellation failures and passes the
  /// status through.
  Status Fail(Status status);
  Result<QueryAnswer> FillAsLeader(const ElementId& id,
                                   ViewCache::FillTicket ticket,
                                   const QueryContext& ctx);
  Result<QueryAnswer> FillDirect(const ElementId& id,
                                 const QueryContext& ctx);
  Result<QueryAnswer> Degrade(const ElementId& id, uint64_t budget,
                              const QueryContext& ctx);
  void Backoff(const QueryContext& ctx) const;

  AssemblyEngine* engine_;
  const ElementStore* store_;
  ViewCache* cache_;  // null = direct serving
  ServeQueryOptions options_;
  std::unique_ptr<ApproxAssembler> approx_;  // built on first degraded use
};

}  // namespace vecube

#endif  // VECUBE_SERVE_SERVING_H_
