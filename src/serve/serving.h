// ElementServer: the bounded-latency query front end (DESIGN.md §13),
// and the one serving path. OlapSession::Element/ViewByMask/Query,
// RangeEngine's missing intermediates and DynamicAssembler::Query all
// serve through it; it is the only caller of the ViewCache single-flight
// protocol (LookupOrBegin / WaitFill / CompleteFill / AbortFill).
//
// One ElementServer per serving worker, all sharing one ViewCache (and
// its single-flight miss coalescing) with one AssemblyEngine each. It
// layers the robustness contract over element queries:
//
//   * deadline propagation — the QueryContext is threaded through the
//     cache waits, the planner, and the fused cascade loops, so an
//     expired or cancelled query unwinds instead of running to
//     completion;
//   * budget gating — before assembling, the Procedure-3 plan cost is
//     compared against the query's op budget (explicit, or derived from
//     the remaining wall time at a fixed 256K ops/ms); plans that
//     cannot finish in time are not started;
//   * graceful degradation — when the budget falls short and the query
//     opted in (QueryContext::set_allow_degraded), the answer comes from
//     ApproxAssembler: an approximate tensor plus a sound L2 error
//     bound. Degraded answers are NEVER cached (the fill is aborted
//     first) and never served to other queries;
//   * bounded follower retries — when a fill leader aborts for a
//     leader-local reason (its own deadline/cancellation, or an
//     unspecified abort), followers retry up to 3 times with a 1 ms
//     backoff; an element-local failure (Incomplete, injected fill
//     error) propagates immediately. Either way repeated leader
//     failures surface an error instead of a retry livelock.
//
// Every query resolves to exactly one of: an exact answer, a degraded
// answer (with its bound), or a non-OK Status — and every wait on the
// way is a bounded timed slice. The one fill failpoint is "serve.fill".
//
// An exact answer served from the cache is not copied: an unpatched hit,
// a follower's wait and a leader's fill answer with the cached tensor
// itself, shared (AnswerTensor). Cached tensors are never written after
// they are published, so such an answer is the snapshot taken at
// lookup and stays valid after later writes, flushes and evictions.

#ifndef VECUBE_SERVE_SERVING_H_
#define VECUBE_SERVE_SERVING_H_

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
  /// Synthesis halvings spent alongside (OpCounter::muls; outside the
  /// cost model).
  uint64_t muls = 0;
};

/// Run on a leader's assembled tensor before it is published (OlapSession
/// wires its op-count invariant check here). A non-OK return aborts the
/// fill with that status.
using FillVerifier =
    std::function<Status(const ElementId&, uint64_t measured_ops)>;

/// Per-worker facade. Not thread-safe itself (one per worker by
/// construction); all cross-worker state lives in the shared ViewCache.
class ElementServer {
 public:
  /// Borrows everything; the caller keeps the engine, store, and cache
  /// alive. `cache` may be null: queries are then served directly (no
  /// coalescing, no robustness counters) but still budget-gated.
  ElementServer(AssemblyEngine* engine, const ElementStore* store,
                ViewCache* cache, FillVerifier verify_fill = nullptr);

  /// Serves one element query under `ctx`. See the file comment for the
  /// outcome contract.
  Result<QueryAnswer> Serve(const ElementId& id,
                            const QueryContext& ctx = QueryContext());

  /// Serve() without taking the value of a cache hit: a hit comes back as
  /// the pinned handle in `*hit` (the returned answer empty), for callers
  /// that read a cell or two in place (RangeEngine). Every other outcome
  /// is Serve()'s, with `*hit` left empty.
  Result<QueryAnswer> Resolve(const ElementId& id, const QueryContext& ctx,
                              ViewCache::ReadHandle* hit);

  /// Serve()'s entry check, for callers that poll `ctx` between calls:
  /// ctx.Check(), with an expiry or cancellation counted in the cache's
  /// `deadline_exceeded` exactly as Serve() counts it.
  Status Check(const QueryContext& ctx);

  /// The op budget `ctx` implies (explicit override, else remaining
  /// time × 256K ops/ms, else effectively unlimited).
  [[nodiscard]] uint64_t OpsBudget(const QueryContext& ctx) const;

  /// True when answers go through a ViewCache.
  [[nodiscard]] bool caching() const { return cache_ != nullptr; }

  /// Drops the degradation helper's precomputed norms; call after the
  /// store's data changes (it rebuilds lazily on the next degraded
  /// query).
  void InvalidateApprox() { approx_.reset(); }

 private:
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
  FillVerifier verify_fill_;
  std::unique_ptr<ApproxAssembler> approx_;  // built on first degraded use
};

}  // namespace vecube

#endif  // VECUBE_SERVE_SERVING_H_
