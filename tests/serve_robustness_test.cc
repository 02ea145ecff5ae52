// Robustness tests for the bounded-latency serving stack (DESIGN.md §13):
// deadline propagation through fills and follower waits, leader-abort
// cause propagation (no retry livelock), cancellation mid-assembly
// leaving the cache and scratch state consistent, admission-control load
// shedding under a TSan-friendly thread stress, and the graceful
// degradation contract (a degraded answer always carries a sound L2
// bound and is never cached). The fault cases run through every entry
// point that serves through ElementServer (OlapSession::Element, with
// online adaptation off and on, and OlapSession::RangeSum), which must
// fail alike.
// Suite names carry "Serve" into the CI TSan test filter;
// VECUBE_SOAK_ITERS (env) scales the stress rounds.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/session.h"
#include "core/assembly.h"
#include "core/element_id.h"
#include "core/store.h"
#include "cube/shape.h"
#include "cube/synthetic.h"
#include "cube/tensor.h"
#include "range/range.h"
#include "range/range_engine.h"
#include "serve/admission.h"
#include "serve/serving.h"
#include "serve/view_cache.h"
#include "util/failpoint.h"
#include "util/query_context.h"
#include "util/rng.h"

namespace vecube {
namespace {

uint64_t SoakIters() {
  if (const char* env = std::getenv("VECUBE_SOAK_ITERS")) {
    const uint64_t iters = std::strtoull(env, nullptr, 10);
    if (iters > 0) return iters;
  }
  return 1;
}

/// Disarms every failpoint on scope exit so a failing assertion cannot
/// leak an armed failpoint into later tests.
struct FailpointGuard {
  ~FailpointGuard() { Failpoints::DisarmAll(); }
};

/// A cube-only ElementStore over an 8x8 shape with deterministic data.
struct CubeFixture {
  CubeShape shape;
  ElementStore store;

  static CubeFixture Make(uint64_t seed = 7) {
    auto shape = CubeShape::Make({8, 8});
    EXPECT_TRUE(shape.ok());
    Rng rng(seed);
    auto cube = UniformIntegerCube(*shape, &rng, -9, 9);
    EXPECT_TRUE(cube.ok());
    CubeFixture fixture{*shape, ElementStore(*shape)};
    EXPECT_TRUE(
        fixture.store.Put(ElementId::Root(shape->ndim()), *cube).ok());
    return fixture;
  }

  [[nodiscard]] ElementId View(uint32_t mask) const {
    auto id = ElementId::AggregatedView(mask, shape);
    EXPECT_TRUE(id.ok());
    return *id;
  }
};

double L2Error(const Tensor& got, const Tensor& want) {
  EXPECT_EQ(got.size(), want.size());
  double err2 = 0.0;
  for (uint64_t i = 0; i < want.size(); ++i) {
    const double d = got[i] - want[i];
    err2 += d * d;
  }
  return std::sqrt(err2);
}

// ---------------------------------------------------------------------------
// Deadline propagation.

TEST(ServeDeadlineTest, ExpiredContextFailsBeforeAnyWork) {
  CubeFixture fixture = CubeFixture::Make();
  AssemblyEngine engine(&fixture.store);
  ElementServer server(&engine, &fixture.store, /*cache=*/nullptr);

  QueryContext ctx =
      QueryContext::WithDeadline(QueryContext::Clock::now() -
                                 std::chrono::milliseconds(1));
  auto answer = server.Serve(fixture.View(1), ctx);
  ASSERT_FALSE(answer.ok());
  EXPECT_TRUE(answer.status().IsDeadlineExceeded())
      << answer.status().ToString();
}

TEST(ServeDeadlineTest, CancellationUnwindsWithKCancelled) {
  CubeFixture fixture = CubeFixture::Make();
  AssemblyEngine engine(&fixture.store);
  ElementServer server(&engine, &fixture.store, /*cache=*/nullptr);

  QueryContext ctx = QueryContext::Cancellable();
  ctx.RequestCancel();
  auto answer = server.Serve(fixture.View(1), ctx);
  ASSERT_FALSE(answer.ok());
  EXPECT_TRUE(answer.status().IsCancelled()) << answer.status().ToString();
}

// ---------------------------------------------------------------------------
// Leader abort handling (the follower-livelock fix): an element-local
// failure propagates to followers immediately; leader-local aborts are
// retried a bounded number of times, never forever. This case drives the
// raw protocol; ServeFollowerTest below runs the follower cases through
// ElementServer::Serve and RangeEngine::RangeSum.

TEST(ServeChaosTest, FollowerReceivesLeaderAbortCause) {
  CubeFixture fixture = CubeFixture::Make();
  const ElementId id = fixture.View(1);
  ViewCache cache;

  auto leader = cache.LookupOrBegin(id);
  ASSERT_TRUE(leader.fill.leader());
  auto follower = cache.LookupOrBegin(id);
  ASSERT_TRUE(follower.fill.valid());
  ASSERT_FALSE(follower.fill.leader());

  cache.AbortFill(std::move(leader.fill),
                  Status::Internal("injected fill failure"));
  // The cause survives on the flight even though the abort happened
  // before the wait began — no ordering window.
  ViewCache::FillWait wait = cache.WaitFill(follower.fill);
  EXPECT_EQ(wait.data, nullptr);
  ASSERT_FALSE(wait.status.ok());
  EXPECT_FALSE(wait.status.IsUnavailable())
      << "element-local cause replaced by the generic abort status";
  EXPECT_NE(wait.status.ToString().find("injected fill failure"),
            std::string::npos)
      << wait.status.ToString();
}

// ---------------------------------------------------------------------------
// Cancellation mid-fill leaves the cache (and the session's scratch
// state) consistent: the aborted flight is cleaned up, and the very next
// query assembles bit-exactly.

TEST(ServeChaosTest, CancellationMidFillLeavesCacheConsistent) {
  FailpointGuard guard;
  auto shape = CubeShape::Make({8, 8});
  ASSERT_TRUE(shape.ok());
  Rng rng(23);
  auto cube = UniformIntegerCube(*shape, &rng, -9, 9);
  ASSERT_TRUE(cube.ok());
  OlapSessionOptions options;
  options.view_cache.enabled = true;
  auto session = OlapSession::FromCube(*shape, *cube, options);
  ASSERT_TRUE(session.ok());
  auto reference = OlapSession::FromCube(*shape, *cube);
  ASSERT_TRUE(reference.ok());

  // The leader stalls inside the fill; cancellation lands during the
  // stall, so the post-stall QueryContext poll unwinds the assembly.
  FailpointAction delay;
  delay.kind = FailpointAction::Kind::kDelay;
  delay.delay_ms = 300;
  Failpoints::Arm("serve.fill", delay);

  QueryContext ctx = QueryContext::Cancellable();
  std::thread canceller([&ctx] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    ctx.RequestCancel();
  });
  auto mid = (*session)->ViewByMask(1, ctx);
  canceller.join();
  ASSERT_FALSE(mid.ok());
  EXPECT_TRUE(mid.status().IsCancelled()) << mid.status().ToString();

  // Consistency after the unwind: same session, same view, fresh
  // unbounded context — bit-exact against an uncached session, and every
  // other view still serves (ScratchArena and cache state intact).
  for (uint32_t mask = 0; mask < 4; ++mask) {
    auto got = (*session)->ViewByMask(mask);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    auto want = (*reference)->ViewByMask(mask);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(got->data(), want->data()) << "mask " << mask;
  }
}

// ---------------------------------------------------------------------------
// Graceful degradation contract.

TEST(ServeDegradeTest, DegradedAnswerCarriesSoundBoundAndIsNeverCached) {
  auto shape = CubeShape::Make({8, 8});
  ASSERT_TRUE(shape.ok());
  Rng rng(31);
  auto cube = UniformIntegerCube(*shape, &rng, -9, 9);
  ASSERT_TRUE(cube.ok());
  OlapSessionOptions options;
  options.view_cache.enabled = true;
  auto session = OlapSession::FromCube(*shape, *cube, options);
  ASSERT_TRUE(session.ok());
  auto mask1 = ElementId::AggregatedView(1, *shape);
  ASSERT_TRUE(mask1.ok());

  // Budget far below the plan cost, degradation opted in: the answer is
  // approximate and its returned L2 bound must dominate the true error.
  QueryContext degraded_ctx;
  degraded_ctx.set_allow_degraded(true).set_ops_budget(4);
  auto degraded = (*session)->Query(*mask1, degraded_ctx);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_TRUE(degraded->degraded);
  EXPECT_GT(degraded->l2_bound, 0.0);

  auto exact = (*session)->Query(*mask1, QueryContext());
  ASSERT_TRUE(exact.ok());
  EXPECT_FALSE(exact->degraded);
  EXPECT_EQ(exact->l2_bound, 0.0);
  EXPECT_LE(L2Error(degraded->data, exact->data),
            degraded->l2_bound * (1.0 + 1e-12) + 1e-9);

  // Never cached: the degraded answer must not have been published, so
  // the exact query above went through a real (exact) fill and any later
  // hit is bit-exact.
  auto again = (*session)->Query(*mask1, degraded_ctx);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->degraded) << "cache hit must serve the exact tensor";
  EXPECT_EQ(again->data.data(), exact->data.data());

  const ServeMetrics metrics = (*session)->serve_metrics();
  EXPECT_EQ(metrics.degraded, 1u);
}

TEST(ServeDegradeTest, ElementStripsDegradationAndFailsClosed) {
  auto shape = CubeShape::Make({8, 8});
  ASSERT_TRUE(shape.ok());
  Rng rng(31);
  auto cube = UniformIntegerCube(*shape, &rng, -9, 9);
  ASSERT_TRUE(cube.ok());
  auto session = OlapSession::FromCube(*shape, *cube);
  ASSERT_TRUE(session.ok());
  auto mask1 = ElementId::AggregatedView(1, *shape);
  ASSERT_TRUE(mask1.ok());

  // Element() has no channel for an error bound, so even an opted-in
  // context must not leak an approximate tensor through it: the budget
  // shortfall surfaces as kDeadlineExceeded instead.
  QueryContext ctx;
  ctx.set_allow_degraded(true).set_ops_budget(4);
  auto answer = (*session)->Element(*mask1, ctx);
  ASSERT_FALSE(answer.ok());
  EXPECT_TRUE(answer.status().IsDeadlineExceeded())
      << answer.status().ToString();
}

TEST(ServeDegradeTest, GenerousBudgetStaysExactEvenWhenOptedIn) {
  CubeFixture fixture = CubeFixture::Make(31);
  AssemblyEngine engine(&fixture.store);
  ElementServer server(&engine, &fixture.store, /*cache=*/nullptr);

  QueryContext ctx;
  ctx.set_allow_degraded(true).set_ops_budget(1u << 20);
  auto answer = server.Serve(fixture.View(1), ctx);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_FALSE(answer->degraded);
  EXPECT_EQ(answer->l2_bound, 0.0);
  auto exact = engine.Assemble(fixture.View(1));
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(answer->data.data(), exact->data());
}

// ---------------------------------------------------------------------------
// Admission control: bounded queue, load shedding, graceful shutdown.
// Thread-heavy on purpose — the suite name carries "Serve" into the CI
// TSan filter, so this doubles as the admission-queue race detector.

TEST(ServeAdmissionTest, ShedsWhenQueueIsFullAndRecovers) {
  AdmissionOptions options;
  options.max_inflight = 1;
  options.max_queue = 0;  // no waiting: the second arrival is shed
  AdmissionController admission(options);

  auto first = admission.Admit();
  ASSERT_TRUE(first.ok());
  auto second = admission.Admit();
  ASSERT_FALSE(second.ok());
  EXPECT_TRUE(second.status().IsResourceExhausted())
      << second.status().ToString();
  EXPECT_NE(second.status().ToString().find("retry after"),
            std::string::npos)
      << "shed status must carry the retry-after hint";

  first->Release();
  auto third = admission.Admit();
  EXPECT_TRUE(third.ok());
  const AdmissionMetrics metrics = admission.Metrics();
  EXPECT_EQ(metrics.admitted, 2u);
  EXPECT_EQ(metrics.shed, 1u);
}

TEST(ServeAdmissionTest, QueuedWaiterHonorsItsDeadline) {
  AdmissionOptions options;
  options.max_inflight = 1;
  options.max_queue = 4;
  AdmissionController admission(options);

  auto holder = admission.Admit();
  ASSERT_TRUE(holder.ok());
  const auto start = std::chrono::steady_clock::now();
  auto queued = admission.Admit(
      QueryContext::WithTimeout(std::chrono::milliseconds(50)));
  const auto waited = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(queued.ok());
  EXPECT_TRUE(queued.status().IsDeadlineExceeded())
      << queued.status().ToString();
  EXPECT_LT(waited, std::chrono::seconds(5)) << "wait was not bounded";
  EXPECT_EQ(admission.Metrics().deadline_exceeded, 1u);
}

TEST(ServeAdmissionTest, ShutdownRefusesNewArrivalsAndDrains) {
  AdmissionController admission;
  auto permit = admission.Admit();
  ASSERT_TRUE(permit.ok());
  admission.Shutdown();
  auto refused = admission.Admit();
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsUnavailable())
      << refused.status().ToString();
  EXPECT_FALSE(admission.Drain(std::chrono::milliseconds(50)))
      << "drained while a permit was still outstanding";
  permit->Release();
  EXPECT_TRUE(admission.Drain(std::chrono::milliseconds(1000)));
  EXPECT_EQ(admission.Metrics().inflight, 0u);
  EXPECT_EQ(admission.Metrics().queued, 0u);
}

// A release takes the admission mutex and notifies only when a waiter
// or drainer has registered. The next two tests fail when a release
// never notifies: each waiter then sleeps out its slice (here its whole
// 50 ms deadline), and a drainer its 100 ms slice.

TEST(ServeAdmissionTest, NoLostWakeupWithOneSlotAndFourThreads) {
  constexpr uint32_t kThreads = 4;
  const uint64_t cycles = 200 * SoakIters();
  AdmissionOptions options;
  options.max_inflight = 1;
  options.max_queue = kThreads;  // every arrival can queue: none is shed
  AdmissionController admission(options);

  std::atomic<uint64_t> attempts{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (uint32_t w = 0; w < kThreads; ++w) {
    workers.emplace_back([&] {
      for (uint64_t i = 0; i < cycles; ++i) {
        attempts.fetch_add(1, std::memory_order_relaxed);  // order: stat
        auto permit = admission.Admit(
            QueryContext::WithTimeout(std::chrono::milliseconds(50)));
        if (!permit.ok()) continue;
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        permit->Release();
        // A pause before the next arrival, so the woken waiters are not
        // always beaten to the slot by this thread's fast path.
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  const AdmissionMetrics metrics = admission.Metrics();
  EXPECT_EQ(metrics.deadline_exceeded, 0u)
      << "a waiter slept through the release of a free slot";
  EXPECT_EQ(metrics.admitted, attempts.load());
  EXPECT_EQ(metrics.shed, 0u);
  EXPECT_EQ(metrics.inflight, 0u);
  EXPECT_EQ(metrics.queued, 0u);
}

TEST(ServeAdmissionTest, DrainReturnsPromptlyAfterTheLastRelease) {
  using Clock = QueryContext::Clock;
  AdmissionController admission;
  auto permit = admission.Admit();
  ASSERT_TRUE(permit.ok());
  bool drained = false;
  Clock::time_point drained_at;
  std::thread drainer([&] {
    drained = admission.Drain(std::chrono::seconds(5));
    drained_at = Clock::now();
  });
  // Let the drainer register and begin its first 100 ms slice.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const Clock::time_point released_at = Clock::now();
  permit->Release();
  drainer.join();
  EXPECT_TRUE(drained);
  EXPECT_LT(drained_at - released_at, std::chrono::milliseconds(50))
      << "Drain slept out its slice instead of waking on the release";
}

TEST(ServeAdmissionStressTest, MetricsIdentityHoldsUnderContention) {
  const uint64_t rounds = 200 * SoakIters();
  constexpr uint32_t kThreads = 8;
  AdmissionOptions options;
  options.max_inflight = 2;
  options.max_queue = 2;
  AdmissionController admission(options);

  std::atomic<uint64_t> attempts{0};
  std::atomic<uint64_t> held{0};
  std::atomic<bool> over_limit{false};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (uint32_t w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      for (uint64_t i = 0; i < rounds; ++i) {
        // Mix of unbounded, short-deadline, and already-expired contexts.
        QueryContext ctx;
        if (i % 3 == 1) {
          ctx = QueryContext::WithTimeout(std::chrono::milliseconds(2));
        } else if (i % 3 == 2) {
          ctx = QueryContext::WithDeadline(QueryContext::Clock::now());
        }
        attempts.fetch_add(1, std::memory_order_relaxed);  // order: stat
        auto permit = admission.Admit(ctx);
        if (!permit.ok()) continue;
        // order: acq_rel — the inflight ceiling check below reads the
        // counter other holders bumped.
        const uint64_t now = held.fetch_add(1, std::memory_order_acq_rel);
        if (now + 1 > options.max_inflight) over_limit.store(true);
        std::this_thread::yield();
        held.fetch_sub(1, std::memory_order_acq_rel);  // order: see above
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_FALSE(over_limit.load()) << "more permits than max_inflight";

  admission.Shutdown();
  auto rejected = admission.Admit();
  EXPECT_TRUE(rejected.status().IsUnavailable());
  EXPECT_TRUE(admission.Drain(std::chrono::milliseconds(1000)));

  const AdmissionMetrics metrics = admission.Metrics();
  EXPECT_EQ(metrics.admitted + metrics.shed + metrics.deadline_exceeded +
                metrics.rejected_shutdown,
            attempts.load() + 1)  // +1: the post-shutdown probe above
      << "every Admit() must resolve to exactly one outcome";
  EXPECT_EQ(metrics.inflight, 0u);
  EXPECT_EQ(metrics.queued, 0u);
}

// ---------------------------------------------------------------------------
// The end-to-end accounting gate: a concurrent mixed workload through
// admission + serving resolves every query to exactly one contract
// outcome — deadline_exceeded + shed + degraded + ok == queries_issued.

TEST(ServeAccountingStressTest, EveryQueryResolvesToExactlyOneOutcome) {
  const uint64_t queries_per_worker = 100 * SoakIters();
  constexpr uint32_t kThreads = 6;
  CubeFixture fixture = CubeFixture::Make(47);
  const std::vector<ElementId> views = {fixture.View(0), fixture.View(1),
                                        fixture.View(2), fixture.View(3)};
  ViewCache cache;
  AdmissionOptions admission_options;
  admission_options.max_inflight = 2;
  admission_options.max_queue = 2;
  AdmissionController admission(admission_options);

  std::atomic<uint64_t> ok{0};
  std::atomic<uint64_t> deadline_exceeded{0};
  std::atomic<uint64_t> shed{0};
  std::atomic<uint64_t> degraded{0};
  std::atomic<uint64_t> unexpected{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (uint32_t w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      AssemblyEngine engine(&fixture.store);
      ElementServer server(&engine, &fixture.store, &cache);
      for (uint64_t i = 0; i < queries_per_worker; ++i) {
        QueryContext ctx;
        switch (i % 4) {
          case 0:  // unbounded
            break;
          case 1:  // tight but usually feasible
            ctx = QueryContext::WithTimeout(std::chrono::milliseconds(5));
            break;
          case 2:  // already hopeless
            ctx = QueryContext::WithDeadline(QueryContext::Clock::now());
            break;
          case 3:  // degradation-eligible with a starvation budget
            ctx.set_allow_degraded(true).set_ops_budget(4);
            break;
        }
        auto permit = admission.Admit(ctx);
        if (!permit.ok()) {
          if (permit.status().IsResourceExhausted()) {
            cache.RecordShed();
            shed.fetch_add(1, std::memory_order_relaxed);  // order: stat
          } else if (permit.status().IsDeadlineExceeded() ||
                     permit.status().IsCancelled()) {
            deadline_exceeded.fetch_add(
                1, std::memory_order_relaxed);  // order: stat
          } else {
            unexpected.fetch_add(1, std::memory_order_relaxed);  // order:
                                                                 // stat
          }
          continue;
        }
        auto answer = server.Serve(views[(w + i) % views.size()], ctx);
        if (!answer.ok()) {
          if (answer.status().IsDeadlineExceeded() ||
              answer.status().IsCancelled()) {
            deadline_exceeded.fetch_add(
                1, std::memory_order_relaxed);  // order: stat
          } else {
            unexpected.fetch_add(1, std::memory_order_relaxed);  // order:
                                                                 // stat
          }
          continue;
        }
        if (answer->degraded) {
          degraded.fetch_add(1, std::memory_order_relaxed);  // order: stat
        } else {
          ok.fetch_add(1, std::memory_order_relaxed);  // order: stat
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  EXPECT_EQ(unexpected.load(), 0u)
      << "some query resolved outside the robustness contract";
  EXPECT_EQ(
      ok.load() + deadline_exceeded.load() + shed.load() + degraded.load(),
      queries_per_worker * kThreads);
  const ServeMetrics metrics = cache.Metrics();
  EXPECT_EQ(metrics.shed, shed.load());
  EXPECT_EQ(metrics.degraded, degraded.load());
}


// ---------------------------------------------------------------------------
// One serving path: OlapSession::Element, OlapSession::RangeSum and
// OlapSession::AvgByMask all serve through ElementServer, so the same
// fault must give the same Status code and the same ServeMetrics deltas
// through each of them. kDynamicQuery is Element on a session that adapts
// online and evaluates drift after every answered query; its threshold
// lies above the largest L1 distance (2), so the evaluation runs and never
// reconfigures, and must change none of it.

enum class Entry { kElement, kRangeSum, kDynamicQuery, kAvgByMask };

void PrintTo(Entry entry, std::ostream* os) {
  switch (entry) {
    case Entry::kElement:
      *os << "Element";
      return;
    case Entry::kRangeSum:
      *os << "RangeSum";
      return;
    case Entry::kDynamicQuery:
      *os << "DynamicQuery";
      return;
    case Entry::kAvgByMask:
      *os << "AvgByMask";
      return;
  }
}

/// The ServeMetrics fields the robustness contract moves, as deltas.
struct Delta {
  int64_t hits = 0, misses = 0, deadline_exceeded = 0, degraded = 0;
  int64_t shed = 0, ops_saved = 0, ops_executed = 0;

  static Delta Between(const ServeMetrics& before, const ServeMetrics& after) {
    auto d = [](uint64_t a, uint64_t b) {
      return static_cast<int64_t>(a) - static_cast<int64_t>(b);
    };
    Delta delta;
    delta.hits = d(after.hits, before.hits);
    delta.misses = d(after.misses, before.misses);
    delta.deadline_exceeded =
        d(after.deadline_exceeded, before.deadline_exceeded);
    delta.degraded = d(after.degraded, before.degraded);
    delta.shed = d(after.shed, before.shed);
    delta.ops_saved = d(after.assembly_ops_saved, before.assembly_ops_saved);
    delta.ops_executed =
        d(after.assembly_ops_executed, before.assembly_ops_executed);
    return delta;
  }
};

/// One cached entry point over a fresh 8x8 cube whose store holds only
/// the cube. Every entry point but AvgByMask asks for the same
/// intermediate element: Element and Query by id, RangeSum through a
/// range that is one aligned 2^L block per dimension, which that element
/// answers in one cell. AvgByMask asks for the view with dimension 0
/// aggregated, over a session whose cells hold 1-3 facts each.
class EntryPoint {
 public:
  explicit EntryPoint(Entry entry) : entry_(entry) {
    CubeShape shape = *CubeShape::Make({8, 8});
    Rng rng(53);
    cube_ = *UniformIntegerCube(shape, &rng, -9, 9);
    range_ = *RangeSpec::Make({4, 2}, {4, 2}, shape);
    id_ = entry == Entry::kAvgByMask
              ? *ElementId::AggregatedView(kAvgMask, shape)
              : *ElementId::Intermediate({2, 1}, shape);
    if (entry == Entry::kAvgByMask) {
      InitAvgByMask(shape);
      return;
    }
    ElementStore root(shape);
    EXPECT_TRUE(root.Put(ElementId::Root(shape.ndim()), cube_).ok());
    AssemblyEngine planner(&root);
    plan_cost_ = planner.PlanCost(id_);
    expected_ = *planner.Assemble(id_);
    OlapSessionOptions options;
    options.num_threads = 1;
    options.view_cache.enabled = true;
    if (entry == Entry::kDynamicQuery) {
      options.drift_threshold = 2.5;
      options.min_queries_between_reconfigs = 1;
    }
    session_ = std::move(OlapSession::FromCube(shape, cube_, options)).value();
  }

  /// Issues one query under `ctx`; an OK answer is checked bit-exact.
  Status Issue(const QueryContext& ctx) {
    switch (entry_) {
      case Entry::kElement:
      case Entry::kDynamicQuery: {
        Result<Tensor> got = session_->Element(id_, ctx);
        if (got.ok()) {
          EXPECT_EQ(got->data(), expected_.data());
        }
        return got.status();
      }
      case Entry::kRangeSum: {
        Result<double> got = session_->RangeSum(range_, ctx);
        if (got.ok()) {
          EXPECT_EQ(*got, *NaiveRangeSum(cube_, session_->shape(), range_));
        }
        return got.status();
      }
      case Entry::kAvgByMask: {
        Result<Tensor> got = session_->AvgByMask(kAvgMask, ctx);
        if (got.ok()) {
          EXPECT_EQ(got->data(), expected_.data());
        }
        return got.status();
      }
    }
    return Status::Internal("unknown entry point");
  }

  /// Issues one query and returns its status and the metrics it moved.
  std::pair<Status, Delta> IssueAndMeasure(const QueryContext& ctx) {
    const ServeMetrics before = Metrics();
    Status status = Issue(ctx);
    return {status, Delta::Between(before, Metrics())};
  }

  [[nodiscard]] ServeMetrics Metrics() const {
    return session_->serve_metrics();
  }
  [[nodiscard]] uint64_t plan_cost() const { return plan_cost_; }

 private:
  static constexpr uint32_t kAvgMask = 1;

  // Cell c holds 1 + c % 3 facts of value cube_[c]. The SUM side serves
  // through the session's cached ElementServer, so plan_cost() is its
  // plan cost, which is what ServeMetrics sees.
  void InitAvgByMask(const CubeShape& shape) {
    Tensor sums = *Tensor::Zeros(shape.extents());
    Tensor counts = *Tensor::Zeros(shape.extents());
    OlapSessionOptions options;
    options.num_threads = 1;
    options.view_cache.enabled = true;
    options.maintain_count_cube = true;
    session_ = std::move(OlapSession::FromCube(shape, sums, options)).value();
    for (uint32_t i = 0; i < 8; ++i) {
      for (uint32_t j = 0; j < 8; ++j) {
        const uint64_t c = sums.FlatIndex({i, j});
        for (uint64_t f = 0; f <= c % 3; ++f) {
          EXPECT_TRUE(session_->AddFact({i, j}, cube_[c]).ok());
          sums[c] += cube_[c];
          counts[c] += 1.0;
        }
      }
    }
    ElementStore sum_root(shape), count_root(shape);
    EXPECT_TRUE(sum_root.Put(ElementId::Root(shape.ndim()), sums).ok());
    EXPECT_TRUE(count_root.Put(ElementId::Root(shape.ndim()), counts).ok());
    AssemblyEngine sum_engine(&sum_root), count_engine(&count_root);
    plan_cost_ = sum_engine.PlanCost(id_);
    const Tensor view_sums = *sum_engine.Assemble(id_);
    const Tensor view_counts = *count_engine.Assemble(id_);
    expected_ = view_sums;
    for (uint64_t k = 0; k < expected_.size(); ++k) {
      expected_[k] = view_counts[k] > 0.0 ? view_sums[k] / view_counts[k] : 0.0;
    }
  }

  Entry entry_;
  Tensor cube_;
  RangeSpec range_;
  ElementId id_;
  uint64_t plan_cost_ = 0;
  Tensor expected_;
  std::unique_ptr<OlapSession> session_;
};

void ExpectExpiredContextFailsAndCountsOnce(Entry point) {
  EntryPoint entry(point);
  // For RangeSum this is the per-step ctx check of the odometer, which
  // must count the expiry once, like Serve's own entry check does.
  auto [status, delta] = entry.IssueAndMeasure(QueryContext::WithDeadline(
      QueryContext::Clock::now() - std::chrono::milliseconds(1)));
  EXPECT_TRUE(status.IsDeadlineExceeded()) << status.ToString();
  EXPECT_EQ(delta.deadline_exceeded, 1);
  EXPECT_EQ(delta.misses, 0);
  EXPECT_EQ(delta.hits, 0);
  EXPECT_EQ(delta.ops_executed, 0);
}

void ExpectOpBudgetBelowPlanCostFailsBeforeAssembling(Entry point) {
  EntryPoint entry(point);
  ASSERT_GT(entry.plan_cost(), 1u);
  QueryContext ctx;
  ctx.set_ops_budget(entry.plan_cost() - 1);
  auto [status, delta] = entry.IssueAndMeasure(ctx);
  EXPECT_TRUE(status.IsDeadlineExceeded()) << status.ToString();
  EXPECT_EQ(delta.deadline_exceeded, 1);
  EXPECT_EQ(delta.misses, 1);
  EXPECT_EQ(delta.ops_executed, 0);

  // A budget of exactly the plan cost is enough.
  ctx.set_ops_budget(entry.plan_cost());
  auto [exact, exact_delta] = entry.IssueAndMeasure(ctx);
  ASSERT_TRUE(exact.ok()) << exact.ToString();
  EXPECT_EQ(exact_delta.ops_executed,
            static_cast<int64_t>(entry.plan_cost()));
}

void ExpectDegradationIsStrippedAndFailsClosed(Entry point) {
  // None of these signatures has a channel for an error bound, so an
  // opted-in context must not leak an approximate answer through them.
  EntryPoint entry(point);
  QueryContext ctx;
  ctx.set_allow_degraded(true).set_ops_budget(4);
  auto [status, delta] = entry.IssueAndMeasure(ctx);
  EXPECT_TRUE(status.IsDeadlineExceeded()) << status.ToString();
  EXPECT_EQ(delta.degraded, 0);
  EXPECT_EQ(delta.deadline_exceeded, 1);
  EXPECT_EQ(delta.misses, 1);
}

class ServeEntryPointTest : public testing::TestWithParam<Entry> {};

TEST_P(ServeEntryPointTest, ExpiredContextFailsAndCountsOnce) {
  ExpectExpiredContextFailsAndCountsOnce(GetParam());
}

TEST_P(ServeEntryPointTest, CancellationUnwindsWithKCancelled) {
  EntryPoint entry(GetParam());
  QueryContext ctx = QueryContext::Cancellable();
  ctx.RequestCancel();
  auto [status, delta] = entry.IssueAndMeasure(ctx);
  EXPECT_TRUE(status.IsCancelled()) << status.ToString();
  EXPECT_EQ(delta.deadline_exceeded, 1);
  EXPECT_EQ(delta.misses, 0);
  EXPECT_EQ(delta.ops_executed, 0);
}

TEST_P(ServeEntryPointTest, InjectedFillErrorPropagatesThenRecovers) {
  FailpointGuard guard;
  EntryPoint entry(GetParam());
  FailpointAction error;
  error.kind = FailpointAction::Kind::kError;
  Failpoints::Arm("serve.fill", error);
  auto [status, delta] = entry.IssueAndMeasure(QueryContext());
  EXPECT_TRUE(status.IsInternal()) << status.ToString();
  EXPECT_NE(status.ToString().find("injected fill failure"), std::string::npos)
      << status.ToString();
  EXPECT_EQ(delta.misses, 1);  // the leader's miss, then its abort
  EXPECT_EQ(delta.deadline_exceeded, 0);
  EXPECT_EQ(delta.ops_executed, 0);

  // One-shot failpoint: the next query fills exactly, the one after hits.
  auto [filled, fill_delta] = entry.IssueAndMeasure(QueryContext());
  ASSERT_TRUE(filled.ok()) << filled.ToString();
  EXPECT_EQ(fill_delta.misses, 1);
  EXPECT_EQ(fill_delta.ops_executed,
            static_cast<int64_t>(entry.plan_cost()));
  auto [hit, hit_delta] = entry.IssueAndMeasure(QueryContext());
  ASSERT_TRUE(hit.ok()) << hit.ToString();
  EXPECT_EQ(hit_delta.hits, 1);
  EXPECT_EQ(hit_delta.ops_saved, static_cast<int64_t>(entry.plan_cost()));
}

TEST_P(ServeEntryPointTest, OpBudgetBelowPlanCostFailsBeforeAssembling) {
  ExpectOpBudgetBelowPlanCostFailsBeforeAssembling(GetParam());
}

TEST_P(ServeEntryPointTest, DegradationIsStrippedAndFailsClosed) {
  ExpectDegradationIsStrippedAndFailsClosed(GetParam());
}

// ok + deadline_exceeded + shed + degraded == issued and
// ops_saved + ops_executed == Σ plan cost over the answered queries, after
// every single call of a sequence that reaches every contract outcome.
TEST_P(ServeEntryPointTest, AccountingIdentitiesHoldAfterEveryCall) {
  EntryPoint entry(GetParam());
  std::vector<QueryContext> contexts;
  contexts.push_back(QueryContext());  // fill
  contexts.push_back(QueryContext::WithDeadline(QueryContext::Clock::now()));
  contexts.push_back(QueryContext());  // hit
  {
    QueryContext cancelled = QueryContext::Cancellable();
    cancelled.RequestCancel();
    contexts.push_back(cancelled);
  }
  contexts.push_back(QueryContext::WithTimeout(std::chrono::hours(1)));
  {
    QueryContext starved;
    starved.set_allow_degraded(true).set_ops_budget(4);
    contexts.push_back(starved);  // a hit: the budget gates fills only
  }
  const ServeMetrics start = entry.Metrics();
  uint64_t issued = 0, ok = 0, plan_sum = 0;
  for (const QueryContext& ctx : contexts) {
    const Status status = entry.Issue(ctx);
    ++issued;
    if (status.ok()) {
      ++ok;
      plan_sum += entry.plan_cost();
    } else {
      EXPECT_TRUE(status.IsDeadlineExceeded() || status.IsCancelled())
          << status.ToString();
    }
    const Delta d = Delta::Between(start, entry.Metrics());
    EXPECT_EQ(ok + d.deadline_exceeded + d.shed + d.degraded, issued)
        << "after call " << issued;
    EXPECT_EQ(static_cast<uint64_t>(d.ops_saved + d.ops_executed), plan_sum)
        << "after call " << issued;
  }
  EXPECT_EQ(ok, 4u);
  EXPECT_EQ(Delta::Between(start, entry.Metrics()).misses, 1);
}

INSTANTIATE_TEST_SUITE_P(AllEntryPoints, ServeEntryPointTest,
                         testing::Values(Entry::kElement, Entry::kRangeSum,
                                         Entry::kDynamicQuery));

// AvgByMask is two element queries per call: the SUM one through the
// session's cached ElementServer, then the COUNT one through an uncached
// one. A context that fails the SUM query fails the call before the
// COUNT query starts, so these cases see exactly the status code and
// ServeMetrics deltas of the single-element entry points (ViewByMask is
// Element). The other cases do not carry over: a call can hit on its SUM
// side and still be gated on its COUNT side.
TEST(ServeAvgByMaskTest, ExpiredContextFailsAndCountsOnce) {
  ExpectExpiredContextFailsAndCountsOnce(Entry::kAvgByMask);
}

TEST(ServeAvgByMaskTest, OpBudgetBelowPlanCostFailsBeforeAssembling) {
  ExpectOpBudgetBelowPlanCostFailsBeforeAssembling(Entry::kAvgByMask);
}

TEST(ServeAvgByMaskTest, DegradationIsStrippedAndFailsClosed) {
  ExpectDegradationIsStrippedAndFailsClosed(Entry::kAvgByMask);
}

// Followers: ElementServer::Serve (what OlapSession::Element runs) and a
// RangeEngine over an ElementServer, each on a cache shared with a
// stalled or aborting ElementServer leader. An OlapSession is a
// single-caller object, so its own follower branch cannot be reached.

enum class Follower { kServe, kRangeSum };

void PrintTo(Follower follower, std::ostream* os) {
  *os << (follower == Follower::kServe ? "Serve" : "RangeSum");
}

class ServeFollowerTest : public testing::TestWithParam<Follower> {
 protected:
  ServeFollowerTest() : fixture_(CubeFixture::Make(59)) {
    range_ = *RangeSpec::Make({4, 2}, {4, 2}, fixture_.shape);
    id_ = *ElementId::Intermediate({2, 1}, fixture_.shape);
  }

  /// One follower query for the shared element on `cache`.
  Status Follow(ViewCache* cache, const QueryContext& ctx) {
    AssemblyEngine engine(&fixture_.store);
    ElementServer server(&engine, &fixture_.store, cache);
    if (GetParam() == Follower::kServe) return server.Serve(id_, ctx).status();
    RangeEngine range_engine(&fixture_.store,
                             MissingElementPolicy::kAssemble, &server);
    return range_engine.RangeSum(range_, nullptr, ctx).status();
  }

  /// Runs an ElementServer leader for the shared element on `cache` in a
  /// thread that stalls `stall_ms` in the serve.fill failpoint and then
  /// publishes, or aborts with `verify`'s status when that fails.
  std::thread StalledLeader(ViewCache* cache, uint64_t stall_ms,
                            FillVerifier verify, Status* result) {
    FailpointAction delay;
    delay.kind = FailpointAction::Kind::kDelay;
    delay.delay_ms = stall_ms;
    Failpoints::Arm("serve.fill", delay);
    std::thread leader([this, cache, verify, result] {
      AssemblyEngine engine(&fixture_.store);
      ElementServer server(&engine, &fixture_.store, cache, verify);
      *result = server.Serve(id_, QueryContext()).status();
    });
    // The flight exists once the leader's miss is counted; the stall
    // itself happens after the ticket is claimed.
    while (cache->Metrics().misses < 1) std::this_thread::yield();
    return leader;
  }

  void ExpectCachedExact(ViewCache* cache) {
    auto hit = cache->Lookup(id_);
    ASSERT_NE(hit, nullptr);
    AssemblyEngine reference(&fixture_.store);
    EXPECT_EQ(hit->data(), reference.Assemble(id_)->data());
  }

  CubeFixture fixture_;
  RangeSpec range_;
  ElementId id_;
};

TEST_P(ServeFollowerTest, DeadlineFiresWhileLeaderIsStalled) {
  FailpointGuard guard;
  ViewCache cache;
  Status leader_status;
  std::thread leader = StalledLeader(&cache, 400, nullptr, &leader_status);
  const Status status =
      Follow(&cache, QueryContext::WithTimeout(std::chrono::milliseconds(100)));
  leader.join();
  EXPECT_TRUE(status.IsDeadlineExceeded()) << status.ToString();
  EXPECT_TRUE(leader_status.ok()) << leader_status.ToString();
  const ServeMetrics metrics = cache.Metrics();
  EXPECT_EQ(metrics.deadline_exceeded, 1u);
  EXPECT_EQ(metrics.follower_retries, 0u);
  // The leader's late answer is cached and exact for the next caller.
  ExpectCachedExact(&cache);
}

TEST_P(ServeFollowerTest, ReceivesLeaderAbortCause) {
  FailpointGuard guard;
  ViewCache cache;
  Status leader_status;
  std::thread leader = StalledLeader(
      &cache, 300,
      [](const ElementId&, uint64_t) {
        return Status::Internal("injected fill failure");
      },
      &leader_status);
  const Status status = Follow(&cache, QueryContext());
  leader.join();
  EXPECT_TRUE(leader_status.IsInternal()) << leader_status.ToString();
  // An element-local cause propagates verbatim, without a retry.
  EXPECT_TRUE(status.IsInternal()) << status.ToString();
  EXPECT_NE(status.ToString().find("injected fill failure"),
            std::string::npos)
      << status.ToString();
  const ServeMetrics metrics = cache.Metrics();
  EXPECT_EQ(metrics.follower_retries, 0u);
  EXPECT_EQ(metrics.deadline_exceeded, 0u);
  EXPECT_EQ(metrics.insertions, 0u);
}

TEST_P(ServeFollowerTest, RepeatedLeaderAbortsDoNotLivelock) {
  ViewCache cache;
  // A saboteur keeps claiming leadership and aborting with the generic
  // (leader-local) cause: the follower either wins a leader ticket itself
  // (OK) or exhausts its bounded retries (kUnavailable).
  std::atomic<bool> stop{false};
  std::thread saboteur([&] {
    while (!stop.load(std::memory_order_relaxed)) {  // order: stop flag
      auto outcome = cache.LookupOrBegin(id_);
      if (outcome.fill.valid() && outcome.fill.leader()) {
        cache.AbortFill(std::move(outcome.fill));
      }
      std::this_thread::yield();
    }
  });
  const Status status = Follow(&cache, QueryContext());
  stop.store(true, std::memory_order_relaxed);  // order: stop flag
  saboteur.join();
  if (!status.ok()) {
    EXPECT_TRUE(status.IsUnavailable()) << status.ToString();
  }
  EXPECT_LE(cache.Metrics().follower_retries, 3u);

  // Whatever the race produced, the path is healthy afterwards.
  const Status after = Follow(&cache, QueryContext());
  ASSERT_TRUE(after.ok()) << after.ToString();
  ExpectCachedExact(&cache);
}

INSTANTIATE_TEST_SUITE_P(ElementAndRange, ServeFollowerTest,
                         testing::Values(Follower::kServe,
                                         Follower::kRangeSum));

}  // namespace
}  // namespace vecube
