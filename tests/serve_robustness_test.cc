// Robustness tests for the bounded-latency serving stack (DESIGN.md §13):
// deadline propagation through fills and follower waits, leader-abort
// cause propagation (no retry livelock), cancellation mid-assembly
// leaving the cache and scratch state consistent, admission-control load
// shedding under a TSan-friendly thread stress, and the graceful
// degradation contract (a degraded answer always carries a sound L2
// bound and is never cached). Suite names carry "Serve" into the CI TSan
// test filter; VECUBE_SOAK_ITERS (env) scales the stress rounds.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <thread>
#include <vector>

#include "api/session.h"
#include "core/assembly.h"
#include "core/element_id.h"
#include "core/store.h"
#include "cube/synthetic.h"
#include "cube/tensor.h"
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

// A leader stalled (failpoint-injected latency) past a follower's
// deadline: the follower must come back with its own kDeadlineExceeded
// instead of waiting out the leader, while the leader still completes
// and publishes an exact answer.
TEST(ServeChaosTest, FollowerDeadlineFiresWhileLeaderIsStalled) {
  FailpointGuard guard;
  CubeFixture fixture = CubeFixture::Make();
  const ElementId id = fixture.View(1);
  ViewCache cache;

  FailpointAction delay;
  delay.kind = FailpointAction::Kind::kDelay;
  delay.delay_ms = 400;
  Failpoints::Arm("serve.fill", delay);

  std::thread leader([&] {
    AssemblyEngine engine(&fixture.store);
    ElementServer server(&engine, &fixture.store, &cache);
    auto answer = server.Serve(id, QueryContext());
    EXPECT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_FALSE(answer->degraded);
  });
  // The flight exists once the leader's miss is counted; the stall
  // itself happens after the ticket is claimed.
  while (cache.Metrics().misses < 1) std::this_thread::yield();

  AssemblyEngine follower_engine(&fixture.store);
  ElementServer follower(&follower_engine, &fixture.store, &cache);
  auto answer = follower.Serve(
      id, QueryContext::WithTimeout(std::chrono::milliseconds(100)));
  ASSERT_FALSE(answer.ok());
  EXPECT_TRUE(answer.status().IsDeadlineExceeded())
      << answer.status().ToString();
  leader.join();

  const ServeMetrics metrics = cache.Metrics();
  EXPECT_GE(metrics.deadline_exceeded, 1u);
  // The leader's late answer is cached and exact for the next caller.
  auto hit = cache.Lookup(id);
  ASSERT_NE(hit, nullptr);
  AssemblyEngine reference(&fixture.store);
  auto exact = reference.Assemble(id);
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(hit->data(), exact->data());
}

// ---------------------------------------------------------------------------
// Leader abort handling (the follower-livelock fix): an element-local
// failure propagates to followers immediately; leader-local aborts are
// retried a bounded number of times, never forever.

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

TEST(ServeChaosTest, InjectedFillErrorPropagatesThroughServer) {
  FailpointGuard guard;
  CubeFixture fixture = CubeFixture::Make();
  ViewCache cache;
  AssemblyEngine engine(&fixture.store);
  ElementServer server(&engine, &fixture.store, &cache);

  FailpointAction error;
  error.kind = FailpointAction::Kind::kError;
  Failpoints::Arm("serve.fill", error);
  auto answer = server.Serve(fixture.View(1), QueryContext());
  ASSERT_FALSE(answer.ok());
  EXPECT_NE(answer.status().ToString().find("injected fill failure"),
            std::string::npos)
      << answer.status().ToString();

  // One-shot failpoint: the next query recovers and serves exactly.
  auto retry = server.Serve(fixture.View(1), QueryContext());
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_FALSE(retry->degraded);
}

TEST(ServeChaosTest, RepeatedLeaderAbortsDoNotLivelockFollowers) {
  CubeFixture fixture = CubeFixture::Make();
  const ElementId id = fixture.View(1);
  ViewCache cache;

  // A saboteur keeps claiming leadership and aborting with the generic
  // (leader-local) cause. Pre-fix behavior was an unbounded retry loop
  // in the follower; post-fix the follower either wins a leader ticket
  // itself (OK) or exhausts its bounded retries (kUnavailable) — either
  // way this test terminates.
  std::atomic<bool> stop{false};
  std::thread saboteur([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto outcome = cache.LookupOrBegin(id);
      if (outcome.fill.valid() && outcome.fill.leader()) {
        cache.AbortFill(std::move(outcome.fill));
      }
      std::this_thread::yield();
    }
  });

  AssemblyEngine engine(&fixture.store);
  ElementServer server(&engine, &fixture.store, &cache);
  auto answer = server.Serve(id, QueryContext());
  stop.store(true, std::memory_order_relaxed);
  saboteur.join();
  if (!answer.ok()) {
    EXPECT_TRUE(answer.status().IsUnavailable())
        << answer.status().ToString();
  }

  // Whatever the race produced, the stack is healthy afterwards.
  auto after = server.Serve(id, QueryContext());
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  AssemblyEngine reference(&fixture.store);
  auto exact = reference.Assemble(id);
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(after->data.data(), exact->data());
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

}  // namespace
}  // namespace vecube
