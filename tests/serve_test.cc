// Serving-layer tests: the ViewCache replacement policy and metrics in
// isolation, the cached OlapSession's bit-exactness and invalidation
// hooks, and a TSan-targeted concurrent stress round (readers racing an
// invalidating writer; the suite name carries "Stress" into the CI TSan
// test filter).

#include "serve/view_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "api/session.h"
#include "core/assembly.h"
#include "core/computer.h"
#include "core/element_id.h"
#include "core/graph.h"
#include "cube/synthetic.h"
#include "cube/tensor.h"
#include "serve/admission.h"
#include "serve/serving.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "workload/population.h"

namespace vecube {
namespace {

// A 1-d tensor of `cells` doubles, all equal to `value`.
Tensor MakeTensor(uint32_t cells, double value) {
  auto tensor =
      Tensor::FromData({cells}, std::vector<double>(cells, value));
  EXPECT_TRUE(tensor.ok());
  return std::move(tensor).value();
}

// Distinct ids over an 8x8 shape: one per (level0, level1) pyramid cell.
std::vector<ElementId> PyramidIds(const CubeShape& shape, uint32_t count) {
  std::vector<ElementId> ids;
  for (uint32_t a = 0; a <= shape.log_extent(0) && ids.size() < count; ++a) {
    for (uint32_t b = 0; b <= shape.log_extent(1) && ids.size() < count;
         ++b) {
      auto id = ElementId::Intermediate({a, b}, shape);
      EXPECT_TRUE(id.ok());
      ids.push_back(*id);
    }
  }
  EXPECT_EQ(ids.size(), count);
  return ids;
}

TEST(ViewCacheTest, MissThenHitRoundTrips) {
  ViewCache cache;
  auto shape = CubeShape::Make({8, 8});
  ASSERT_TRUE(shape.ok());
  const std::vector<ElementId> ids = PyramidIds(*shape, 2);

  EXPECT_EQ(cache.Lookup(ids[0]), nullptr);
  auto inserted = cache.Insert(ids[0], MakeTensor(4, 7.0), 12);
  ASSERT_NE(inserted, nullptr);
  auto hit = cache.Lookup(ids[0]);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit.get(), inserted.get());
  EXPECT_EQ((*hit)[0], 7.0);
  EXPECT_EQ(cache.Lookup(ids[1]), nullptr);

  const ServeMetrics metrics = cache.Metrics();
  EXPECT_EQ(metrics.hits, 1u);
  EXPECT_EQ(metrics.misses, 2u);
  EXPECT_EQ(metrics.insertions, 1u);
  EXPECT_EQ(metrics.entries, 1u);
  EXPECT_EQ(metrics.bytes_resident, 4 * sizeof(double));
  EXPECT_EQ(metrics.assembly_ops_saved, 12u);
  EXPECT_DOUBLE_EQ(metrics.HitRate(), 1.0 / 3.0);
}

TEST(ViewCacheTest, FirstWriterWinsOnDuplicateInsert) {
  ViewCache cache;
  auto shape = CubeShape::Make({8, 8});
  ASSERT_TRUE(shape.ok());
  const ElementId id = PyramidIds(*shape, 1)[0];

  auto first = cache.Insert(id, MakeTensor(4, 1.0), 5);
  auto second = cache.Insert(id, MakeTensor(4, 1.0), 5);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.Metrics().insertions, 1u);
  EXPECT_EQ(cache.Metrics().entries, 1u);
}

TEST(ViewCacheTest, EvictsColdCheapBeforeHotExpensive) {
  ViewCacheOptions options;
  options.shards = 1;
  options.capacity_bytes = 2 * 8 * sizeof(double);  // room for two entries
  ViewCache cache(options);
  auto shape = CubeShape::Make({8, 8});
  ASSERT_TRUE(shape.ok());
  const std::vector<ElementId> ids = PyramidIds(*shape, 3);

  // ids[0]: hot and expensive to rebuild. ids[1]: cold and free.
  cache.Insert(ids[0], MakeTensor(8, 1.0), 1000);
  for (int i = 0; i < 4; ++i) EXPECT_NE(cache.Lookup(ids[0]), nullptr);
  cache.Insert(ids[1], MakeTensor(8, 2.0), 0);

  // Full; the third entry must displace the minimum-score victim.
  cache.Insert(ids[2], MakeTensor(8, 3.0), 50);
  EXPECT_EQ(cache.Metrics().evictions, 1u);
  EXPECT_NE(cache.Lookup(ids[0]), nullptr) << "hot/expensive entry evicted";
  EXPECT_EQ(cache.Lookup(ids[1]), nullptr) << "cold/cheap entry kept";
  EXPECT_NE(cache.Lookup(ids[2]), nullptr);
}

TEST(ViewCacheTest, CapacityIsEnforced) {
  ViewCacheOptions options;
  options.shards = 1;
  options.capacity_bytes = 4 * 8 * sizeof(double);
  ViewCache cache(options);
  auto shape = CubeShape::Make({8, 8});
  ASSERT_TRUE(shape.ok());
  const std::vector<ElementId> ids = PyramidIds(*shape, 12);

  for (const ElementId& id : ids) {
    cache.Insert(id, MakeTensor(8, 1.0), 1);
    EXPECT_LE(cache.Metrics().bytes_resident, options.capacity_bytes);
  }
  const ServeMetrics metrics = cache.Metrics();
  EXPECT_EQ(metrics.entries, 4u);
  EXPECT_EQ(metrics.evictions, 8u);
}

TEST(ViewCacheTest, OversizedEntryServedButNotRetained) {
  ViewCacheOptions options;
  options.shards = 1;
  options.capacity_bytes = 8 * sizeof(double);
  ViewCache cache(options);
  auto shape = CubeShape::Make({8, 8});
  ASSERT_TRUE(shape.ok());
  const ElementId id = PyramidIds(*shape, 1)[0];

  auto served = cache.Insert(id, MakeTensor(64, 5.0), 9);
  ASSERT_NE(served, nullptr);  // caller can still answer from this
  EXPECT_EQ((*served)[0], 5.0);
  EXPECT_EQ(cache.Lookup(id), nullptr);
  const ServeMetrics metrics = cache.Metrics();
  EXPECT_EQ(metrics.rejected_inserts, 1u);
  EXPECT_EQ(metrics.entries, 0u);
  EXPECT_EQ(metrics.bytes_resident, 0u);
}

TEST(ViewCacheTest, InvalidateAllDropsEverythingAndAllowsFreshData) {
  ViewCache cache;
  auto shape = CubeShape::Make({8, 8});
  ASSERT_TRUE(shape.ok());
  const std::vector<ElementId> ids = PyramidIds(*shape, 6);

  for (const ElementId& id : ids) cache.Insert(id, MakeTensor(4, 1.0), 3);
  // An in-flight reader's handle must survive the flush.
  auto held = cache.Lookup(ids[0]);
  ASSERT_NE(held, nullptr);

  EXPECT_EQ(cache.InvalidateAll(), 6u);
  EXPECT_EQ(cache.Metrics().entries, 0u);
  EXPECT_EQ(cache.Metrics().bytes_resident, 0u);
  EXPECT_EQ(cache.Metrics().invalidations, 6u);
  for (const ElementId& id : ids) EXPECT_EQ(cache.Lookup(id), nullptr);
  EXPECT_EQ((*held)[0], 1.0);  // old handle still fully readable

  // Post-flush inserts are new entries with the new data, not revivals.
  auto fresh = cache.Insert(ids[0], MakeTensor(4, 2.0), 3);
  EXPECT_NE(fresh.get(), held.get());
  EXPECT_EQ((*cache.Lookup(ids[0]))[0], 2.0);
}

TEST(ViewCacheTest, TargetedInvalidateDropsOnlyThatEntry) {
  ViewCache cache;
  auto shape = CubeShape::Make({8, 8});
  ASSERT_TRUE(shape.ok());
  const std::vector<ElementId> ids = PyramidIds(*shape, 2);
  cache.Insert(ids[0], MakeTensor(4, 1.0), 1);
  cache.Insert(ids[1], MakeTensor(4, 2.0), 1);
  cache.Invalidate(ids[0]);
  EXPECT_EQ(cache.Lookup(ids[0]), nullptr);
  EXPECT_NE(cache.Lookup(ids[1]), nullptr);
  EXPECT_EQ(cache.Metrics().invalidations, 1u);
}

// ---------------------------------------------------------------------------
// Single-flight: miss coalescing, abort/retry, and the flush-epoch guard
// against resurrecting pre-flush fills.

TEST(ViewCacheTest, LookupOrBeginAppointsExactlyOneLeader) {
  ViewCache cache;
  auto shape = CubeShape::Make({8, 8});
  ASSERT_TRUE(shape.ok());
  const ElementId id = PyramidIds(*shape, 1)[0];

  auto outcome = cache.LookupOrBegin(id);
  ASSERT_FALSE(outcome.hit);
  ASSERT_TRUE(outcome.fill.valid());
  EXPECT_TRUE(outcome.fill.leader());

  auto served = cache.CompleteFill(std::move(outcome.fill),
                                   MakeTensor(4, 3.0), /*assembly_cost=*/7);
  ASSERT_NE(served, nullptr);
  EXPECT_EQ((*served)[0], 3.0);

  // Retained: the next lookup is a plain hit, not another flight.
  auto again = cache.LookupOrBegin(id);
  ASSERT_TRUE(again.hit);
  EXPECT_EQ(again.hit.At(uint64_t{0}), 3.0);
  const ServeMetrics metrics = cache.Metrics();
  EXPECT_EQ(metrics.misses, 1u);
  EXPECT_EQ(metrics.insertions, 1u);
  EXPECT_EQ(metrics.hits, 1u);
  EXPECT_EQ(metrics.assembly_ops_executed, 7u);
  EXPECT_EQ(metrics.assembly_ops_saved, 7u);
}

// Regression (flush-epoch tagging): a fill that began before a wholesale
// flush used to be inserted after it, resurrecting a tensor computed
// from pre-delta state. The completed fill must still be served to its
// caller (the answer was correct when the query began) but never
// retained.
TEST(ViewCacheTest, FlushDuringFillServesButDoesNotRetainStaleTensor) {
  ViewCache cache;
  auto shape = CubeShape::Make({8, 8});
  ASSERT_TRUE(shape.ok());
  const ElementId id = PyramidIds(*shape, 1)[0];

  auto outcome = cache.LookupOrBegin(id);
  ASSERT_TRUE(outcome.fill.valid());
  ASSERT_TRUE(outcome.fill.leader());

  // The delta hook fires while the "assembly" is in progress.
  cache.InvalidateAll();

  auto served = cache.CompleteFill(std::move(outcome.fill),
                                   MakeTensor(4, 9.0), /*assembly_cost=*/5);
  ASSERT_NE(served, nullptr);  // the leader still gets its answer
  EXPECT_EQ((*served)[0], 9.0);

  EXPECT_EQ(cache.Lookup(id), nullptr) << "stale fill was retained";
  const ServeMetrics metrics = cache.Metrics();
  EXPECT_EQ(metrics.stale_fills, 1u);
  EXPECT_EQ(metrics.insertions, 0u);
  EXPECT_EQ(metrics.entries, 0u);
  // The leader's work is still accounted as executed ops.
  EXPECT_EQ(metrics.assembly_ops_executed, 5u);
}

TEST(ViewCacheTest, ConcurrentMissesCoalesceOntoOneFill) {
  ViewCache cache;
  auto shape = CubeShape::Make({8, 8});
  ASSERT_TRUE(shape.ok());
  const ElementId id = PyramidIds(*shape, 1)[0];
  constexpr int kFollowers = 8;
  constexpr uint64_t kCost = 40;

  // Main thread takes the leader ticket, then holds the fill open until
  // every follower has joined the flight — fully deterministic.
  auto leader = cache.LookupOrBegin(id);
  ASSERT_TRUE(leader.fill.valid());
  ASSERT_TRUE(leader.fill.leader());

  std::atomic<int> entered{0};
  std::atomic<int> served_ok{0};
  std::vector<std::thread> followers;
  followers.reserve(kFollowers);
  for (int i = 0; i < kFollowers; ++i) {
    followers.emplace_back([&] {
      auto outcome = cache.LookupOrBegin(id);
      ASSERT_TRUE(outcome.fill.valid());
      ASSERT_FALSE(outcome.fill.leader());
      entered.fetch_add(1);
      ViewCache::FillWait wait = cache.WaitFill(outcome.fill);
      if (wait.status.ok() && (*wait.data)[0] == 6.0) served_ok.fetch_add(1);
    });
  }
  while (entered.load() < kFollowers) std::this_thread::yield();
  auto answer =
      cache.CompleteFill(std::move(leader.fill), MakeTensor(4, 6.0), kCost);
  ASSERT_NE(answer, nullptr);
  for (std::thread& follower : followers) follower.join();
  EXPECT_EQ(served_ok.load(), kFollowers);

  const ServeMetrics metrics = cache.Metrics();
  EXPECT_EQ(metrics.misses, 1u) << "followers must not count as misses";
  EXPECT_EQ(metrics.insertions, 1u);
  EXPECT_EQ(metrics.coalesced_hits, static_cast<uint64_t>(kFollowers));
  EXPECT_EQ(metrics.hits, static_cast<uint64_t>(kFollowers));
  EXPECT_EQ(metrics.assembly_ops_executed, kCost);
  EXPECT_EQ(metrics.assembly_ops_saved, kCost * kFollowers);
}

TEST(ViewCacheTest, AbortedFillWakesFollowerToBecomeNextLeader) {
  ViewCache cache;
  auto shape = CubeShape::Make({8, 8});
  ASSERT_TRUE(shape.ok());
  const ElementId id = PyramidIds(*shape, 1)[0];

  auto leader = cache.LookupOrBegin(id);
  ASSERT_TRUE(leader.fill.leader());

  std::atomic<int> entered{0};
  std::thread follower([&] {
    auto outcome = cache.LookupOrBegin(id);
    ASSERT_FALSE(outcome.fill.leader());
    entered.fetch_add(1);
    // The leader aborts: WaitFill surfaces the abort cause (no data) and
    // the retry wins its own leader ticket.
    ViewCache::FillWait wait = cache.WaitFill(outcome.fill);
    EXPECT_EQ(wait.data, nullptr);
    EXPECT_TRUE(wait.status.IsUnavailable()) << wait.status.ToString();
    auto retry = cache.LookupOrBegin(id);
    ASSERT_TRUE(retry.fill.valid());
    ASSERT_TRUE(retry.fill.leader());
    auto served = cache.CompleteFill(std::move(retry.fill),
                                     MakeTensor(4, 2.0), /*assembly_cost=*/3);
    EXPECT_NE(served, nullptr);
  });
  while (entered.load() < 1) std::this_thread::yield();
  cache.AbortFill(std::move(leader.fill));
  follower.join();

  auto hit = cache.Lookup(id);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ((*hit)[0], 2.0);
  const ServeMetrics metrics = cache.Metrics();
  EXPECT_EQ(metrics.misses, 2u);  // two appointed leaders, one aborted
  EXPECT_EQ(metrics.insertions, 1u);
  EXPECT_EQ(metrics.coalesced_hits, 0u);  // the abort served nobody
}

// ---------------------------------------------------------------------------
// Session-level behaviour: bit-exactness and invalidation hooks.

OlapSessionOptions CachedOptions() {
  OlapSessionOptions options;
  options.view_cache.enabled = true;
  return options;
}

TEST(ServeSessionTest, CachedServingIsBitExactAcrossWholeLattice) {
  auto shape = CubeShape::Make({4, 4});
  ASSERT_TRUE(shape.ok());
  Rng rng(11);
  auto cube = UniformIntegerCube(*shape, &rng, -9, 9);
  ASSERT_TRUE(cube.ok());

  auto cached = OlapSession::FromCube(*shape, *cube, CachedOptions());
  auto plain = OlapSession::FromCube(*shape, *cube);
  ASSERT_TRUE(cached.ok());
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE((*cached)->caching());
  ASSERT_FALSE((*plain)->caching());

  const ViewElementGraph graph(*shape);
  for (int pass = 0; pass < 2; ++pass) {
    graph.ForEachElement([&](const ElementId& id) {
      auto from_cache = (*cached)->Element(id);
      auto reference = (*plain)->Element(id);
      ASSERT_TRUE(from_cache.ok());
      ASSERT_TRUE(reference.ok());
      // Bit-exact, not approximate: data() compares doubles exactly.
      EXPECT_EQ(from_cache->data(), reference->data()) << id.ToString();
    });
  }
  const ServeMetrics metrics = (*cached)->serve_metrics();
  EXPECT_GE(metrics.hits, graph.NumElements());  // pass 2 is all hits
  EXPECT_GT(metrics.assembly_ops_saved, 0u);
}

TEST(ServeSessionTest, RepeatViewQueriesAreServedFromCache) {
  auto shape = CubeShape::Make({8, 8});
  ASSERT_TRUE(shape.ok());
  Rng rng(12);
  auto cube = UniformIntegerCube(*shape, &rng, 0, 20);
  ASSERT_TRUE(cube.ok());
  auto session = OlapSession::FromCube(*shape, *cube, CachedOptions());
  ASSERT_TRUE(session.ok());

  auto first = (*session)->ViewByMask(3);
  ASSERT_TRUE(first.ok());
  const uint64_t ops_after_first = (*session)->stats().assembly_ops;
  auto second = (*session)->ViewByMask(3);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->data(), second->data());
  // The repeat spent no assembly ops.
  EXPECT_EQ((*session)->stats().assembly_ops, ops_after_first);
  EXPECT_GE((*session)->serve_metrics().hits, 1u);
}

TEST(ServeSessionTest, RangeQueriesShareTheServingCache) {
  auto shape = CubeShape::Make({16, 16});
  ASSERT_TRUE(shape.ok());
  Rng rng(13);
  auto cube = UniformIntegerCube(*shape, &rng, 0, 9);
  ASSERT_TRUE(cube.ok());
  auto session = OlapSession::FromCube(*shape, *cube, CachedOptions());
  ASSERT_TRUE(session.ok());

  auto range = RangeSpec::Make({1, 2}, {13, 11}, *shape);
  ASSERT_TRUE(range.ok());
  auto first = (*session)->RangeSum(*range);
  ASSERT_TRUE(first.ok());
  const ServeMetrics after_first = (*session)->serve_metrics();
  EXPECT_GT(after_first.insertions, 0u);  // missing intermediates retained

  auto second = (*session)->RangeSum(*range);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);
  const ServeMetrics after_second = (*session)->serve_metrics();
  EXPECT_EQ(after_second.insertions, after_first.insertions);
  EXPECT_GT(after_second.hits, after_first.hits);

  // And the answer is right: naive summation agrees.
  auto naive = NaiveRangeSum(*cube, *shape, *range);
  ASSERT_TRUE(naive.ok());
  EXPECT_NEAR(*first, *naive, 1e-9);
}

TEST(ServeSessionTest, AddFactPatchesCachedAnswers) {
  auto shape = CubeShape::Make({4, 4});
  ASSERT_TRUE(shape.ok());
  Rng rng(14);
  auto cube = UniformIntegerCube(*shape, &rng, 0, 9);
  ASSERT_TRUE(cube.ok());
  auto session = OlapSession::FromCube(*shape, *cube, CachedOptions());
  ASSERT_TRUE(session.ok());

  auto before = (*session)->ViewByMask(3);
  ASSERT_TRUE(before.ok());
  const ServeMetrics warm = (*session)->serve_metrics();
  ASSERT_GT(warm.entries, 0u);
  ASSERT_TRUE((*session)->AddFact({2, 3}, 5.0).ok());
  const ServeMetrics patched = (*session)->serve_metrics();
  EXPECT_EQ(patched.invalidations, 0u);
  EXPECT_EQ(patched.entries, warm.entries);
  EXPECT_EQ(patched.patches, warm.entries);  // one cell per resident entry
  EXPECT_EQ(patched.compactions, 0u);

  auto after = (*session)->ViewByMask(3);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ((*after)[0], (*before)[0] + 5.0);
  // Served from the patched entry, not re-assembled.
  EXPECT_EQ((*session)->serve_metrics().misses, warm.misses);

  // Cross-check against a fresh session over the updated cube.
  Tensor updated = *cube;
  updated[updated.FlatIndex({2, 3})] += 5.0;
  auto fresh = OlapSession::FromCube(*shape, updated);
  ASSERT_TRUE(fresh.ok());
  auto expected = (*fresh)->ViewByMask(3);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(after->data(), expected->data());
}

// A cached and an uncached session over the same optimized store.
struct SessionPair {
  std::unique_ptr<OlapSession> cached;
  std::unique_ptr<OlapSession> plain;

  static SessionPair Make(const CubeShape& shape, const Tensor& cube) {
    Rng wrng(20);
    auto population = ZipfViewPopulation(shape, &wrng, 1.0);
    EXPECT_TRUE(population.ok());
    SessionPair pair;
    auto cached = OlapSession::FromCube(shape, cube, CachedOptions());
    auto plain = OlapSession::FromCube(shape, cube);
    EXPECT_TRUE(cached.ok());
    EXPECT_TRUE(plain.ok());
    pair.cached = std::move(cached).value();
    pair.plain = std::move(plain).value();
    for (OlapSession* s : {pair.cached.get(), pair.plain.get()}) {
      EXPECT_TRUE(s->DeclareWorkload(*population).ok());
      EXPECT_TRUE(s->Optimize().ok());
    }
    return pair;
  }

  // Applies one fact to both sessions.
  void AddFact(const std::vector<uint32_t>& coords, double amount) {
    ASSERT_TRUE(cached->AddFact(coords, amount).ok());
    ASSERT_TRUE(plain->AddFact(coords, amount).ok());
  }
};

std::vector<uint32_t> RandomCoords(const CubeShape& shape, Rng* rng) {
  std::vector<uint32_t> coords(shape.ndim());
  for (uint32_t m = 0; m < shape.ndim(); ++m) {
    coords[m] = static_cast<uint32_t>(rng->UniformU64(shape.extent(m)));
  }
  return coords;
}

// Whole-lattice exactness of write patching: a cached and an uncached
// session take the same integer facts — more than a patch log holds, so
// every cached entry is compacted — interleaved with every element of the
// lattice and random range sums. Integer data keep every sum exact, so
// the answers must be bit-identical.
TEST(ServeSessionTest, PatchedAnswersMatchUncachedAcrossWholeLattice) {
  auto shape = CubeShape::Make({8, 4});
  ASSERT_TRUE(shape.ok());
  Rng rng(19);
  auto cube = UniformIntegerCube(*shape, &rng, -9, 9);
  ASSERT_TRUE(cube.ok());
  SessionPair sessions = SessionPair::Make(*shape, *cube);

  const ViewElementGraph graph(*shape);
  auto compare_lattice = [&] {
    graph.ForEachElement([&](const ElementId& id) {
      auto got = sessions.cached->Element(id);
      auto want = sessions.plain->Element(id);
      ASSERT_TRUE(got.ok());
      ASSERT_TRUE(want.ok());
      EXPECT_EQ(got->data(), want->data()) << id.ToString();
    });
  };
  compare_lattice();
  const ServeMetrics warm = sessions.cached->serve_metrics();
  ASSERT_EQ(warm.entries, graph.NumElements());

  constexpr uint32_t kFacts = 2 * ViewCache::kPatchCapacity + 9;
  for (uint32_t f = 0; f < kFacts; ++f) {
    sessions.AddFact(RandomCoords(*shape, &rng),
                     static_cast<double>(rng.UniformU64(19)) - 9.0);
    std::vector<uint32_t> start = RandomCoords(*shape, &rng);
    std::vector<uint32_t> width(shape->ndim());
    for (uint32_t m = 0; m < shape->ndim(); ++m) {
      width[m] = 1 + static_cast<uint32_t>(
                         rng.UniformU64(shape->extent(m) - start[m]));
    }
    auto range = RangeSpec::Make(start, width, *shape);
    ASSERT_TRUE(range.ok());
    auto got = sessions.cached->RangeSum(*range);
    auto want = sessions.plain->RangeSum(*range);
    auto naive = NaiveRangeSum(sessions.plain->cube(), *shape, *range);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(naive.ok());
    EXPECT_EQ(*got, *want) << range->ToString();
    EXPECT_EQ(*want, *naive) << range->ToString();
    if (f % 8 == 7) compare_lattice();
  }
  compare_lattice();

  const ServeMetrics metrics = sessions.cached->serve_metrics();
  EXPECT_EQ(metrics.invalidations, 0u);
  EXPECT_EQ(metrics.misses, warm.misses) << "a write dropped a cached entry";
  EXPECT_EQ(metrics.entries, warm.entries);
  EXPECT_EQ(metrics.patches, uint64_t{kFacts} * warm.entries);
  EXPECT_EQ(metrics.compactions,
            warm.entries * (kFacts / (ViewCache::kPatchCapacity + 1)));
}

// The float contract (DESIGN.md §10): with non-integer data a patched
// cell and a fresh assembly round differently, but by at most
//   2 (3L + m) u S,
// u = 2^-53, L = Σ_m log2 N_m, m = facts applied, S = Σ|A_0| + Σ|δ_i|.
TEST(ServeSessionTest, PatchedAnswersStayWithinTheFloatBound) {
  auto shape = CubeShape::Make({8, 8});
  ASSERT_TRUE(shape.ok());
  Rng rng(21);
  auto cube = Tensor::Zeros(shape->extents());
  ASSERT_TRUE(cube.ok());
  double l1 = 0.0;
  for (uint64_t i = 0; i < cube->size(); ++i) {
    (*cube)[i] = rng.UniformDouble(-100.0, 100.0);
    l1 += std::abs((*cube)[i]);
  }
  SessionPair sessions = SessionPair::Make(*shape, *cube);
  const ViewElementGraph graph(*shape);
  graph.ForEachElement([&](const ElementId& id) {
    ASSERT_TRUE(sessions.cached->Element(id).ok());
  });

  constexpr uint32_t kFacts = 2 * ViewCache::kPatchCapacity + 9;
  for (uint32_t f = 0; f < kFacts; ++f) {
    const double amount = rng.UniformDouble(-10.0, 10.0);
    l1 += std::abs(amount);
    sessions.AddFact(RandomCoords(*shape, &rng), amount);
  }
  ASSERT_GT(sessions.cached->serve_metrics().compactions, 0u);

  const double levels = 6.0;  // log2 8 + log2 8
  const double bound =
      2.0 * (3.0 * levels + kFacts) * std::ldexp(1.0, -53) * l1;
  double worst = 0.0;
  graph.ForEachElement([&](const ElementId& id) {
    auto got = sessions.cached->Element(id);
    auto want = sessions.plain->Element(id);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(want.ok());
    ASSERT_EQ(got->size(), want->size());
    for (uint64_t i = 0; i < got->size(); ++i) {
      worst = std::max(worst, std::abs((*got)[i] - (*want)[i]));
    }
  });
  EXPECT_LE(worst, bound);
  EXPECT_EQ(sessions.cached->serve_metrics().invalidations, 0u);
}

TEST(ServeSessionTest, OptimizeFlushesTheCache) {
  auto shape = CubeShape::Make({8, 8});
  ASSERT_TRUE(shape.ok());
  Rng rng(15);
  auto cube = UniformIntegerCube(*shape, &rng, 0, 9);
  ASSERT_TRUE(cube.ok());
  auto session = OlapSession::FromCube(*shape, *cube, CachedOptions());
  ASSERT_TRUE(session.ok());

  for (uint32_t mask = 0; mask < 4; ++mask) {
    ASSERT_TRUE((*session)->ViewByMask(mask).ok());
  }
  ASSERT_GT((*session)->serve_metrics().entries, 0u);

  Rng wrng(16);
  auto population = ZipfViewPopulation(*shape, &wrng, 1.0);
  ASSERT_TRUE(population.ok());
  ASSERT_TRUE((*session)->DeclareWorkload(*population).ok());
  ASSERT_TRUE((*session)->Optimize().ok());
  EXPECT_GT((*session)->serve_metrics().invalidations, 0u);

  // Post-flush answers still agree with an uncached session.
  auto plain = OlapSession::FromCube(*shape, *cube);
  ASSERT_TRUE(plain.ok());
  for (uint32_t mask = 0; mask < 4; ++mask) {
    auto got = (*session)->ViewByMask(mask);
    auto expected = (*plain)->ViewByMask(mask);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(got->data(), expected->data());
  }
}

// ---------------------------------------------------------------------------
// Concurrency: readers race inserts and wholesale invalidation. Run under
// TSan by the CI tsan job (suite name matches its -R filter). Tensors are
// version-stamped — every cell equals the version — so a reader can
// detect a torn or partially published tensor without any external
// synchronization with the writer.

TEST(ServeStressTest, ConcurrentReadersSurviveInvalidatingWriter) {
  ViewCacheOptions options;
  options.shards = 4;
  options.capacity_bytes = 1u << 16;
  ViewCache cache(options);
  auto shape_result = CubeShape::Make({8, 8});
  ASSERT_TRUE(shape_result.ok());
  const CubeShape shape = *shape_result;
  const std::vector<ElementId> ids = PyramidIds(shape, 16);

  constexpr int kReaders = 4;
  constexpr int kReaderRounds = 3000;
  constexpr int kWriterRounds = 200;
  std::atomic<uint64_t> version{1};
  std::atomic<int> inconsistencies{0};
  std::atomic<uint64_t> hits{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(0x5e7e + static_cast<uint64_t>(r));
      for (int round = 0; round < kReaderRounds; ++round) {
        const ElementId& id = ids[rng.UniformU64(ids.size())];
        auto tensor = cache.Lookup(id);
        if (tensor == nullptr) {
          const double v = static_cast<double>(version.load());
          tensor = cache.Insert(id, MakeTensor(16, v),
                                /*assembly_cost=*/rng.UniformU64(100));
        } else {
          hits.fetch_add(1, std::memory_order_relaxed);
        }
        // Internal consistency: a handed-out tensor is never torn.
        const double first = (*tensor)[0];
        for (uint64_t i = 1; i < tensor->size(); ++i) {
          if ((*tensor)[i] != first) {
            inconsistencies.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  std::thread writer([&] {
    for (int round = 0; round < kWriterRounds; ++round) {
      version.fetch_add(1);
      cache.InvalidateAll();
      std::this_thread::yield();
    }
  });
  for (std::thread& reader : readers) reader.join();
  writer.join();

  EXPECT_EQ(inconsistencies.load(), 0);
  EXPECT_GT(hits.load(), 0u);
  // Counters survived the races coherently: resident set within budget.
  const ServeMetrics metrics = cache.Metrics();
  EXPECT_LE(metrics.bytes_resident, options.capacity_bytes);
  EXPECT_EQ(metrics.hits, hits.load());
}

// Readers on all three hit paths race a writer that patches every entry
// through more than two compactions. Every copy a reader gets must be the
// base plus a prefix of the delta sequence — fresh assemblies of the
// element after j facts, for one j — and a reader's j for an element
// never goes back. Integer deltas keep the prefixes exact.
TEST(ServeStressTest, ReadersSeeAPrefixOfConcurrentPatches) {
  auto shape_result = CubeShape::Make({8, 8});
  ASSERT_TRUE(shape_result.ok());
  const CubeShape shape = *shape_result;
  const std::vector<ElementId> ids = PyramidIds(shape, 8);
  Rng rng(0xfac7);
  auto cube = UniformIntegerCube(shape, &rng, -9, 9);
  ASSERT_TRUE(cube.ok());

  constexpr uint32_t kDeltas = 2 * ViewCache::kPatchCapacity + 9;
  std::vector<std::vector<uint32_t>> coords(kDeltas);
  std::vector<double> deltas(kDeltas);
  for (uint32_t j = 0; j < kDeltas; ++j) {
    coords[j] = {static_cast<uint32_t>(rng.UniformU64(8)),
                 static_cast<uint32_t>(rng.UniformU64(8))};
    deltas[j] = static_cast<double>(rng.UniformU64(9)) - 4.0;
  }
  // prefix[i][j]: element ids[i] of the cube after the first j deltas.
  std::vector<std::vector<Tensor>> prefix(ids.size());
  Tensor updated = *cube;
  for (uint32_t j = 0; j <= kDeltas; ++j) {
    ElementComputer computer(shape, &updated);
    for (size_t i = 0; i < ids.size(); ++i) {
      auto element = computer.Compute(ids[i]);
      ASSERT_TRUE(element.ok());
      prefix[i].push_back(std::move(element).value());
    }
    if (j < kDeltas) updated[updated.FlatIndex(coords[j])] += deltas[j];
  }

  ViewCacheOptions options;
  options.shards = 4;
  ViewCache cache(options);
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_NE(cache.Insert(ids[i], prefix[i][0], /*assembly_cost=*/5),
              nullptr);
  }

  constexpr int kReaders = 3;
  constexpr int kMinReaderRounds = 300;
  std::atomic<bool> writer_done{false};
  std::atomic<int> violations{0};
  std::atomic<uint64_t> lookups{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Rng reader_rng(0x9ead + static_cast<uint64_t>(r));
      std::vector<uint32_t> seen(ids.size(), 0);
      for (int round = 0;
           round < kMinReaderRounds || !writer_done.load(); ++round) {
        const size_t i = reader_rng.UniformU64(ids.size());
        Tensor copy;
        if (round % 3 == 2) {
          std::shared_ptr<const Tensor> shared = cache.Lookup(ids[i]);
          if (shared == nullptr) {
            violations.fetch_add(1);
            continue;
          }
          copy = *shared;
        } else {
          ViewCache::ReadHandle handle =
              round % 3 == 0 ? std::move(cache.LookupOrBegin(ids[i]).hit)
                             : cache.LookupPinned(ids[i]);
          if (!handle) {
            violations.fetch_add(1);
            continue;
          }
          copy = handle.CopyOut();
          // At() reads the same snapshot, cell for cell.
          for (uint64_t c = 0; c < copy.size(); ++c) {
            if (handle.At(c) != copy[c]) {
              violations.fetch_add(1);
              break;
            }
          }
        }
        lookups.fetch_add(1, std::memory_order_relaxed);
        uint32_t j = seen[i];
        while (j <= kDeltas && prefix[i][j].data() != copy.data()) ++j;
        if (j > kDeltas) {
          violations.fetch_add(1);
        } else {
          seen[i] = j;
        }
      }
    });
  }
  std::thread writer([&] {
    for (uint32_t j = 0; j < kDeltas; ++j) {
      EXPECT_TRUE(cache.ApplyPointDelta(shape, coords[j], deltas[j]).ok());
      std::this_thread::yield();
    }
    writer_done.store(true);
  });
  writer.join();
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(violations.load(), 0);
  for (size_t i = 0; i < ids.size(); ++i) {
    std::shared_ptr<const Tensor> final_value = cache.Lookup(ids[i]);
    ASSERT_NE(final_value, nullptr);
    EXPECT_EQ(final_value->data(), prefix[i][kDeltas].data());
  }
  // Compaction keeps every entry resident and every hit counted.
  const ServeMetrics metrics = cache.Metrics();
  EXPECT_EQ(metrics.hits, lookups.load() + ids.size());
  EXPECT_EQ(metrics.misses, 0u);
  EXPECT_EQ(metrics.invalidations, 0u);
  EXPECT_EQ(metrics.evictions, 0u);
  EXPECT_EQ(metrics.entries, ids.size());
  EXPECT_EQ(metrics.patches, uint64_t{kDeltas} * ids.size());
  EXPECT_EQ(metrics.compactions,
            ids.size() * (kDeltas / (ViewCache::kPatchCapacity + 1)));
}

// The stale-fill rule holds for writes as it does for flushes: a leader
// stalled (serve.fill kDelay) across ApplyPointDelta assembled pre-write
// data, so its answer is served to it but not retained.
TEST(ServeStressTest, FillStalledAcrossAWriteIsServedNotRetained) {
  auto shape_result = CubeShape::Make({8, 8});
  ASSERT_TRUE(shape_result.ok());
  const CubeShape shape = *shape_result;
  Rng rng(0x57a1e);
  auto cube = UniformIntegerCube(shape, &rng, -9, 9);
  ASSERT_TRUE(cube.ok());
  ElementStore store(shape);
  ASSERT_TRUE(store.Put(ElementId::Root(shape.ndim()), *cube).ok());
  auto id = ElementId::AggregatedView(1, shape);
  ASSERT_TRUE(id.ok());
  AssemblyEngine reference(&store);
  auto pre_write = reference.Assemble(*id);
  ASSERT_TRUE(pre_write.ok());
  ViewCache cache;

  FailpointAction delay;
  delay.kind = FailpointAction::Kind::kDelay;
  delay.delay_ms = 200;
  Failpoints::Arm("serve.fill", delay);
  std::thread leader([&] {
    AssemblyEngine engine(&store);
    ElementServer server(&engine, &store, &cache);
    auto answer = server.Serve(*id, QueryContext());
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_EQ(answer->data.data(), pre_write->data());
  });
  // The leader's ticket is taken once its miss is counted; the stall
  // comes after, so this write lands mid-fill.
  while (cache.Metrics().misses < 1) std::this_thread::yield();
  ASSERT_TRUE(cache.ApplyPointDelta(shape, {1, 2}, 4.0).ok());
  leader.join();
  Failpoints::DisarmAll();

  const ServeMetrics metrics = cache.Metrics();
  EXPECT_EQ(metrics.stale_fills, 1u);
  EXPECT_EQ(metrics.insertions, 0u);
  EXPECT_EQ(metrics.entries, 0u);
  EXPECT_EQ(cache.Lookup(*id), nullptr) << "pre-write fill was retained";
}

// The serving accounting identity: every query either pays its assembly
// cost exactly once (leader fill) or saves it exactly once (hit /
// coalesced follower), so
//
//   ops_saved + ops_executed == Σ per-query cost   (the uncached baseline)
//
// at EVERY thread count — and with single-flight coalescing and no
// eviction pressure, ops_executed itself is thread-count-invariant:
// concurrency changes who assembles, never how much is assembled.
TEST(ServeStressTest, AccountingIdentityHoldsAtEveryThreadCount) {
  auto shape_result = CubeShape::Make({8, 8});
  ASSERT_TRUE(shape_result.ok());
  const std::vector<ElementId> ids = PyramidIds(*shape_result, 8);
  const auto cost_of = [](size_t i) -> uint64_t {
    return 10 * (static_cast<uint64_t>(i) + 1);
  };

  // Deterministic skewed query sequence, shared by every run.
  constexpr uint64_t kQueries = 4000;
  Rng seq_rng(0xacc7);
  std::vector<size_t> sequence(kQueries);
  uint64_t baseline_ops = 0;
  for (uint64_t q = 0; q < kQueries; ++q) {
    const size_t pick =
        std::min(seq_rng.UniformU64(ids.size()), seq_rng.UniformU64(ids.size()));
    sequence[q] = pick;
    baseline_ops += cost_of(pick);
  }

  uint64_t executed_single_threaded = 0;
  for (const uint32_t threads : {1u, 8u}) {
    ViewCache cache;  // default capacity: no evictions for 8 tiny entries
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (uint32_t w = 0; w < threads; ++w) {
      workers.emplace_back([&, w] {
        const uint64_t lo = kQueries * w / threads;
        const uint64_t hi = kQueries * (w + 1) / threads;
        for (uint64_t q = lo; q < hi; ++q) {
          const size_t pick = sequence[q];
          for (;;) {
            auto outcome = cache.LookupOrBegin(ids[pick]);
            if (outcome.hit) break;
            if (!outcome.fill.leader()) {
              if (!cache.WaitFill(outcome.fill).status.ok()) continue;
              break;
            }
            auto served =
                cache.CompleteFill(std::move(outcome.fill),
                                   MakeTensor(4, 1.0), cost_of(pick));
            ASSERT_NE(served, nullptr);
            break;
          }
        }
      });
    }
    for (std::thread& worker : workers) worker.join();

    const ServeMetrics metrics = cache.Metrics();
    EXPECT_EQ(metrics.evictions, 0u);
    EXPECT_EQ(metrics.hits + metrics.misses, kQueries);
    EXPECT_EQ(metrics.assembly_ops_saved + metrics.assembly_ops_executed,
              baseline_ops)
        << "accounting identity broken at " << threads << " threads";
    if (threads == 1) {
      executed_single_threaded = metrics.assembly_ops_executed;
      EXPECT_EQ(metrics.coalesced_hits, 0u);
    } else {
      EXPECT_EQ(metrics.assembly_ops_executed, executed_single_threaded)
          << "misses not coalesced: assembled work grew with concurrency";
    }
  }
}

// ---------------------------------------------------------------------------
// Shared answers: an unpatched hit, a follower wait and a leader fill
// hand out the cached tensor itself instead of a copy. Cached tensors are
// never written once published, so such an answer is the snapshot taken
// at lookup, whatever happens to its entry afterwards.

// An 8x8 integer cube stored as its root, and the same cube after
// A[coords] += delta, with a reference engine over each.
struct AnswerFixture {
  CubeShape shape;
  Tensor cube;
  ElementStore store;

  static AnswerFixture Make() {
    auto shape = CubeShape::Make({8, 8});
    EXPECT_TRUE(shape.ok());
    Rng rng(0x5a4ed);
    auto cube = UniformIntegerCube(*shape, &rng, -9, 9);
    EXPECT_TRUE(cube.ok());
    AnswerFixture fixture{*shape, *cube, ElementStore(*shape)};
    EXPECT_TRUE(
        fixture.store.Put(ElementId::Root(shape->ndim()), *cube).ok());
    return fixture;
  }

  [[nodiscard]] ElementId View(uint32_t mask) const {
    auto id = ElementId::AggregatedView(mask, shape);
    EXPECT_TRUE(id.ok());
    return *id;
  }

  // `id` assembled from the cube after A[coords] += delta.
  [[nodiscard]] Tensor AfterDelta(const ElementId& id,
                                  const std::vector<uint32_t>& coords,
                                  double delta) const {
    Tensor updated = cube;
    updated[updated.FlatIndex(coords)] += delta;
    ElementStore after(shape);
    EXPECT_TRUE(after.Put(ElementId::Root(shape.ndim()), updated).ok());
    AssemblyEngine engine(&after);
    auto assembled = engine.Assemble(id);
    EXPECT_TRUE(assembled.ok());
    return std::move(assembled).value();
  }
};

TEST(ServeAnswerTest, SharedAnswerOutlivesEveryChangeToItsEntry) {
  AnswerFixture fixture = AnswerFixture::Make();
  const ElementId id = fixture.View(1);
  const ElementId other = fixture.View(2);
  AssemblyEngine reference(&fixture.store);
  auto exact = reference.Assemble(id);
  ASSERT_TRUE(exact.ok());
  const uint64_t bytes = exact->size() * sizeof(double);

  enum class Change { kInvalidate, kInvalidateAll, kEvict, kDeltas };
  for (const Change change : {Change::kInvalidate, Change::kInvalidateAll,
                              Change::kEvict, Change::kDeltas}) {
    SCOPED_TRACE(static_cast<int>(change));
    ViewCacheOptions options;
    options.shards = 1;
    options.capacity_bytes = bytes;  // room for exactly one such view
    ViewCache cache(options);
    AssemblyEngine engine(&fixture.store);
    ElementServer server(&engine, &fixture.store, &cache);
    auto filled = server.Serve(id);
    auto hit = server.Serve(id);
    ASSERT_TRUE(filled.ok() && hit.ok());
    ASSERT_TRUE(filled->data.shared()) << "a leader fill shares its tensor";
    ASSERT_TRUE(hit->data.shared()) << "an unpatched hit shares its tensor";
    EXPECT_EQ(&filled->data.get(), &hit->data.get());

    switch (change) {
      case Change::kInvalidate:
        cache.Invalidate(id);
        break;
      case Change::kInvalidateAll:
        EXPECT_EQ(cache.InvalidateAll(), 1u);
        break;
      case Change::kEvict:
        ASSERT_NE(cache.Insert(other, *exact, /*assembly_cost=*/1 << 20),
                  nullptr);
        EXPECT_EQ(cache.Metrics().evictions, 1u);
        break;
      case Change::kDeltas:
        // Past the log's capacity, so the entry is compacted too.
        for (uint32_t i = 0; i <= ViewCache::kPatchCapacity; ++i) {
          ASSERT_TRUE(cache.ApplyPointDelta(fixture.shape, {i % 8, 3}, 1.0)
                          .ok());
        }
        EXPECT_EQ(cache.Metrics().compactions, 1u);
        break;
    }
    // Churn the cache so retired entries are reclaimed, then read.
    for (int round = 0; round < 4; ++round) {
      cache.Invalidate(other);
      ASSERT_NE(cache.Insert(other, *exact, 1), nullptr);
    }
    EXPECT_EQ(filled->data.data(), exact->data());
    EXPECT_EQ(hit->data.data(), exact->data());
  }
}

TEST(ServeAnswerTest, HitOnPatchedEntryReturnsPatchedValues) {
  AnswerFixture fixture = AnswerFixture::Make();
  const ElementId id = fixture.View(1);
  ViewCache cache;
  AssemblyEngine engine(&fixture.store);
  ElementServer server(&engine, &fixture.store, &cache);
  auto before = server.Serve(id);
  ASSERT_TRUE(before.ok());

  ASSERT_TRUE(cache.ApplyPointDelta(fixture.shape, {5, 2}, 7.0).ok());
  auto patched = server.Serve(id);
  ASSERT_TRUE(patched.ok());
  EXPECT_EQ(patched->ops, 0u) << "served from the patched entry";
  EXPECT_FALSE(patched->data.shared()) << "a patched hit owns its copy";
  EXPECT_EQ(patched->data.data(),
            fixture.AfterDelta(id, {5, 2}, 7.0).data());
  AssemblyEngine reference(&fixture.store);
  EXPECT_EQ(before->data.data(), reference.Assemble(id)->data())
      << "the earlier shared answer moved with the delta";
}

TEST(ServeAnswerTest, TakeMovesOwnedAndCopiesShared) {
  Tensor owned = MakeTensor(16, 3.0);
  const double* owned_cells = owned.raw();
  AnswerTensor owned_answer(std::move(owned));
  EXPECT_FALSE(owned_answer.shared());
  const Tensor taken = std::move(owned_answer).Take();
  EXPECT_EQ(taken.raw(), owned_cells) << "an owned tensor must be moved";

  auto cached = std::make_shared<const Tensor>(MakeTensor(16, 5.0));
  AnswerTensor shared_answer(cached);
  EXPECT_TRUE(shared_answer.shared());
  EXPECT_EQ(shared_answer.get().raw(), cached->raw());
  const Tensor copy = std::move(shared_answer).Take();
  EXPECT_NE(copy.raw(), cached->raw()) << "a shared tensor must be copied";
  EXPECT_EQ(copy.data(), cached->data());
  EXPECT_EQ(cached.use_count(), 2) << "the answer still holds its share";
}

// A cacheless fill owns its tensor (Take moves it out), and
// OlapSession::Element hands every caller a tensor of its own: writing
// to one leaves the cached answer untouched.
TEST(ServeAnswerTest, ElementReturnsTheCallersOwnTensor) {
  AnswerFixture fixture = AnswerFixture::Make();
  const ElementId id = fixture.View(1);
  AssemblyEngine engine(&fixture.store);
  ElementServer direct(&engine, &fixture.store, /*cache=*/nullptr);
  auto uncached = direct.Serve(id);
  ASSERT_TRUE(uncached.ok());
  EXPECT_FALSE(uncached->data.shared());

  auto session = OlapSession::FromCube(fixture.shape, fixture.cube,
                                       CachedOptions());
  ASSERT_TRUE(session.ok());
  auto first = (*session)->Element(id);
  auto second = (*session)->Element(id);
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_NE(first->raw(), second->raw()) << "hits must not alias";
  EXPECT_EQ(first->data(), uncached->data.data());
  EXPECT_EQ(second->data(), uncached->data.data());
  (*second)[0] += 1.0;  // the caller's own copy: the cache is untouched
  auto third = (*session)->Element(id);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->data(), uncached->data.data());
}

// Four workers serving hits through one AdmissionController and one
// ViewCache, each answer shared with the cache: every Serve call is one
// hit or one miss, and every call's plan cost is saved or spent exactly
// once.
TEST(ServeAnswerStressTest, SharedHitLoopKeepsAccountingIdentities) {
  constexpr uint32_t kThreads = 4;
  constexpr uint64_t kCallsPerThread = 2000;
  AnswerFixture fixture = AnswerFixture::Make();
  const std::vector<ElementId> views = {fixture.View(0), fixture.View(1),
                                        fixture.View(2), fixture.View(3)};
  std::vector<Tensor> expected;
  AssemblyEngine reference(&fixture.store);
  for (const ElementId& view : views) {
    auto exact = reference.Assemble(view);
    ASSERT_TRUE(exact.ok());
    expected.push_back(std::move(exact).value());
  }
  ViewCache cache;
  AdmissionOptions admission_options;
  admission_options.max_inflight = 2;
  admission_options.max_queue = kThreads;  // every arrival can queue
  AdmissionController admission(admission_options);

  std::vector<uint64_t> calls(kThreads, 0);
  std::vector<uint64_t> plan_cost(kThreads, 0);
  std::vector<uint64_t> wrong(kThreads, 0);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (uint32_t w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      AssemblyEngine engine(&fixture.store);
      ElementServer server(&engine, &fixture.store, &cache);
      for (uint64_t i = 0; i < kCallsPerThread; ++i) {
        const size_t v = (w + i) % views.size();
        auto permit = admission.Admit();
        ASSERT_TRUE(permit.ok()) << permit.status().ToString();
        auto answer = server.Serve(views[v]);
        permit->Release();
        ASSERT_TRUE(answer.ok()) << answer.status().ToString();
        ++calls[w];
        plan_cost[w] += engine.PlanCost(views[v]);
        if (answer->data.data() != expected[v].data()) ++wrong[w];
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  uint64_t total_calls = 0;
  uint64_t total_cost = 0;
  for (uint32_t w = 0; w < kThreads; ++w) {
    total_calls += calls[w];
    total_cost += plan_cost[w];
    EXPECT_EQ(wrong[w], 0u) << "worker " << w << " read a wrong answer";
  }
  EXPECT_EQ(total_calls, kThreads * kCallsPerThread);
  const ServeMetrics metrics = cache.Metrics();
  EXPECT_EQ(metrics.hits + metrics.misses, total_calls);
  EXPECT_EQ(metrics.assembly_ops_saved + metrics.assembly_ops_executed,
            total_cost);
  const AdmissionMetrics admitted = admission.Metrics();
  EXPECT_EQ(admitted.admitted, total_calls);
  EXPECT_EQ(admitted.inflight, 0u);
  EXPECT_EQ(admitted.queued, 0u);
}

// ---------------------------------------------------------------------------
// Reconfiguration (OlapSession's adaptation loop) is the serving layer's
// other flush source. A FAILED reconfiguration (injected via the
// dynamic.reconfigure failpoint) must leave the cache untouched — no
// flush, no lost entries; a successful one must flush and keep answers
// bit-exact.

TEST(DynamicServeTest, FailedReconfigureLeavesCacheIntactThenFlushWorks) {
  auto shape_result = CubeShape::Make({4, 4});
  ASSERT_TRUE(shape_result.ok());
  const CubeShape shape = *shape_result;
  Rng rng(17);
  auto cube = UniformIntegerCube(shape, &rng, -9, 9);
  ASSERT_TRUE(cube.ok());

  OlapSessionOptions options;
  options.view_cache.enabled = true;
  options.drift_threshold = 0.5;
  options.min_queries_between_reconfigs = 1000;  // no auto attempts
  auto session = OlapSession::FromCube(shape, *cube, options);
  ASSERT_TRUE(session.ok());

  auto view = ElementId::AggregatedView(0b11, shape);
  ASSERT_TRUE(view.ok());
  ElementComputer computer(shape, &*cube);
  auto expected = computer.Compute(*view);
  ASSERT_TRUE(expected.ok());

  ASSERT_TRUE((*session)->Element(*view).ok());  // leader fill
  ASSERT_TRUE((*session)->Element(*view).ok());  // hit
  const ServeMetrics before = (*session)->serve_metrics();
  EXPECT_EQ(before.insertions, 1u);
  EXPECT_GE(before.hits, 1u);

  Failpoints::Arm("dynamic.reconfigure", FailpointAction{});
  EXPECT_FALSE((*session)->Optimize().ok());
  Failpoints::DisarmAll();

  // Nothing was flushed: the entry is still resident and still serves.
  const ServeMetrics after_failure = (*session)->serve_metrics();
  EXPECT_EQ(after_failure.invalidations, 0u);
  EXPECT_EQ(after_failure.entries, before.entries);
  auto still_cached = (*session)->Element(*view);
  ASSERT_TRUE(still_cached.ok());
  EXPECT_EQ(still_cached->data(), expected->data());
  EXPECT_GT((*session)->serve_metrics().hits, after_failure.hits);

  // A successful reconfiguration flushes, and post-flush answers are
  // re-assembled bit-exactly from the migrated store.
  ASSERT_TRUE((*session)->Optimize().ok());
  EXPECT_GT((*session)->serve_metrics().invalidations, 0u);
  auto after_flush = (*session)->Element(*view);
  ASSERT_TRUE(after_flush.ok());
  EXPECT_EQ(after_flush->data(), expected->data());
}

// ---------------------------------------------------------------------------
// Buffered access history: Record() is off the hit path; the tracker lags
// until a drain and then matches eager recording exactly.

TEST(ServeSessionTest, AccessHistoryBuffersAndDrainsToEagerState) {
  auto shape_result = CubeShape::Make({4, 4});
  ASSERT_TRUE(shape_result.ok());
  const CubeShape shape = *shape_result;
  Rng rng(18);
  auto cube = UniformIntegerCube(shape, &rng, 0, 9);
  ASSERT_TRUE(cube.ok());
  auto session = OlapSession::FromCube(shape, *cube, CachedOptions());
  ASSERT_TRUE(session.ok());

  const std::vector<uint32_t> masks = {3, 3, 1, 2, 3, 1, 3, 3, 2, 3};
  for (const uint32_t mask : masks) {
    ASSERT_TRUE((*session)->ViewByMask(mask).ok());
  }
  // The hit path buffered the records instead of touching the tracker.
  EXPECT_EQ((*session)->buffered_accesses(), masks.size());
  EXPECT_EQ((*session)->access_tracker().total_accesses(), 0u);

  (*session)->DrainAccessHistory();
  EXPECT_EQ((*session)->buffered_accesses(), 0u);
  EXPECT_EQ((*session)->access_tracker().total_accesses(), masks.size());

  // Drained state is identical to eager recording of the same sequence
  // (single-threaded: one stripe, order preserved).
  AccessTracker eager(OlapSessionOptions{}.access_decay);
  for (const uint32_t mask : masks) {
    auto id = ElementId::AggregatedView(mask, shape);
    ASSERT_TRUE(id.ok());
    eager.Record(*id);
  }
  const auto drained_dist = (*session)->access_tracker().Distribution();
  const auto eager_dist = eager.Distribution();
  ASSERT_EQ(drained_dist.size(), eager_dist.size());
  for (size_t i = 0; i < drained_dist.size(); ++i) {
    EXPECT_EQ(drained_dist[i].first, eager_dist[i].first);
    EXPECT_DOUBLE_EQ(drained_dist[i].second, eager_dist[i].second);
  }

  // Optimize() drains implicitly: observed traffic is complete without an
  // explicit drain call.
  for (const uint32_t mask : masks) {
    ASSERT_TRUE((*session)->ViewByMask(mask).ok());
  }
  EXPECT_GT((*session)->buffered_accesses(), 0u);
  ASSERT_TRUE((*session)->Optimize().ok());
  EXPECT_EQ((*session)->buffered_accesses(), 0u);
  EXPECT_EQ((*session)->access_tracker().total_accesses(), 2 * masks.size());
}

}  // namespace
}  // namespace vecube
