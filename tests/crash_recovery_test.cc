// Crash-consistency proof by exhaustive failpoint enumeration.
//
// A clean durable session lifecycle (create, add facts, checkpoint, add
// more facts) is traced once to enumerate every (failpoint, hit-index)
// pair the durability layer executes. Then, for each pair, the same
// lifecycle runs with an injected EIO at exactly that point — simulating
// a crash there, since the partial on-disk state is identical — the
// in-memory session is abandoned, and recovery must reproduce exactly
// the facts that were acknowledged: every acked fact present (the WAL
// made it durable before apply), every unacked fact absent, the whole
// state bit-exact and invariant-clean. No failpoint escapes coverage.
//
// VECUBE_SOAK_ITERS (env) repeats the sweep with fresh data seeds; the
// CI soak job uses it.

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "api/session.h"
#include "core/computer.h"
#include "cube/synthetic.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace vecube {
namespace {

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

OlapSessionOptions DurableOptions(const std::string& dir) {
  OlapSessionOptions options;
  options.durability.enabled = true;
  options.durability.directory = dir;
  options.verify_invariants = true;
  options.num_threads = 1;
  return options;
}

void WipeDir(const std::string& dir) {
  ::mkdir(dir.c_str(), 0755);
  for (const char* file :
       {"store.vecube", "cube.vecube", "store.count.vecube",
        "cube.count.vecube", "wal.log", "wal.log.tmp", "store.vecube.tmp",
        "cube.vecube.tmp"}) {
    std::remove((dir + "/" + file).c_str());
  }
}

Tensor MakeIntegerCube(const CubeShape& shape, uint64_t seed) {
  Rng rng(seed);
  auto cube = UniformIntegerCube(shape, &rng, -20, 20);
  EXPECT_TRUE(cube.ok());
  return std::move(cube).value();
}

const std::vector<std::pair<std::vector<uint32_t>, double>>& Facts() {
  static const std::vector<std::pair<std::vector<uint32_t>, double>> facts =
      {{{1, 2}, 5.0},  {{7, 3}, -2.0}, {{0, 0}, 11.0},
       {{1, 2}, 3.0},  {{4, 1}, -7.0}};
  return facts;
}

// One durable lifecycle: create the session (initial checkpoint), add
// facts 0-2, checkpoint, add facts 3-4. Accumulates every *acknowledged*
// fact into `acked_cube` (which starts as the base cube) — the contract
// is that exactly those survive a crash. Returns false if the session
// could not even be created.
bool RunLifecycle(const std::string& dir, const CubeShape& shape,
                  Tensor* acked_cube) {
  auto session = OlapSession::FromCube(shape, *acked_cube,
                                       DurableOptions(dir));
  if (!session.ok()) return false;
  const auto& facts = Facts();
  auto add = [&](size_t i) {
    if ((*session)->AddFact(facts[i].first, facts[i].second).ok()) {
      (*acked_cube)[acked_cube->FlatIndex(facts[i].first)] +=
          facts[i].second;
    }
  };
  add(0);
  add(1);
  add(2);
  (void)(*session)->Checkpoint();  // allowed to fail under injection
  add(3);
  add(4);
  return true;
}

void ExpectRecoveredExactly(const std::string& dir, const Tensor& acked_cube,
                            const std::string& context) {
  auto reopened = OlapSession::OpenDurable(DurableOptions(dir));
  ASSERT_TRUE(reopened.ok())
      << context << ": " << reopened.status().ToString();
  const Tensor& got = (*reopened)->cube();
  ASSERT_EQ(got.size(), acked_cube.size()) << context;
  for (uint64_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], acked_cube[i]) << context << " cell " << i;
  }
  // The store serves the same answers (grand total via assembly).
  auto total = (*reopened)->ViewByMask(0b11);
  ASSERT_TRUE(total.ok()) << context;
  double want = 0.0;
  for (uint64_t i = 0; i < acked_cube.size(); ++i) want += acked_cube[i];
  ASSERT_EQ((*total)[0], want) << context;
}

class CrashRecoveryTest : public ::testing::Test {
 protected:
  void TearDown() override {
    Failpoints::DisarmAll();
    Failpoints::StopTrace();
  }
};

TEST_F(CrashRecoveryTest, EveryFailpointHitIsCrashConsistent) {
  auto shape = CubeShape::Make({8, 4});
  ASSERT_TRUE(shape.ok());
  const std::string dir = TempPath("crash_sweep");

  long soak_iters = 1;  // NOLINT(google-runtime-int)
  if (const char* env = std::getenv("VECUBE_SOAK_ITERS")) {
    soak_iters = std::max(1L, std::atol(env));
  }

  for (long iter = 0; iter < soak_iters; ++iter) {  // NOLINT
    const uint64_t seed = 100 + static_cast<uint64_t>(iter);

    // Pass 1: trace a clean lifecycle to enumerate every failpoint hit.
    WipeDir(dir);
    Tensor clean_cube = MakeIntegerCube(*shape, seed);
    Failpoints::StartTrace();
    ASSERT_TRUE(RunLifecycle(dir, *shape, &clean_cube));
    Failpoints::StopTrace();
    const auto trace = Failpoints::TraceCounts();
    ASSERT_FALSE(trace.empty());
    // The clean run itself must recover bit-exactly.
    ExpectRecoveredExactly(dir, clean_cube, "clean run");
    uint64_t total_hits = 0;
    for (const auto& [name, hits] : trace) total_hits += hits;
    ASSERT_GE(total_hits, 10u) << "durability layer lost instrumentation?";

    // Pass 2: crash at every (failpoint, hit-index) and prove recovery.
    for (const auto& [name, hits] : trace) {
      for (uint64_t hit = 0; hit < hits; ++hit) {
        const std::string context = name + " hit#" + std::to_string(hit) +
                                    " iter " + std::to_string(iter);
        WipeDir(dir);
        Tensor acked = MakeIntegerCube(*shape, seed);
        Failpoints::Arm(name, FailpointAction{}, /*skip=*/hit);
        const bool created = RunLifecycle(dir, *shape, &acked);
        Failpoints::DisarmAll();
        if (!created) {
          // The "crash" hit the very first checkpoint: the session never
          // existed and no fact was ever acknowledged, so there is
          // nothing recovery must preserve. It must still fail cleanly
          // rather than fabricate state, if it fails.
          auto reopened = OlapSession::OpenDurable(DurableOptions(dir));
          if (reopened.ok()) {
            const Tensor& got = (*reopened)->cube();
            for (uint64_t i = 0; i < got.size(); ++i) {
              ASSERT_EQ(got[i], acked[i]) << context << " cell " << i;
            }
          }
          continue;
        }
        ExpectRecoveredExactly(dir, acked, context);
      }
    }
  }
}

TEST_F(CrashRecoveryTest, ShortWriteCrashesAreRecoveredToo) {
  // Same sweep idea, but the injected failure leaves torn bytes on disk
  // (a real mid-write crash) instead of a clean EIO. One torn variant per
  // failpoint name suffices: the torn-tail handling is byte-count
  // agnostic.
  auto shape = CubeShape::Make({8, 4});
  ASSERT_TRUE(shape.ok());
  const std::string dir = TempPath("crash_torn");

  WipeDir(dir);
  Tensor clean_cube = MakeIntegerCube(*shape, 55);
  Failpoints::StartTrace();
  ASSERT_TRUE(RunLifecycle(dir, *shape, &clean_cube));
  Failpoints::StopTrace();
  const auto trace = Failpoints::TraceCounts();

  for (const auto& [name, hits] : trace) {
    for (uint64_t hit = 0; hit < hits; ++hit) {
      const std::string context = "torn " + name + " hit#" +
                                  std::to_string(hit);
      WipeDir(dir);
      Tensor acked = MakeIntegerCube(*shape, 55);
      FailpointAction torn;
      torn.kind = FailpointAction::Kind::kShortWrite;
      torn.short_bytes = 3;
      Failpoints::Arm(name, torn, /*skip=*/hit);
      const bool created = RunLifecycle(dir, *shape, &acked);
      Failpoints::DisarmAll();
      if (!created) {
        auto reopened = OlapSession::OpenDurable(DurableOptions(dir));
        if (reopened.ok()) {
          const Tensor& got = (*reopened)->cube();
          for (uint64_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i], acked[i]) << context << " cell " << i;
          }
        }
        continue;
      }
      ExpectRecoveredExactly(dir, acked, context);
    }
  }
}

// A durable session that adapts online: a drift-triggered reconfiguration
// checkpoints the new element set like Optimize() does. A crash at any
// snapshot or WAL failpoint hit of the lifecycle below, the checkpoints
// of that reconfiguration included, must recover the acknowledged facts
// over either the new element set or the old one, serving the same
// answers from either.

OlapSessionOptions AdaptiveDurableOptions(const std::string& dir) {
  OlapSessionOptions options = DurableOptions(dir);
  options.drift_threshold = 0.5;
  options.min_queries_between_reconfigs = 4;
  return options;
}

// Creates the session, adds facts 0-1, queries one view until drift
// reconfigures the session (at the fourth query), then adds facts 2-4.
// Returns false if the session could not even be created.
bool RunAdaptiveLifecycle(const std::string& dir, const CubeShape& shape,
                          Tensor* acked_cube, SessionStats* stats) {
  auto session = OlapSession::FromCube(shape, *acked_cube,
                                       AdaptiveDurableOptions(dir));
  if (!session.ok()) return false;
  const auto& facts = Facts();
  auto add = [&](size_t i) {
    if ((*session)->AddFact(facts[i].first, facts[i].second).ok()) {
      (*acked_cube)[acked_cube->FlatIndex(facts[i].first)] +=
          facts[i].second;
    }
  };
  add(0);
  add(1);
  const ElementId view = *ElementId::AggregatedView(0b01, shape);
  for (int i = 0; i < 6; ++i) (void)(*session)->Element(view);
  add(2);
  add(3);
  add(4);
  *stats = (*session)->stats();
  return true;
}

// Recovers `dir` and checks it against `acked_cube`; counts the recovery
// in `recovered_new` when it came back with the new element set.
void ExpectRecoveredSet(const std::string& dir, const Tensor& acked_cube,
                        const std::vector<ElementId>& old_set,
                        const std::vector<ElementId>& new_set,
                        const std::string& context, int* recovered_new) {
  ExpectRecoveredExactly(dir, acked_cube, context);
  auto reopened = OlapSession::OpenDurable(AdaptiveDurableOptions(dir));
  ASSERT_TRUE(reopened.ok()) << context;
  const std::vector<ElementId> ids = (*reopened)->store().Ids();
  ASSERT_TRUE(ids == old_set || ids == new_set) << context;
  if (ids == new_set) ++*recovered_new;
  const CubeShape& shape = (*reopened)->shape();
  ElementComputer computer(shape, &acked_cube);
  for (uint32_t mask = 0; mask < (1u << shape.ndim()); ++mask) {
    const ElementId view = *ElementId::AggregatedView(mask, shape);
    auto got = (*reopened)->Element(view);
    ASSERT_TRUE(got.ok()) << context << " mask " << mask;
    ASSERT_EQ(got->data(), computer.Compute(view)->data())
        << context << " mask " << mask;
  }
}

TEST_F(CrashRecoveryTest, DriftReconfigurationCheckpointIsCrashConsistent) {
  auto shape = CubeShape::Make({8, 4});
  ASSERT_TRUE(shape.ok());
  const std::string dir = TempPath("crash_drift");
  const std::vector<ElementId> old_set = {ElementId::Root(2)};

  // Trace a clean lifecycle: the drift reconfiguration happened and
  // checkpointed.
  WipeDir(dir);
  Tensor clean_cube = MakeIntegerCube(*shape, 77);
  SessionStats clean;
  Failpoints::StartTrace();
  ASSERT_TRUE(RunAdaptiveLifecycle(dir, *shape, &clean_cube, &clean));
  Failpoints::StopTrace();
  const auto trace = Failpoints::TraceCounts();
  ASSERT_EQ(clean.optimizations, 1u);
  ASSERT_EQ(clean.reconfig_failures, 0u);
  EXPECT_EQ(clean.checkpoints, 2u);  // the initial one and the drift one
  std::vector<ElementId> new_set;
  {
    auto reopened = OlapSession::OpenDurable(AdaptiveDurableOptions(dir));
    ASSERT_TRUE(reopened.ok());
    new_set = (*reopened)->store().Ids();
  }
  ASSERT_NE(new_set, old_set);
  int recovered_new = 0;
  ExpectRecoveredSet(dir, clean_cube, old_set, new_set, "clean run",
                     &recovered_new);
  ASSERT_EQ(recovered_new, 1);

  int swept = 0;
  recovered_new = 0;
  for (const auto& [name, hits] : trace) {
    if (name.rfind("snapshot.", 0) != 0 && name.rfind("wal.", 0) != 0) {
      continue;
    }
    for (uint64_t hit = 0; hit < hits; ++hit) {
      const std::string context = name + " hit#" + std::to_string(hit);
      WipeDir(dir);
      Tensor acked = MakeIntegerCube(*shape, 77);
      SessionStats stats;
      Failpoints::Arm(name, FailpointAction{}, /*skip=*/hit);
      const bool created = RunAdaptiveLifecycle(dir, *shape, &acked, &stats);
      Failpoints::DisarmAll();
      if (!created) continue;  // crashed in the initial checkpoint
      ExpectRecoveredSet(dir, acked, old_set, new_set, context,
                         &recovered_new);
      ++swept;
    }
  }
  // Crashes before the drift checkpoint's store snapshot landed recover
  // the old set; crashes after it, the new one. The sweep reaches both.
  EXPECT_GT(recovered_new, 0);
  EXPECT_GT(swept - recovered_new, 0);
}

}  // namespace
}  // namespace vecube
