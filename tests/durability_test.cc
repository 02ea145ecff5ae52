// Durability subsystem: v2 snapshot integrity (exhaustive truncation and
// bit-flip sweeps — every corruption is detected, never a clean wrong
// load), degraded loads with per-element quarantine, self-healing repair,
// and OlapSession checkpoint / WAL-replay recovery.

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "api/session.h"
#include "core/assembly.h"
#include "core/basis.h"
#include "core/computer.h"
#include "core/io.h"
#include "core/repair.h"
#include "core/wal.h"
#include "cube/synthetic.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace vecube {
namespace {

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::string TestName() {
  return ::testing::UnitTest::GetInstance()->current_test_info()->name();
}

std::vector<char> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  EXPECT_TRUE(in.good()) << path;
  const auto size = static_cast<size_t>(in.tellg());
  in.seekg(0);
  std::vector<char> bytes(size);
  in.read(bytes.data(), static_cast<std::streamsize>(size));
  return bytes;
}

void WriteAll(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void FlipBitOnDisk(const std::string& path, uint64_t byte_offset,
                   uint8_t mask) {
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  file.seekg(static_cast<std::streamoff>(byte_offset));
  char byte = 0;
  file.get(byte);
  file.seekp(static_cast<std::streamoff>(byte_offset));
  byte = static_cast<char>(byte ^ mask);
  file.write(&byte, 1);
}

ElementStore MakeBasisStore(const CubeShape& shape, uint64_t seed) {
  Rng rng(seed);
  auto cube = UniformIntegerCube(shape, &rng, -50, 50);
  ElementComputer computer(shape, &*cube);
  auto store = computer.Materialize(WaveletBasisSet(shape));
  EXPECT_TRUE(store.ok());
  return std::move(store).value();
}

class DurabilityTest : public ::testing::Test {
 protected:
  void TearDown() override { Failpoints::DisarmAll(); }
};

TEST_F(DurabilityTest, V2SaveLoadRoundTripWithMeta) {
  const std::string path = TempPath(TestName() + ".vecube");
  auto shape = CubeShape::Make({8, 4});
  ASSERT_TRUE(shape.ok());
  const ElementStore store = MakeBasisStore(*shape, 1);
  SnapshotMeta meta;
  meta.wal_seq = 1234;
  meta.flags = kSnapshotRootIsCube;
  ASSERT_TRUE(SaveStoreV2(store, path, meta).ok());

  SnapshotReport report;
  auto loaded = LoadStoreV2(path, &report);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.version, 2);
  EXPECT_EQ(report.meta.wal_seq, 1234u);
  EXPECT_EQ(report.meta.flags, kSnapshotRootIsCube);
  EXPECT_EQ(loaded->size(), store.size());
  for (const ElementId& id : store.Ids()) {
    auto original = store.Get(id);
    auto restored = loaded->Get(id);
    ASSERT_TRUE(original.ok() && restored.ok()) << id.ToString();
    EXPECT_TRUE((*restored)->ApproxEquals(**original, 0.0));
  }

  // The strict auto-detecting loader accepts a clean v2 file too.
  auto strict = LoadStore(path);
  ASSERT_TRUE(strict.ok());
  EXPECT_EQ(strict->size(), store.size());
  std::remove(path.c_str());
}

TEST_F(DurabilityTest, ExhaustiveBitFlipSweepAlwaysDetected) {
  // Flip every bit of every byte of a small v2 snapshot. Each corruption
  // must surface as a load error or a quarantined element — NEVER as a
  // clean load (a clean wrong load is silent data corruption).
  const std::string path = TempPath(TestName() + ".vecube");
  auto shape = CubeShape::Make({4, 2});
  ASSERT_TRUE(shape.ok());
  const ElementStore store = MakeBasisStore(*shape, 2);
  ASSERT_TRUE(SaveStoreV2(store, path).ok());
  const std::vector<char> pristine = ReadAll(path);

  for (size_t offset = 0; offset < pristine.size(); ++offset) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<char> corrupt = pristine;
      corrupt[offset] =
          static_cast<char>(corrupt[offset] ^ (1 << bit));
      WriteAll(path, corrupt);
      SnapshotReport report;
      auto loaded = LoadStoreV2(path, &report);
      EXPECT_FALSE(loaded.ok() && report.clean())
          << "undetected flip at byte " << offset << " bit " << bit;
      // The strict loader must reject every corruption outright.
      EXPECT_FALSE(LoadStore(path).ok())
          << "strict load survived flip at byte " << offset << " bit "
          << bit;
    }
  }
  std::remove(path.c_str());
}

TEST_F(DurabilityTest, ExhaustiveTruncationSweepAlwaysDetected) {
  const std::string path = TempPath(TestName() + ".vecube");
  auto shape = CubeShape::Make({4, 2});
  ASSERT_TRUE(shape.ok());
  const ElementStore store = MakeBasisStore(*shape, 3);
  ASSERT_TRUE(SaveStoreV2(store, path).ok());
  const std::vector<char> pristine = ReadAll(path);

  for (size_t cut = 0; cut < pristine.size(); ++cut) {
    WriteAll(path, std::vector<char>(pristine.begin(),
                                     pristine.begin() +
                                         static_cast<ptrdiff_t>(cut)));
    SnapshotReport report;
    auto loaded = LoadStoreV2(path, &report);
    EXPECT_FALSE(loaded.ok() && report.clean()) << "cut at " << cut;
    EXPECT_FALSE(LoadStore(path).ok()) << "strict load at cut " << cut;
  }
  // Trailing garbage is equally rejected.
  std::vector<char> padded = pristine;
  padded.push_back('x');
  WriteAll(path, padded);
  SnapshotReport report;
  EXPECT_FALSE(LoadStoreV2(path, &report).ok() && report.clean());
  std::remove(path.c_str());
}

TEST_F(DurabilityTest, CorruptElementQuarantinedServedAroundAndRepaired) {
  const std::string path = TempPath(TestName() + ".vecube");
  auto shape = CubeShape::Make({8, 4});
  ASSERT_TRUE(shape.ok());
  Rng rng(4);
  auto cube = UniformIntegerCube(*shape, &rng, -50, 50);
  ASSERT_TRUE(cube.ok());
  ElementComputer computer(*shape, &*cube);
  auto view = ElementId::AggregatedView(0b10, *shape);
  ASSERT_TRUE(view.ok());
  auto built =
      computer.Materialize({ElementId::Root(2), *view});
  ASSERT_TRUE(built.ok());
  const ElementStore& store = *built;
  ASSERT_TRUE(SaveStoreV2(store, path).ok());

  // The last payload byte on disk belongs to the last directory entry;
  // sorted order puts the root (all-zero codes) first, so the damaged
  // element is the view — which the surviving root can re-derive.
  const auto size = FileSize(path);
  ASSERT_TRUE(size.ok());
  FlipBitOnDisk(path, *size - 1, 0x04);

  SnapshotReport report;
  auto loaded = LoadStoreV2(path, &report);
  ASSERT_TRUE(loaded.ok()) << "per-element damage must not fail the load";
  EXPECT_EQ(report.corrupt_elements, 1u);
  ASSERT_EQ(loaded->quarantined_count(), 1u);
  const ElementId damaged = loaded->QuarantinedIds()[0];
  ASSERT_NE(damaged, ElementId::Root(2));
  EXPECT_FALSE(loaded->Contains(damaged)) << "untrusted data is not served";
  EXPECT_FALSE(loaded->Get(damaged).ok());

  // Degraded service: queries not needing the damaged element — and even
  // the damaged view itself, via assembly from the root — still answer.
  AssemblyEngine degraded(&*loaded);
  auto root_again = degraded.Assemble(ElementId::Root(2));
  ASSERT_TRUE(root_again.ok());
  EXPECT_TRUE(root_again->ApproxEquals(*cube, 0.0));

  // Self-healing: repair re-derives the element bit-exactly.
  auto repair = RepairStore(&*loaded);
  ASSERT_TRUE(repair.ok());
  EXPECT_TRUE(repair->complete());
  ASSERT_EQ(repair->repaired.size(), 1u);
  EXPECT_EQ(repair->repaired[0], damaged);
  EXPECT_EQ(loaded->quarantined_count(), 0u);
  auto healed = loaded->Get(damaged);
  auto original = store.Get(damaged);
  ASSERT_TRUE(healed.ok() && original.ok());
  EXPECT_TRUE((*healed)->ApproxEquals(**original, 0.0)) << "bit-exact";
  std::remove(path.c_str());
}

TEST_F(DurabilityTest, UnreconstructibleCorruptionReportedNeverZeroed) {
  const std::string path = TempPath(TestName() + ".vecube");
  auto shape = CubeShape::Make({4, 4});
  ASSERT_TRUE(shape.ok());
  Rng rng(5);
  auto cube = UniformIntegerCube(*shape, &rng, -9, 9);
  ASSERT_TRUE(cube.ok());
  ElementComputer computer(*shape, &*cube);
  auto view = ElementId::AggregatedView(0b01, *shape);
  ASSERT_TRUE(view.ok());
  auto built = computer.Materialize({*view});
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(SaveStoreV2(*built, path).ok());
  const auto size = FileSize(path);
  ASSERT_TRUE(size.ok());
  FlipBitOnDisk(path, *size - 1, 0x01);

  SnapshotReport report;
  auto loaded = LoadStoreV2(path, &report);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->quarantined_count(), 1u);

  // The lone element has no surviving reconstruction path: repair must
  // say so, and the element must stay quarantined — not silently zeroed.
  auto repair = RepairStore(&*loaded);
  ASSERT_TRUE(repair.ok());
  EXPECT_FALSE(repair->complete());
  ASSERT_EQ(repair->unrepaired.size(), 1u);
  EXPECT_EQ(repair->unrepaired[0], *view);
  EXPECT_TRUE(loaded->IsQuarantined(*view));
  EXPECT_FALSE(loaded->Get(*view).ok());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Session-level durability.

OlapSessionOptions DurableOptions(const std::string& dir) {
  OlapSessionOptions options;
  options.durability.enabled = true;
  options.durability.directory = dir;
  options.verify_invariants = true;
  options.num_threads = 1;
  return options;
}

std::string MakeSessionDir() {
  const std::string dir = TempPath(TestName() + "_dur");
  ::mkdir(dir.c_str(), 0755);
  for (const char* file :
       {"store.vecube", "cube.vecube", "store.count.vecube",
        "cube.count.vecube", "wal.log"}) {
    std::remove((dir + "/" + file).c_str());
  }
  return dir;
}

Tensor MakeIntegerCube(const CubeShape& shape, uint64_t seed) {
  Rng rng(seed);
  auto cube = UniformIntegerCube(shape, &rng, -20, 20);
  EXPECT_TRUE(cube.ok());
  return std::move(cube).value();
}

void ExpectCubesBitExact(const Tensor& got, const Tensor& want) {
  ASSERT_EQ(got.size(), want.size());
  for (uint64_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "cell " << i;
  }
}

TEST_F(DurabilityTest, SessionCheckpointReopenIsBitExact) {
  const std::string dir = MakeSessionDir();
  auto shape = CubeShape::Make({8, 4});
  ASSERT_TRUE(shape.ok());
  Tensor expected = MakeIntegerCube(*shape, 6);
  auto session = OlapSession::FromCube(*shape, expected, DurableOptions(dir));
  ASSERT_TRUE(session.ok());
  EXPECT_TRUE((*session)->durable());

  auto add = [&](std::vector<uint32_t> coords, double amount) {
    ASSERT_TRUE((*session)->AddFact(coords, amount).ok());
    expected[expected.FlatIndex(coords)] += amount;
  };
  add({1, 2}, 5.0);
  add({7, 3}, -2.0);
  ASSERT_TRUE((*session)->Checkpoint().ok());
  add({0, 0}, 11.0);
  add({1, 2}, 3.0);
  EXPECT_EQ((*session)->stats().wal_appends, 4u);
  session->reset();  // "crash": nothing flushed beyond the WAL

  auto reopened = OlapSession::OpenDurable(DurableOptions(dir));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ExpectCubesBitExact((*reopened)->cube(), expected);
  EXPECT_EQ((*reopened)->stats().wal_replayed, 2u)
      << "only post-checkpoint records replay";

  // Served answers come from the recovered store, not just the cube.
  auto total = (*reopened)->ViewByMask(0b11);
  ASSERT_TRUE(total.ok());
  double want = 0.0;
  for (uint64_t i = 0; i < expected.size(); ++i) want += expected[i];
  EXPECT_EQ((*total)[0], want);
}

TEST_F(DurabilityTest, CrashBetweenCheckpointRenamesReplaysIdempotently) {
  const std::string dir = MakeSessionDir();
  auto shape = CubeShape::Make({8, 4});
  ASSERT_TRUE(shape.ok());
  Tensor expected = MakeIntegerCube(*shape, 7);
  auto session = OlapSession::FromCube(*shape, expected, DurableOptions(dir));
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE((*session)->AddFact({2, 1}, 4.0).ok());
  expected[expected.FlatIndex({2, 1})] += 4.0;
  ASSERT_TRUE((*session)->AddFact({5, 0}, 9.0).ok());
  expected[expected.FlatIndex({5, 0})] += 9.0;

  // The checkpoint's first rename (the cube snapshot) lands; the second
  // (the store snapshot) "crashes". Components now disagree on wal_seq.
  Failpoints::Arm("snapshot.rename", FailpointAction{}, /*skip=*/1);
  EXPECT_FALSE((*session)->Checkpoint().ok());
  session->reset();
  Failpoints::DisarmAll();

  // Replay must apply records 1-2 to the stale store but skip them for
  // the fresh cube — applying them twice would double the deltas.
  auto reopened = OlapSession::OpenDurable(DurableOptions(dir));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ExpectCubesBitExact((*reopened)->cube(), expected);
  auto total = (*reopened)->ViewByMask(0b11);
  ASSERT_TRUE(total.ok());
  double want = 0.0;
  for (uint64_t i = 0; i < expected.size(); ++i) want += expected[i];
  EXPECT_EQ((*total)[0], want) << "store-derived answer matches too";
}

TEST_F(DurabilityTest, TornWalTailTruncatedOnReopen) {
  const std::string dir = MakeSessionDir();
  auto shape = CubeShape::Make({8, 4});
  ASSERT_TRUE(shape.ok());
  Tensor expected = MakeIntegerCube(*shape, 8);
  auto session = OlapSession::FromCube(*shape, expected, DurableOptions(dir));
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE((*session)->AddFact({3, 3}, 7.0).ok());
  expected[expected.FlatIndex({3, 3})] += 7.0;
  session->reset();

  {
    // A crash mid-append leaves torn bytes after the committed record.
    std::ofstream out(dir + "/wal.log", std::ios::binary | std::ios::app);
    out.write("\x20\x00\x00\x00torn", 8);
  }
  auto reopened = OlapSession::OpenDurable(DurableOptions(dir));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ExpectCubesBitExact((*reopened)->cube(), expected);
  EXPECT_EQ((*reopened)->stats().wal_replayed, 1u);
  // The truncated log accepts new facts cleanly.
  ASSERT_TRUE((*reopened)->AddFact({0, 1}, 1.0).ok());
}

TEST_F(DurabilityTest, CorruptCubeSnapshotSelfHealsFromStore) {
  const std::string dir = MakeSessionDir();
  auto shape = CubeShape::Make({8, 4});
  ASSERT_TRUE(shape.ok());
  Tensor expected = MakeIntegerCube(*shape, 9);
  auto session = OlapSession::FromCube(*shape, expected, DurableOptions(dir));
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE((*session)->AddFact({4, 2}, 6.0).ok());
  expected[expected.FlatIndex({4, 2})] += 6.0;
  session->reset();

  // Rot the base-cube snapshot's payload; the element store still holds
  // the root, so recovery assembles the cube from it.
  const std::string cube_path = dir + "/cube.vecube";
  auto size = FileSize(cube_path);
  ASSERT_TRUE(size.ok());
  FlipBitOnDisk(cube_path, *size - 1, 0x08);

  auto reopened = OlapSession::OpenDurable(DurableOptions(dir));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ExpectCubesBitExact((*reopened)->cube(), expected);
}

TEST_F(DurabilityTest, GlobalDamageFailsCleanlyNotSilently) {
  const std::string dir = MakeSessionDir();
  auto shape = CubeShape::Make({4, 4});
  ASSERT_TRUE(shape.ok());
  Tensor cube = MakeIntegerCube(*shape, 10);
  auto session = OlapSession::FromCube(*shape, cube, DurableOptions(dir));
  ASSERT_TRUE(session.ok());
  session->reset();

  // Destroy both copies of the base data: cube snapshot payload AND the
  // store's root payload. Nothing can reconstruct the cube; the open
  // must fail with a diagnostic, not fabricate zeros.
  for (const char* file : {"cube.vecube", "store.vecube"}) {
    const std::string path = dir + "/" + file;
    auto size = FileSize(path);
    ASSERT_TRUE(size.ok());
    FlipBitOnDisk(path, *size - 1, 0x10);
  }
  auto reopened = OlapSession::OpenDurable(DurableOptions(dir));
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsInternal());
}

TEST_F(DurabilityTest, AutoCheckpointTruncatesWal) {
  const std::string dir = MakeSessionDir();
  auto shape = CubeShape::Make({8, 4});
  ASSERT_TRUE(shape.ok());
  Tensor expected = MakeIntegerCube(*shape, 11);
  OlapSessionOptions options = DurableOptions(dir);
  options.durability.checkpoint_every = 2;
  auto session = OlapSession::FromCube(*shape, expected, options);
  ASSERT_TRUE(session.ok());
  for (int i = 0; i < 4; ++i) {
    std::vector<uint32_t> coords = {static_cast<uint32_t>(i), 0};
    ASSERT_TRUE((*session)->AddFact(coords, 1.0).ok());
    expected[expected.FlatIndex(coords)] += 1.0;
  }
  // Initial checkpoint + one per 2 facts.
  EXPECT_EQ((*session)->stats().checkpoints, 3u);
  session->reset();

  auto reopened = OlapSession::OpenDurable(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->stats().wal_replayed, 0u)
      << "everything was folded into snapshots";
  ExpectCubesBitExact((*reopened)->cube(), expected);
}

TEST_F(DurabilityTest, CountSideRecoversAndServesAvg) {
  const std::string dir = MakeSessionDir();
  auto shape = CubeShape::Make({4, 4});
  ASSERT_TRUE(shape.ok());
  Tensor zeros;
  {
    auto z = Tensor::Zeros(shape->extents());
    ASSERT_TRUE(z.ok());
    zeros = std::move(z).value();
  }
  OlapSessionOptions options = DurableOptions(dir);
  options.maintain_count_cube = true;
  auto session = OlapSession::FromCube(*shape, zeros, options);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE((*session)->AddFact({1, 1}, 10.0).ok());
  ASSERT_TRUE((*session)->AddFact({1, 1}, 20.0).ok());
  ASSERT_TRUE((*session)->AddFact({2, 0}, 7.0).ok());
  session->reset();

  auto reopened = OlapSession::OpenDurable(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto avg = (*reopened)->AvgByMask(0b11);
  ASSERT_TRUE(avg.ok());
  EXPECT_DOUBLE_EQ((*avg)[0], 37.0 / 3.0);
  auto cell_avg = (*reopened)->AvgByMask(0);
  ASSERT_TRUE(cell_avg.ok());
  EXPECT_EQ((*cell_avg)[cell_avg->FlatIndex({1, 1})], 15.0);
}

TEST_F(DurabilityTest, SessionRepairReinstatesQuarantinedElements) {
  const std::string dir = MakeSessionDir();
  auto shape = CubeShape::Make({8, 4});
  ASSERT_TRUE(shape.ok());
  Tensor expected = MakeIntegerCube(*shape, 12);
  auto session = OlapSession::FromCube(*shape, expected, DurableOptions(dir));
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE((*session)->Checkpoint().ok());
  session->reset();

  // Rot the store's only element (the root). The cube snapshot survives,
  // so the session opens degraded and Repair() restores the store from
  // the authoritative in-memory cube.
  const std::string store_path = dir + "/store.vecube";
  auto size = FileSize(store_path);
  ASSERT_TRUE(size.ok());
  FlipBitOnDisk(store_path, *size - 1, 0x02);

  auto reopened = OlapSession::OpenDurable(DurableOptions(dir));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->store().quarantined_count(), 1u);
  ExpectCubesBitExact((*reopened)->cube(), expected);

  auto repair = (*reopened)->Repair();
  ASSERT_TRUE(repair.ok()) << repair.status().ToString();
  EXPECT_TRUE(repair->complete());
  EXPECT_EQ((*reopened)->store().quarantined_count(), 0u);
  auto root = (*reopened)->store().Get(ElementId::Root(2));
  ASSERT_TRUE(root.ok());
  EXPECT_TRUE((*root)->ApproxEquals(expected, 0.0));
}

// Optimize() migrates from the current store, not from the base cube, so
// it plans around quarantined elements: with a healthy path to every
// target it succeeds and leaves a whole store behind.
TEST_F(DurabilityTest, OptimizeMigratesAroundQuarantinedElement) {
  const std::string dir = MakeSessionDir();
  auto shape = CubeShape::Make({8, 4});
  ASSERT_TRUE(shape.ok());
  const Tensor expected = MakeIntegerCube(*shape, 21);
  const ElementId root = ElementId::Root(2);
  const ElementId total = *ElementId::AggregatedView(0b11, *shape);
  OlapSessionOptions options = DurableOptions(dir);
  options.redundancy_budget_cells = 1;  // room for the 1-cell total
  {
    auto session = OlapSession::FromCube(*shape, expected, options);
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE((*session)
                    ->DeclareWorkload(*FixedPopulation(
                        {{root, 1.0}, {total, 1.0}}, *shape))
                    .ok());
    ASSERT_TRUE((*session)->Optimize().ok());
    ASSERT_EQ((*session)->store().Ids(), (std::vector<ElementId>{root, total}));
  }
  // The last payload on disk is the last element in id order: the total.
  const std::string store_path = dir + "/store.vecube";
  auto size = FileSize(store_path);
  ASSERT_TRUE(size.ok());
  FlipBitOnDisk(store_path, *size - 1, 0x02);

  auto reopened = OlapSession::OpenDurable(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_TRUE((*reopened)->store().IsQuarantined(total));
  const ElementId rows = *ElementId::AggregatedView(0b01, *shape);
  ASSERT_TRUE((*reopened)
                  ->DeclareWorkload(*FixedPopulation({{rows, 1.0}}, *shape))
                  .ok());
  ASSERT_TRUE((*reopened)->Optimize().ok());
  EXPECT_EQ((*reopened)->store().quarantined_count(), 0u);
  ElementComputer computer(*shape, &expected);
  for (uint32_t mask = 0; mask < 4; ++mask) {
    const ElementId view = *ElementId::AggregatedView(mask, *shape);
    auto got = (*reopened)->Element(view);
    ASSERT_TRUE(got.ok()) << mask;
    EXPECT_EQ(got->data(), computer.Compute(view)->data()) << mask;
  }
}

// Where the healthy elements cannot reach a target, Optimize() fails and
// leaves the old store, engines and cache untouched (Repair() is the way
// back, from the base cube).
TEST_F(DurabilityTest, OptimizeFailsCleanlyWhenSurvivorsCannotReachTarget) {
  const std::string dir = MakeSessionDir();
  auto shape = CubeShape::Make({8, 4});
  ASSERT_TRUE(shape.ok());
  const Tensor expected = MakeIntegerCube(*shape, 22);
  const QueryPopulation workload = *FixedPopulation(
      {{*ElementId::AggregatedView(0b01, *shape), 1.0},
       {*ElementId::AggregatedView(0b10, *shape), 1.0}},
      *shape);
  OlapSessionOptions options = DurableOptions(dir);
  options.view_cache.enabled = true;
  {
    auto session = OlapSession::FromCube(*shape, expected, options);
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE((*session)->DeclareWorkload(workload).ok());
    ASSERT_TRUE((*session)->Optimize().ok());
    ASSERT_GT((*session)->store().size(), 1u);
  }
  const std::string store_path = dir + "/store.vecube";
  auto size = FileSize(store_path);
  ASSERT_TRUE(size.ok());
  FlipBitOnDisk(store_path, *size - 1, 0x02);

  auto reopened = OlapSession::OpenDurable(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  OlapSession& session = **reopened;
  ASSERT_EQ(session.store().quarantined_count(), 1u);
  // Warm the cache with every view the survivors still answer.
  ElementComputer computer(*shape, &expected);
  std::vector<ElementId> served;
  for (uint32_t mask = 0; mask < 4; ++mask) {
    const ElementId view = *ElementId::AggregatedView(mask, *shape);
    auto got = session.Element(view);
    if (!got.ok()) continue;
    EXPECT_EQ(got->data(), computer.Compute(view)->data()) << mask;
    served.push_back(view);
  }
  ASSERT_FALSE(served.empty());
  const std::vector<ElementId> ids = session.store().Ids();
  const std::vector<ElementId> quarantined = session.store().QuarantinedIds();
  const ServeMetrics warm = session.serve_metrics();
  const SessionStats stats = session.stats();

  // The same workload selects the same basis, damaged element included;
  // a non-redundant basis cannot rebuild one of its own elements.
  ASSERT_TRUE(session.DeclareWorkload(workload).ok());
  const Status status = session.Optimize();
  EXPECT_TRUE(status.IsIncomplete()) << status.ToString();
  EXPECT_EQ(session.store().Ids(), ids);
  EXPECT_EQ(session.store().QuarantinedIds(), quarantined);
  EXPECT_EQ(session.stats().optimizations, stats.optimizations);
  EXPECT_EQ(session.stats().checkpoints, stats.checkpoints);
  EXPECT_EQ(session.serve_metrics().invalidations, warm.invalidations);
  EXPECT_EQ(session.serve_metrics().entries, warm.entries);
  for (const ElementId& view : served) {
    auto got = session.Element(view);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->data(), computer.Compute(view)->data());
  }
  EXPECT_EQ(session.serve_metrics().hits, warm.hits + served.size());
}

TEST_F(DurabilityTest, DurabilityOffMeansNoFilesNoWal) {
  auto shape = CubeShape::Make({4, 4});
  ASSERT_TRUE(shape.ok());
  Tensor cube = MakeIntegerCube(*shape, 13);
  auto session = OlapSession::FromCube(*shape, cube, {});
  ASSERT_TRUE(session.ok());
  EXPECT_FALSE((*session)->durable());
  ASSERT_TRUE((*session)->AddFact({0, 0}, 1.0).ok());
  EXPECT_EQ((*session)->stats().wal_appends, 0u);
  EXPECT_TRUE((*session)->Checkpoint().IsFailedPrecondition());
}

}  // namespace
}  // namespace vecube
