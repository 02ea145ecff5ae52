// Write-ahead log: append/scan round trips, lsn continuity across reopen
// and reset, torn-tail detection and truncation, rollback of failed
// appends, corruption rejection, and append serialization under
// concurrent writers.

#include "core/wal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "cube/shape.h"
#include "util/failpoint.h"

namespace vecube {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

CubeShape TestShape() {
  auto shape = CubeShape::Make({8, 4});
  EXPECT_TRUE(shape.ok());
  return *shape;
}

CellDelta Delta(uint32_t x, uint32_t y, double amount) {
  CellDelta delta;
  delta.coords = {x, y};
  delta.delta = amount;
  return delta;
}

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempPath(
        (std::string(::testing::UnitTest::GetInstance()
                         ->current_test_info()
                         ->name()) +
         "_wal.log")
            .c_str());
    std::remove(path_.c_str());
  }
  void TearDown() override {
    Failpoints::DisarmAll();
    std::remove(path_.c_str());
  }
  std::string path_;
};

TEST_F(WalTest, AppendScanRoundTrip) {
  const CubeShape shape = TestShape();
  auto wal = WriteAheadLog::Open(path_, shape);
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ((*wal)->last_lsn(), 0u);
  auto lsn1 = (*wal)->Append(Delta(1, 2, 5.0));
  auto lsn2 = (*wal)->Append(Delta(7, 0, -3.5));
  ASSERT_TRUE(lsn1.ok() && lsn2.ok());
  EXPECT_EQ(*lsn1, 1u);
  EXPECT_EQ(*lsn2, 2u);

  auto scan = WriteAheadLog::Scan(path_, shape);
  ASSERT_TRUE(scan.ok());
  EXPECT_FALSE(scan->torn_tail);
  ASSERT_EQ(scan->records.size(), 2u);
  EXPECT_EQ(scan->records[0].lsn, 1u);
  EXPECT_EQ(scan->records[0].delta.coords, (std::vector<uint32_t>{1, 2}));
  EXPECT_EQ(scan->records[0].delta.delta, 5.0);
  EXPECT_EQ(scan->records[1].lsn, 2u);
  EXPECT_EQ(scan->records[1].delta.delta, -3.5);
}

TEST_F(WalTest, ReopenContinuesLsnSequence) {
  const CubeShape shape = TestShape();
  {
    auto wal = WriteAheadLog::Open(path_, shape);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(Delta(0, 0, 1.0)).ok());
  }
  WalScan scan;
  auto wal = WriteAheadLog::Open(path_, shape, &scan);
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ(scan.records.size(), 1u);
  auto lsn = (*wal)->Append(Delta(0, 1, 2.0));
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 2u);
}

TEST_F(WalTest, ShapeMismatchRejected) {
  const CubeShape shape = TestShape();
  {
    auto wal = WriteAheadLog::Open(path_, shape);
    ASSERT_TRUE(wal.ok());
  }
  auto other = CubeShape::Make({4, 4});
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(WriteAheadLog::Scan(path_, *other).ok());
  EXPECT_FALSE(WriteAheadLog::Open(path_, *other).ok());

  // A header declaring 17 dimensions is wider than any CubeShape (kMaxDims
  // is 16), so it matches no cube, not even the widest.
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write("VECUBEWL", 8);
    const uint32_t version = 1;
    const uint32_t ndim = 17;
    const uint32_t extent = 2;
    out.write(reinterpret_cast<const char*>(&version), sizeof(version));
    out.write(reinterpret_cast<const char*>(&ndim), sizeof(ndim));
    for (uint32_t m = 0; m < ndim; ++m) {
      out.write(reinterpret_cast<const char*>(&extent), sizeof(extent));
    }
    const uint64_t base_lsn = 0;
    const uint32_t crc = 0;
    out.write(reinterpret_cast<const char*>(&base_lsn), sizeof(base_lsn));
    out.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
  }
  auto widest = CubeShape::MakeSquare(kMaxDims, 2);
  ASSERT_TRUE(widest.ok());
  EXPECT_TRUE(WriteAheadLog::Scan(path_, *widest).status().IsInvalidArgument());
  EXPECT_FALSE(WriteAheadLog::Open(path_, *widest).ok());
}

TEST_F(WalTest, TornTailDetectedAndTruncatedOnOpen) {
  const CubeShape shape = TestShape();
  {
    auto wal = WriteAheadLog::Open(path_, shape);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(Delta(1, 1, 1.0)).ok());
    ASSERT_TRUE((*wal)->Append(Delta(2, 2, 2.0)).ok());
  }
  {
    // A crash mid-append leaves a torn record: simulate with raw garbage.
    std::ofstream out(path_, std::ios::binary | std::ios::app);
    out.write("\x20\x00\x00\x00garbage", 11);
  }
  auto scan = WriteAheadLog::Scan(path_, shape);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->torn_tail);
  EXPECT_EQ(scan->records.size(), 2u) << "committed prefix survives";

  // Open truncates the tail; a fresh append lands cleanly after it.
  WalScan reopened;
  auto wal = WriteAheadLog::Open(path_, shape, &reopened);
  ASSERT_TRUE(wal.ok());
  auto lsn = (*wal)->Append(Delta(3, 3, 3.0));
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 3u);
  auto rescan = WriteAheadLog::Scan(path_, shape);
  ASSERT_TRUE(rescan.ok());
  EXPECT_FALSE(rescan->torn_tail);
  EXPECT_EQ(rescan->records.size(), 3u);
}

TEST_F(WalTest, BitFlipInRecordStopsScanAtPriorRecord) {
  const CubeShape shape = TestShape();
  uint64_t record_start = 0;
  {
    auto wal = WriteAheadLog::Open(path_, shape);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(Delta(1, 1, 1.0)).ok());
    auto size = FileSize(path_);
    ASSERT_TRUE(size.ok());
    record_start = *size;
    ASSERT_TRUE((*wal)->Append(Delta(2, 2, 2.0)).ok());
  }
  {
    // Flip one bit inside the second record's payload.
    std::fstream file(path_,
                      std::ios::binary | std::ios::in | std::ios::out);
    file.seekg(static_cast<std::streamoff>(record_start) + 8 + 2);
    char byte = 0;
    file.get(byte);
    file.seekp(static_cast<std::streamoff>(record_start) + 8 + 2);
    byte = static_cast<char>(byte ^ 0x10);
    file.write(&byte, 1);
  }
  auto scan = WriteAheadLog::Scan(path_, shape);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->torn_tail);
  ASSERT_EQ(scan->records.size(), 1u);
  EXPECT_EQ(scan->records[0].delta.delta, 1.0);
}

TEST_F(WalTest, HeaderCorruptionRejectsWholeLog) {
  const CubeShape shape = TestShape();
  {
    auto wal = WriteAheadLog::Open(path_, shape);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(Delta(0, 0, 1.0)).ok());
  }
  {
    // Corrupt the base_lsn field (covered by the header CRC).
    std::fstream file(path_,
                      std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(8 + 4 + 4 + 2 * 4);
    const char byte = 0x7F;
    file.write(&byte, 1);
  }
  EXPECT_FALSE(WriteAheadLog::Scan(path_, shape).ok());
}

TEST_F(WalTest, FailedAppendRollsBackAndLogStaysClean) {
  const CubeShape shape = TestShape();
  auto wal = WriteAheadLog::Open(path_, shape);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->Append(Delta(1, 1, 1.0)).ok());

  FailpointAction torn;
  torn.kind = FailpointAction::Kind::kShortWrite;
  torn.short_bytes = 5;
  Failpoints::Arm("wal.append", torn);
  EXPECT_FALSE((*wal)->Append(Delta(2, 2, 2.0)).ok());

  // The torn bytes were truncated away; the log scans clean and the next
  // append reuses the rolled-back lsn.
  auto scan = WriteAheadLog::Scan(path_, shape);
  ASSERT_TRUE(scan.ok());
  EXPECT_FALSE(scan->torn_tail);
  EXPECT_EQ(scan->records.size(), 1u);
  auto lsn = (*wal)->Append(Delta(3, 3, 3.0));
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 2u);
}

TEST_F(WalTest, ResetContinuesSequenceAndSurvivesFailure) {
  const CubeShape shape = TestShape();
  auto wal = WriteAheadLog::Open(path_, shape);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->Append(Delta(1, 1, 1.0)).ok());
  ASSERT_TRUE((*wal)->Append(Delta(2, 2, 2.0)).ok());

  // A failed reset keeps the old log intact and appendable.
  Failpoints::Arm("wal.reset", FailpointAction{});
  EXPECT_FALSE((*wal)->Reset().ok());
  auto scan = WriteAheadLog::Scan(path_, shape);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->records.size(), 2u) << "old log still complete";

  ASSERT_TRUE((*wal)->Reset().ok());
  EXPECT_EQ((*wal)->records_in_log(), 0u);
  auto lsn = (*wal)->Append(Delta(3, 3, 3.0));
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 3u) << "lsn sequence continues across reset";
  auto rescan = WriteAheadLog::Scan(path_, shape);
  ASSERT_TRUE(rescan.ok());
  EXPECT_EQ(rescan->base_lsn, 3u);
  EXPECT_EQ(rescan->records.size(), 1u);
}

TEST_F(WalTest, OutOfRangeDeltaRejectedBeforeWrite) {
  const CubeShape shape = TestShape();
  auto wal = WriteAheadLog::Open(path_, shape);
  ASSERT_TRUE(wal.ok());
  EXPECT_FALSE((*wal)->Append(Delta(8, 0, 1.0)).ok()) << "coord out of extent";
  CellDelta bad;
  bad.coords = {1};
  EXPECT_FALSE((*wal)->Append(bad).ok()) << "arity mismatch";
  auto scan = WriteAheadLog::Scan(path_, shape);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->records.empty());
  EXPECT_FALSE(scan->torn_tail);
}

TEST_F(WalTest, CreateAtExplicitBaseLsn) {
  const CubeShape shape = TestShape();
  auto wal = WriteAheadLog::Open(path_, shape, nullptr,
                                 /*sync_each_append=*/true,
                                 /*create_base_lsn=*/42);
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ((*wal)->last_lsn(), 41u);
  auto lsn = (*wal)->Append(Delta(0, 0, 1.0));
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 42u);
}

// Regression (concurrency contracts PR): WriteAheadLog is internally
// synchronized — concurrent Append calls must hand out unique, gap-free
// lsns and leave every record durable and well-formed. Before the
// internal mutex, concurrent appends could interleave the write and the
// lsn bump, tearing records and duplicating lsns.
TEST_F(WalTest, ConcurrentAppendsSerializeCleanly) {
  const CubeShape shape = TestShape();
  auto wal = WriteAheadLog::Open(path_, shape, nullptr,
                                 /*sync_each_append=*/false);
  ASSERT_TRUE(wal.ok());

  constexpr int kThreads = 4;
  constexpr int kPerThread = 64;
  std::vector<std::vector<uint64_t>> lsns(kThreads);
  {
    std::vector<std::thread> writers;
    writers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          auto lsn = (*wal)->Append(
              Delta(static_cast<uint32_t>(t), 0, static_cast<double>(i)));
          ASSERT_TRUE(lsn.ok());
          lsns[t].push_back(*lsn);
        }
      });
    }
    for (std::thread& w : writers) w.join();
  }

  // Every lsn handed out exactly once, covering [1, kThreads*kPerThread].
  std::vector<uint64_t> all;
  for (const auto& per_thread : lsns) {
    all.insert(all.end(), per_thread.begin(), per_thread.end());
  }
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), static_cast<size_t>(kThreads) * kPerThread);
  for (size_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i], i + 1);
  EXPECT_EQ((*wal)->last_lsn(), all.size());

  // Close the log (flushing the append buffer) before scanning.
  (*wal).reset();

  // The file scans clean: no torn interleavings, lsns dense.
  auto scan = WriteAheadLog::Scan(path_, shape);
  ASSERT_TRUE(scan.ok());
  EXPECT_FALSE(scan->torn_tail);
  ASSERT_EQ(scan->records.size(), all.size());
  for (size_t i = 0; i < scan->records.size(); ++i) {
    EXPECT_EQ(scan->records[i].lsn, i + 1);
  }
}

}  // namespace
}  // namespace vecube
