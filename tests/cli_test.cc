// End-to-end exercise of the vecube_cli tool: build a cube from CSV,
// optimize it for a workload, query views and ranges, inspect the store.
// The CLI binary path is injected by CMake as VECUBE_CLI_PATH.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <string>

namespace vecube {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

// Runs the CLI and captures stdout. Returns the exit code.
int RunCli(const std::string& args, std::string* output) {
  const std::string command =
      std::string(VECUBE_CLI_PATH) + " " + args + " 2>&1";
  std::FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return -1;
  output->clear();
  std::array<char, 512> buffer;
  while (std::fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    *output += buffer.data();
  }
  const int status = pclose(pipe);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

class CliPipeline : public ::testing::Test {
 protected:
  void SetUp() override {
    // Parallel ctest runs each test in its own process; prefix files with
    // the test name so concurrent cases never collide.
    const std::string prefix =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    csv_ = TempPath((prefix + "_facts.csv").c_str());
    store_ = TempPath((prefix + "_store.vecube").c_str());
    tuned_ = TempPath((prefix + "_tuned.vecube").c_str());
    std::ofstream out(csv_, std::ios::trunc);
    out << "product,region,amount\n";
    out << "0,0,10\n0,1,5\n1,0,20\n1,3,2\n3,2,8\n2,2,4\n0,0,6\n";
  }

  void TearDown() override {
    std::remove(csv_.c_str());
    std::remove(store_.c_str());
    std::remove(tuned_.c_str());
  }

  std::string csv_, store_, tuned_;
};

TEST_F(CliPipeline, BuildOptimizeQueryRangeInfo) {
  std::string output;
  // Build.
  ASSERT_EQ(RunCli("build --csv " + csv_ + " --extents 4,4 --out " + store_,
                   &output),
            0)
      << output;
  EXPECT_NE(output.find("built [4, 4] cube from 7 rows"), std::string::npos)
      << output;

  // Query the grand total straight from the cube store (mask 3 = both
  // dims aggregated): 10+5+20+2+8+4+6 = 55.
  ASSERT_EQ(RunCli("query --store " + store_ + " --mask 3", &output), 0)
      << output;
  EXPECT_NE(output.find("55"), std::string::npos) << output;

  // Optimize for a workload concentrated on per-product totals.
  ASSERT_EQ(RunCli("optimize --store " + store_ + " --out " + tuned_ +
                       " --workload 2:0.8,3:0.2",
                   &output),
            0)
      << output;
  EXPECT_NE(output.find("selected"), std::string::npos) << output;

  // The tuned store answers the same query identically.
  ASSERT_EQ(RunCli("query --store " + tuned_ + " --mask 3", &output), 0)
      << output;
  EXPECT_NE(output.find("55"), std::string::npos) << output;
  // And the hot view (mask 2) is free: ops=0.
  ASSERT_EQ(RunCli("query --store " + tuned_ + " --mask 2", &output), 0)
      << output;
  EXPECT_NE(output.find("ops=0"), std::string::npos) << output;

  // Range over products 0..1, regions 0..3: 10+5+20+2+6 = 43.
  ASSERT_EQ(RunCli("range --store " + store_ +
                       " --start 0,0 --width 2,4",
                   &output),
            0)
      << output;
  EXPECT_NE(output.find("sum=43"), std::string::npos) << output;

  // Info lists the store contents.
  ASSERT_EQ(RunCli("info --store " + tuned_, &output), 0) << output;
  EXPECT_NE(output.find("complete basis: yes"), std::string::npos) << output;
}

TEST_F(CliPipeline, BadInvocationsFail) {
  std::string output;
  EXPECT_NE(RunCli("", &output), 0);
  EXPECT_NE(RunCli("frobnicate", &output), 0);
  EXPECT_NE(RunCli("build --csv /nonexistent.csv --extents 4 --out " + store_,
                   &output),
            0);
  EXPECT_NE(RunCli("query --store /nonexistent.vecube --mask 0", &output), 0);
  EXPECT_NE(RunCli("build --csv " + csv_ + " --extents bogus --out " + store_,
                   &output),
            0);
}

// strtod accepts "nan" and "inf": such a workload must fail with an error
// message and exit code 1, not abort inside Algorithm 1.
TEST_F(CliPipeline, NonFiniteWorkloadFrequencyFailsCleanly) {
  std::string output;
  ASSERT_EQ(RunCli("build --csv " + csv_ + " --extents 4,4 --out " + store_,
                   &output),
            0)
      << output;
  for (const char* workload : {"1:nan,2:1", "1:inf,2:1", "1:1e308,2:1e308"}) {
    EXPECT_EQ(RunCli("optimize --store " + store_ + " --out " + tuned_ +
                         " --workload " + workload,
                     &output),
              1)
        << workload << ": " << output;
    EXPECT_NE(output.find("InvalidArgument"), std::string::npos)
        << workload << ": " << output;
  }
}

TEST_F(CliPipeline, FsckReportsHealthCorruptionAndRepair) {
  std::string output;
  ASSERT_EQ(RunCli("build --csv " + csv_ + " --extents 4,4 --out " + store_,
                   &output),
            0)
      << output;

  // A pristine v2 snapshot passes element-by-element verification.
  ASSERT_EQ(RunCli("fsck --store " + store_, &output), 0) << output;
  EXPECT_NE(output.find("v2 snapshot"), std::string::npos) << output;
  EXPECT_NE(output.find("verdict: healthy"), std::string::npos) << output;

  // Flip one bit in the last payload byte: fsck must localize the damage
  // to the element and exit nonzero.
  {
    std::fstream file(store_,
                      std::ios::binary | std::ios::in | std::ios::out);
    file.seekg(0, std::ios::end);
    const auto last = static_cast<std::streamoff>(file.tellg()) - 1;
    file.seekg(last);
    char byte = 0;
    file.get(byte);
    file.seekp(last);
    byte = static_cast<char>(byte ^ 0x01);
    file.write(&byte, 1);
  }
  ASSERT_EQ(RunCli("fsck --store " + store_, &output), 1) << output;
  EXPECT_NE(output.find("CORRUPT"), std::string::npos) << output;
  EXPECT_NE(output.find("verdict: degraded"), std::string::npos) << output;

  // The build store holds only the root: nothing can re-derive it, and
  // fsck --repair must say so rather than fabricate data.
  ASSERT_EQ(RunCli("fsck --store " + store_ + " --repair", &output), 1)
      << output;
  EXPECT_NE(output.find("UNREPAIRABLE"), std::string::npos) << output;
}

TEST_F(CliPipeline, AssemblePrintsGatherFreeSplitForDimensionZeroView) {
  // A 16^4 cube-only store: aggregating dimensions 0 and 1 descends from
  // the root, so at --shards 4 its dim-0 run is a first stage on
  // contiguous merge lanes and the dim-1 run a one-task second stage over
  // the 1/16-sized intermediate; neither gathers.
  {
    std::ofstream out(csv_, std::ios::trunc);
    out << "a,b,c,d,m\n0,0,0,0,1\n15,3,7,1,2\n8,8,8,8,3\n";
  }
  std::string output;
  ASSERT_EQ(RunCli("build --csv " + csv_ + " --extents 16,16,16,16 --out " +
                       store_,
                   &output),
            0)
      << output;
  ASSERT_EQ(RunCli("assemble --store " + store_ +
                       " --mask 3 --shards 4 --threads 4",
                   &output),
            0)
      << output;
  EXPECT_NE(output.find("cascade 0: stage 1/2: 16x16x16x16->1x16x16x16 "
                        "tasks=4 concat=1x1x1x1 merge=2@dim0"),
            std::string::npos)
      << output;
  EXPECT_NE(output.find("stage 2/2: 1x16x16x16->1x1x16x16 tasks=1"),
            std::string::npos)
      << output;
  EXPECT_EQ(output.find("gather"), std::string::npos) << output;
  EXPECT_EQ(output.find("cascade 1:"), std::string::npos) << output;
}

TEST_F(CliPipeline, PaddedBuild) {
  // Extents 3,4 pad to 4,4; out-of-domain keys would fail, in-domain work.
  std::string output;
  ASSERT_EQ(RunCli("build --csv " + csv_ +
                       " --extents 4,4 --pad --out " + store_,
                   &output),
            0)
      << output;
  ASSERT_EQ(RunCli("info --store " + store_, &output), 0) << output;
  EXPECT_NE(output.find("shape [4, 4]"), std::string::npos) << output;
}

}  // namespace
}  // namespace vecube
