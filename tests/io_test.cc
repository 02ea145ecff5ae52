#include "core/io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "core/assembly.h"
#include "core/basis.h"
#include "core/computer.h"
#include "cube/synthetic.h"
#include "util/rng.h"

namespace vecube {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

ElementStore MakeStore(uint64_t seed) {
  auto shape = CubeShape::Make({8, 4});
  Rng rng(seed);
  auto cube = UniformIntegerCube(*shape, &rng, -50, 50);
  ElementComputer computer(*shape, &*cube);
  auto store = computer.Materialize(WaveletBasisSet(*shape));
  EXPECT_TRUE(store.ok());
  return std::move(store).value();
}

TEST(IoTest, SaveLoadRoundTrip) {
  const std::string path = TempPath("roundtrip.vecube");
  const ElementStore store = MakeStore(1);
  ASSERT_TRUE(SaveStore(store, path).ok());

  auto loaded = LoadStore(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->shape(), store.shape());
  EXPECT_EQ(loaded->size(), store.size());
  EXPECT_EQ(loaded->StorageCells(), store.StorageCells());
  for (const ElementId& id : store.Ids()) {
    auto original = store.Get(id);
    auto restored = loaded->Get(id);
    ASSERT_TRUE(original.ok() && restored.ok()) << id.ToString();
    EXPECT_TRUE((*restored)->ApproxEquals(**original, 0.0)) << id.ToString();
  }
  std::remove(path.c_str());
}

TEST(IoTest, LoadedStoreAssembles) {
  const std::string path = TempPath("assemble.vecube");
  const ElementStore store = MakeStore(2);
  ASSERT_TRUE(SaveStore(store, path).ok());
  auto loaded = LoadStore(path);
  ASSERT_TRUE(loaded.ok());

  AssemblyEngine original_engine(&store);
  AssemblyEngine loaded_engine(&*loaded);
  auto a = original_engine.Assemble(ElementId::Root(2));
  auto b = loaded_engine.Assemble(ElementId::Root(2));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(a->ApproxEquals(*b, 0.0));
  std::remove(path.c_str());
}

TEST(IoTest, EmptyStoreRoundTrips) {
  const std::string path = TempPath("empty.vecube");
  auto shape = CubeShape::Make({4, 4});
  ElementStore store(*shape);
  ASSERT_TRUE(SaveStore(store, path).ok());
  auto loaded = LoadStore(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 0u);
  EXPECT_EQ(loaded->shape(), *shape);
  std::remove(path.c_str());
}

TEST(IoTest, MissingFileIsNotFound) {
  EXPECT_TRUE(LoadStore("/nonexistent/path/store.vecube")
                  .status()
                  .IsNotFound());
}

TEST(IoTest, BadMagicRejected) {
  const std::string path = TempPath("badmagic.vecube");
  std::ofstream out(path, std::ios::binary);
  out << "NOTACUBE plus some garbage";
  out.close();
  auto loaded = LoadStore(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsInvalidArgument());
  std::remove(path.c_str());
}

TEST(IoTest, HeaderBeyondDimensionCapRejected) {
  // Both format versions declare 17 dimensions of extent 2 and no
  // elements; kMaxDims is 16, so neither header is accepted.
  for (const char* magic : {"VECUBE01", "VECUBE02"}) {
    const std::string path = TempPath("seventeen.vecube");
    std::ofstream out(path, std::ios::binary);
    out.write(magic, 8);
    const uint32_t ndim = 17;
    const uint32_t extent = 2;
    out.write(reinterpret_cast<const char*>(&ndim), sizeof(ndim));
    for (uint32_t m = 0; m < ndim; ++m) {
      out.write(reinterpret_cast<const char*>(&extent), sizeof(extent));
    }
    const uint64_t count = 0;
    out.write(reinterpret_cast<const char*>(&count), sizeof(count));
    out.close();
    auto loaded = LoadStore(path);
    ASSERT_FALSE(loaded.ok()) << magic;
    EXPECT_TRUE(loaded.status().IsInvalidArgument()) << magic;
    std::remove(path.c_str());
  }
}

TEST(IoTest, TruncatedFileRejected) {
  const std::string path = TempPath("truncated.vecube");
  const ElementStore store = MakeStore(3);
  ASSERT_TRUE(SaveStore(store, path).ok());
  // Truncate to half size.
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const auto size = in.tellg();
  in.seekg(0);
  std::vector<char> bytes(static_cast<size_t>(size) / 2);
  in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();

  auto loaded = LoadStore(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsInvalidArgument());
  std::remove(path.c_str());
}

TEST(IoTest, TruncationFuzzNeverCrashesOrMisloads) {
  // Truncating the file at any prefix length must yield a clean error
  // (never a crash, never a silently short store).
  const std::string path = TempPath("fuzz.vecube");
  const ElementStore store = MakeStore(7);
  ASSERT_TRUE(SaveStore(store, path).ok());
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const auto size = static_cast<size_t>(in.tellg());
  in.seekg(0);
  std::vector<char> bytes(size);
  in.read(bytes.data(), static_cast<std::streamsize>(size));
  in.close();

  // Sample a spread of truncation points, including all short prefixes.
  std::vector<size_t> cuts;
  for (size_t i = 0; i < 64 && i < size; ++i) cuts.push_back(i);
  for (size_t i = 64; i < size; i += size / 97 + 1) cuts.push_back(i);
  for (size_t cut : cuts) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(cut));
    out.close();
    auto loaded = LoadStore(path);
    EXPECT_FALSE(loaded.ok()) << "cut at " << cut;
  }
  std::remove(path.c_str());
}

TEST(IoTest, CorruptedElementHeaderRejected) {
  const std::string path = TempPath("corrupt.vecube");
  const ElementStore store = MakeStore(8);
  ASSERT_TRUE(SaveStore(store, path).ok());
  // Flip a byte inside the first element header (after magic+shape+count).
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  file.seekp(8 + 4 + 2 * 4 + 8 + 1);
  char byte = static_cast<char>(0xFF);
  file.write(&byte, 1);
  file.close();
  auto loaded = LoadStore(path);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST(IoTest, TrailingGarbageRejected) {
  const std::string path = TempPath("trailing.vecube");
  const ElementStore store = MakeStore(4);
  ASSERT_TRUE(SaveStore(store, path).ok());
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out << "extra";
  out.close();
  auto loaded = LoadStore(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsInvalidArgument());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace vecube
