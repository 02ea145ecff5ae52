// Fused cascade kernels (haar/fused.h): bit-exactness against the
// step-at-a-time path across dims, levels, dispatch tables, and scratch
// budgets, on integer and real-valued cubes; op-count pinning for every
// kernel; grain selection for degenerate geometries. The thread and
// shard axes of the same cascades are swept in shard_test.cc
// (ShardSweep), the one route that fans a cascade out.

#include "haar/fused.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "cube/shape.h"
#include "cube/synthetic.h"
#include "haar/cascade.h"
#include "haar/simd.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace vecube {
namespace {

// The seed execution model the fused engine must match bit for bit: one
// materialized tensor per P1/R1 step.
Result<Tensor> UnfusedCascade(const Tensor& input,
                              const std::vector<CascadeStep>& steps,
                              OpCounter* ops = nullptr) {
  Tensor current = input;
  for (const CascadeStep& step : steps) {
    Tensor next;
    if (step.kind == StepKind::kPartial) {
      VECUBE_ASSIGN_OR_RETURN(next, PartialSum(current, step.dim, ops));
    } else {
      VECUBE_ASSIGN_OR_RETURN(next, PartialResidual(current, step.dim, ops));
    }
    current = std::move(next);
  }
  return current;
}

::testing::AssertionResult BitIdentical(const Tensor& a, const Tensor& b) {
  if (a.extents() != b.extents()) {
    return ::testing::AssertionFailure()
           << "extents differ: " << a.ShapeString() << " vs "
           << b.ShapeString();
  }
  if (std::memcmp(a.raw(), b.raw(), a.size() * sizeof(double)) != 0) {
    for (uint64_t i = 0; i < a.size(); ++i) {
      if (std::memcmp(&a.raw()[i], &b.raw()[i], sizeof(double)) != 0) {
        return ::testing::AssertionFailure()
               << "cell " << i << " differs: " << a.raw()[i] << " vs "
               << b.raw()[i];
      }
    }
  }
  return ::testing::AssertionSuccess();
}

struct BudgetOverride {
  explicit BudgetOverride(uint64_t cells) {
    internal::SetFusedBudgetForTesting(cells);
  }
  ~BudgetOverride() { internal::SetFusedBudgetForTesting(0); }
};

struct ForceScalar {
  ForceScalar() {
    internal::OverrideVecOpsForTesting(&internal::ScalarVecOps());
  }
  ~ForceScalar() { internal::OverrideVecOpsForTesting(nullptr); }
};

// The integer and the real-valued cube of one sweep: integer cells hide
// a reassociated add tree (their sums are exact), real cells show it.
std::vector<std::pair<const char*, Tensor>> SweepCubes(const CubeShape& shape,
                                                       uint64_t seed,
                                                       int64_t bound) {
  std::vector<std::pair<const char*, Tensor>> cubes;
  Rng rng(seed);
  auto integer = UniformIntegerCube(shape, &rng, -bound, bound);
  EXPECT_TRUE(integer.ok());
  cubes.emplace_back("integer", std::move(*integer));
  auto real = MixedMagnitudeCube(shape, &rng);
  EXPECT_TRUE(real.ok());
  cubes.emplace_back("real", std::move(*real));
  return cubes;
}

// --- Tentpole: exhaustive fused-vs-unfused bit-exactness sweep ----------

TEST(FusedSweep, AllDimLevelPairsAcrossThreadsDispatchAndBudget) {
  auto shape = CubeShape::Make({8, 4, 2, 8});
  ASSERT_TRUE(shape.ok());
  for (auto& [label, cube_value] : SweepCubes(*shape, 11, 9)) {
    SCOPED_TRACE(label);
    const Tensor* cube = &cube_value;

    const uint32_t depth[4] = {3, 2, 1, 3};
    for (uint32_t dim = 0; dim < 4; ++dim) {
      for (uint32_t levels = 1; levels <= depth[dim]; ++levels) {
        const std::vector<CascadeStep> steps(
            levels, CascadeStep{dim, StepKind::kPartial});
        OpCounter ref_ops;
        Tensor ref;
        {
          ForceScalar scalar;
          auto r = UnfusedCascade(*cube, steps, &ref_ops);
          ASSERT_TRUE(r.ok());
          ref = *r;
        }
        for (const bool force_scalar : {true, false}) {
          std::optional<ForceScalar> forced;
          if (force_scalar) forced.emplace();
          for (const uint64_t budget : {uint64_t{0}, uint64_t{4},
                                        uint64_t{64}}) {
            BudgetOverride b(budget);
            OpCounter ops;
            auto fused = CascadeSum(*cube, dim, levels, &ops);
            ASSERT_TRUE(fused.ok());
            EXPECT_TRUE(BitIdentical(ref, *fused))
                << "dim=" << dim << " levels=" << levels
                << " scalar=" << force_scalar << " budget=" << budget;
            EXPECT_EQ(ops.adds, ref_ops.adds);
            EXPECT_EQ(ops.muls, ref_ops.muls);
          }
        }
      }
    }
  }
}

TEST(FusedSweep, MixedPartialResidualStepListsMatchUnfused) {
  auto shape = CubeShape::Make({8, 8, 4, 4});
  ASSERT_TRUE(shape.ok());
  for (auto& [label, cube_value] : SweepCubes(*shape, 23, 50)) {
    SCOPED_TRACE(label);
    const Tensor* cube = &cube_value;
    Rng rng(24);  // the same step lists for both cubes

    for (uint32_t trial = 0; trial < 24; ++trial) {
      // A random valid step list over the evolving extents, mixing P and R.
      std::vector<uint32_t> extents = cube->extents();
      std::vector<CascadeStep> steps;
      const uint64_t length = 1 + rng.NextU64() % 9;
      for (uint64_t s = 0; s < length; ++s) {
        std::vector<uint32_t> eligible;
        for (uint32_t m = 0; m < extents.size(); ++m) {
          if (extents[m] >= 2) eligible.push_back(m);
        }
        if (eligible.empty()) break;
        const uint32_t dim =
            eligible[static_cast<size_t>(rng.NextU64() % eligible.size())];
        const StepKind kind =
            rng.NextU64() % 2 == 0 ? StepKind::kPartial : StepKind::kResidual;
        steps.push_back(CascadeStep{dim, kind});
        extents[dim] /= 2;
      }

      OpCounter ref_ops;
      Tensor ref;
      {
        ForceScalar scalar;
        auto r = UnfusedCascade(*cube, steps, &ref_ops);
        ASSERT_TRUE(r.ok());
        ref = *r;
      }
      for (const uint64_t budget : {uint64_t{0}, uint64_t{8}}) {
        BudgetOverride b(budget);
        OpCounter ops;
        auto fused = CascadeAnalysis(*cube, steps, &ops);
        ASSERT_TRUE(fused.ok());
        EXPECT_TRUE(BitIdentical(ref, *fused))
            << "trial=" << trial << " budget=" << budget;
        EXPECT_EQ(ops.adds, ref_ops.adds);
      }
    }
  }
}

TEST(FusedSweep, AggregateDimsMatchesUnfusedForEveryDimSubset) {
  auto shape = CubeShape::Make({8, 4, 2, 8});
  ASSERT_TRUE(shape.ok());
  for (auto& [label, cube_value] : SweepCubes(*shape, 31, 9)) {
    SCOPED_TRACE(label);
    const Tensor* cube = &cube_value;

    for (uint32_t mask = 1; mask < 16; ++mask) {
      std::vector<CascadeStep> steps;
      for (uint32_t m = 0; m < 4; ++m) {
        if ((mask & (1u << m)) == 0) continue;
        for (uint32_t e = cube->extent(m); e > 1; e /= 2) {
          steps.push_back(CascadeStep{m, StepKind::kPartial});
        }
      }
      OpCounter ref_ops;
      Tensor ref;
      {
        ForceScalar scalar;
        auto r = UnfusedCascade(*cube, steps, &ref_ops);
        ASSERT_TRUE(r.ok());
        ref = *r;
      }
      OpCounter ops;
      auto fused = CascadeAnalysis(*cube, steps, &ops);
      ASSERT_TRUE(fused.ok());
      EXPECT_TRUE(BitIdentical(ref, *fused)) << "mask=" << mask;
      EXPECT_EQ(ops.adds, ref_ops.adds);
    }
  }
}

TEST(FusedSweep, InnermostChunksSpanSlabsWithARaggedTail) {
  // Innermost-dimension groups run chunks of consecutive slabs; with
  // 3000 two- or four-cell slabs (not a dyadic cube shape, which
  // CascadeSum accepts) the last chunk is partial.
  for (const uint32_t extent : {2u, 4u}) {
    for (const bool real : {false, true}) {
      auto cube = Tensor::Uninitialized({3, 1000, extent});
      ASSERT_TRUE(cube.ok());
      Rng rng(41);
      for (uint64_t i = 0; i < cube->size(); ++i) {
        (*cube)[i] = real ? std::ldexp(rng.UniformDouble(-1.0, 1.0),
                                       static_cast<int>(rng.UniformU64(20)))
                          : static_cast<double>(rng.UniformU64(19)) - 9.0;
      }
      const uint32_t levels = extent == 2 ? 1 : 2;
      const std::vector<CascadeStep> steps(
          levels, CascadeStep{2, StepKind::kPartial});
      auto ref = UnfusedCascade(*cube, steps);
      ASSERT_TRUE(ref.ok());
      for (const uint64_t budget : {uint64_t{0}, uint64_t{1}}) {
        BudgetOverride b(budget);
        auto fused = CascadeSum(*cube, 2, levels);
        ASSERT_TRUE(fused.ok());
        EXPECT_TRUE(BitIdentical(*ref, *fused))
            << "real=" << real << " extent=" << extent
            << " budget=" << budget;
      }
    }
  }
}

TEST(FusedSweep, GrandTotalExactOnIntegerCube) {
  auto shape = CubeShape::Make({16, 16, 16});
  ASSERT_TRUE(shape.ok());
  Rng rng(7);
  auto cube = UniformIntegerCube(*shape, &rng, -9, 9);
  ASSERT_TRUE(cube.ok());
  double expected = 0;
  for (uint64_t i = 0; i < cube->size(); ++i) expected += cube->raw()[i];

  std::vector<CascadeStep> steps;
  for (uint32_t m = 0; m < 3; ++m) {
    for (uint32_t e = cube->extent(m); e > 1; e /= 2) {
      steps.push_back(CascadeStep{m, StepKind::kPartial});
    }
  }
  OpCounter ops;
  auto total = CascadeAnalysis(*cube, steps, &ops);
  ASSERT_TRUE(total.ok());
  EXPECT_EQ((*total)[0], expected);
  EXPECT_EQ(ops.adds, cube->size() - 1);  // Eq. 26: n - 1 adds for a total
}

// --- Error semantics: fused statuses match the step-at-a-time kernels ---

TEST(FusedErrors, StatusesMatchUnfusedKernels) {
  auto in = Tensor::FromData(
      {4, 6}, std::vector<double>{1,  2,  3,  4,  5,  6,  7,  8,
                                  9,  10, 11, 12, 13, 14, 15, 16,
                                  17, 18, 19, 20, 21, 22, 23, 24});
  ASSERT_TRUE(in.ok());

  auto bad_dim =
      CascadeAnalysis(*in, {CascadeStep{7, StepKind::kPartial}});
  auto kernel_bad_dim = PartialSum(*in, 7);
  ASSERT_TRUE(bad_dim.status().IsInvalidArgument());
  EXPECT_EQ(bad_dim.status().message(), kernel_bad_dim.status().message());

  // Odd extent reached mid-cascade: the second P1 along dim 1 sees 3.
  const std::vector<CascadeStep> odd_steps{
      CascadeStep{1, StepKind::kPartial}, CascadeStep{1, StepKind::kPartial}};
  auto odd = CascadeAnalysis(*in, odd_steps);
  auto odd_ref = UnfusedCascade(*in, odd_steps);
  ASSERT_TRUE(odd.status().IsFailedPrecondition());
  EXPECT_EQ(odd.status().message(), odd_ref.status().message());

  // Total aggregation along a non-power-of-two extent fails identically.
  EXPECT_TRUE(CascadeSum(*in, 1, 2).status().IsFailedPrecondition());
  EXPECT_TRUE(CascadeSum(*in, 9, 1).status().IsInvalidArgument());

  // An empty step list is the identity.
  auto same = CascadeAnalysis(*in, {});
  ASSERT_TRUE(same.ok());
  EXPECT_TRUE(BitIdentical(*in, *same));
}

// --- Satellite: op accounting pinned for every kernel -------------------

TEST(OpAccounting, EveryKernelPinsItsCounts) {
  Rng rng(5);
  auto shape = CubeShape::Make({4, 8});
  ASSERT_TRUE(shape.ok());
  auto in = UniformIntegerCube(*shape, &rng, -9, 9);
  ASSERT_TRUE(in.ok());

  OpCounter ops;
  auto p = PartialSum(*in, 0, &ops);  // 16 output cells
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(ops.adds, 16u);
  EXPECT_EQ(ops.muls, 0u);

  ops.Reset();
  auto r = PartialResidual(*in, 0, &ops);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(ops.adds, 16u);
  EXPECT_EQ(ops.muls, 0u);

  ops.Reset();
  Tensor pp, rr;
  ASSERT_TRUE(PartialPair(*in, 1, &pp, &rr, &ops).ok());
  EXPECT_EQ(ops.adds, 32u);  // both 16-cell children
  EXPECT_EQ(ops.muls, 0u);

  // Synthesis: one add/subtract AND one halving per output cell (Eqs.
  // 3-4). The halvings are booked in muls, never adds, so measured adds
  // stay equal to Procedure-3 plan costs.
  ops.Reset();
  auto parent = SynthesizePair(*p, *r, 0, &ops);
  ASSERT_TRUE(parent.ok());
  EXPECT_EQ(ops.adds, 32u);
  EXPECT_EQ(ops.muls, 32u);
  EXPECT_TRUE(BitIdentical(*in, *parent));  // integer cube: exact round trip

  // Cascades book the sum of per-step output volumes, fused or not.
  ops.Reset();
  auto agg = CascadeAnalysis(
      *in, {CascadeStep{0, StepKind::kPartial},
            CascadeStep{0, StepKind::kPartial},
            CascadeStep{1, StepKind::kPartial},
            CascadeStep{1, StepKind::kPartial},
            CascadeStep{1, StepKind::kPartial}},
      &ops);
  ASSERT_TRUE(agg.ok());
  EXPECT_EQ(ops.adds, 31u);  // 16+8+4 (dim 0) + 2+1 (dim 1) = n - 1
  EXPECT_EQ(ops.muls, 0u);
}

// --- Satellite: RunRows grain selection ---------------------------------

TEST(KernelGrain, GrainIsCeilOfTargetCellsOverRowCells) {
  using internal::KernelRowGrain;
  EXPECT_EQ(KernelRowGrain(0), kParallelKernelCells);
  EXPECT_EQ(KernelRowGrain(1), kParallelKernelCells);
  EXPECT_EQ(KernelRowGrain(2), kParallelKernelCells / 2);
  EXPECT_EQ(KernelRowGrain(kParallelKernelCells), 1u);
  // The seed's truncating division undershot the cell target for any
  // inner that did not divide it — a chunk of one 16383-cell row is
  // below the fan-out threshold. Ceiling division never undershoots.
  EXPECT_EQ(KernelRowGrain(kParallelKernelCells - 1), 2u);
  EXPECT_EQ(KernelRowGrain(kParallelKernelCells + 1), 1u);
  EXPECT_EQ(KernelRowGrain(100000), 1u);
}

TEST(KernelGrain, DegenerateGeometryBitExactUnderPool) {
  // Few enormous rows: inner far above kParallelKernelCells, so each
  // chunk is a single row.
  Rng rng(13);
  std::vector<double> cells(4 * 40000);
  for (double& c : cells) {
    c = static_cast<double>(static_cast<int64_t>(rng.NextU64() % 19) - 9);
  }
  auto in = Tensor::FromData({4, 40000}, std::move(cells));
  ASSERT_TRUE(in.ok());

  OpCounter serial_ops;
  auto serial = PartialSum(*in, 0, &serial_ops);
  ASSERT_TRUE(serial.ok());
  ThreadPool pool(8);
  OpCounter pooled_ops;
  auto pooled = PartialSum(*in, 0, &pooled_ops, &pool);
  ASSERT_TRUE(pooled.ok());
  EXPECT_TRUE(BitIdentical(*serial, *pooled));
  EXPECT_EQ(serial_ops.adds, pooled_ops.adds);
}

// --- Satellite: VECUBE_DISABLE_AVX2 hook and dispatch tables ------------

TEST(SimdDispatch, ParseDisableAvx2Semantics) {
  using internal::ParseDisableAvx2;
  EXPECT_FALSE(ParseDisableAvx2(nullptr));  // unset
  EXPECT_FALSE(ParseDisableAvx2(""));       // set but empty
  EXPECT_FALSE(ParseDisableAvx2("0"));      // explicit off
  EXPECT_TRUE(ParseDisableAvx2("1"));
  EXPECT_TRUE(ParseDisableAvx2("true"));
  EXPECT_TRUE(ParseDisableAvx2("yes"));
}

TEST(SimdDispatch, SelectedTableIsCoherent) {
  const HaarVecOps& ops = VecOps();
  const std::string name = ops.name;
  EXPECT_TRUE(name == "scalar" || name == "avx2") << name;
  EXPECT_EQ(VecOpsAreAvx2(), name == "avx2");
}

TEST(SimdDispatch, Avx2TableBitIdenticalToScalar) {
  const HaarVecOps* avx2 = internal::Avx2VecOpsOrNull();
  if (avx2 == nullptr) {
    GTEST_SKIP() << "binary or CPU lacks AVX2";
  }
  const HaarVecOps& scalar = internal::ScalarVecOps();
  Rng rng(17);
  // Lengths straddling vector widths and tails, plus an offset start so
  // unaligned loads are exercised.
  for (const uint64_t n : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 15u, 16u, 17u, 64u,
                           1000u}) {
    std::vector<double> a(2 * n + 1), b(2 * n + 1);
    for (double& v : a) v = static_cast<double>(rng.NextU64() % 1000) / 7.0;
    for (double& v : b) v = static_cast<double>(rng.NextU64() % 1000) / 7.0;
    std::vector<double> out_s(2 * n), out_v(2 * n), aux_s(2 * n),
        aux_v(2 * n);
    const double* pa = a.data() + 1;  // unaligned
    const double* pb = b.data() + 1;

    auto same = [&](const char* what) {
      ASSERT_EQ(std::memcmp(out_s.data(), out_v.data(),
                            out_s.size() * sizeof(double)),
                0)
          << what << " n=" << n;
      ASSERT_EQ(std::memcmp(aux_s.data(), aux_v.data(),
                            aux_s.size() * sizeof(double)),
                0)
          << what << " n=" << n;
    };

    scalar.add_rows(pa, pb, out_s.data(), n);
    avx2->add_rows(pa, pb, out_v.data(), n);
    same("add_rows");
    scalar.sub_rows(pa, pb, out_s.data(), n);
    avx2->sub_rows(pa, pb, out_v.data(), n);
    same("sub_rows");
    scalar.addsub_rows(pa, pb, out_s.data(), aux_s.data(), n);
    avx2->addsub_rows(pa, pb, out_v.data(), aux_v.data(), n);
    same("addsub_rows");
    scalar.synth_rows(pa, pb, out_s.data(), aux_s.data(), n);
    avx2->synth_rows(pa, pb, out_v.data(), aux_v.data(), n);
    same("synth_rows");
    scalar.pair_sum(pa, out_s.data(), n);
    avx2->pair_sum(pa, out_v.data(), n);
    same("pair_sum");
    scalar.pair_diff(pa, out_s.data(), n);
    avx2->pair_diff(pa, out_v.data(), n);
    same("pair_diff");
    scalar.pair_both(pa, out_s.data(), aux_s.data(), n);
    avx2->pair_both(pa, out_v.data(), aux_v.data(), n);
    same("pair_both");
    scalar.pair_synth(pa, pb, out_s.data(), n);
    avx2->pair_synth(pa, pb, out_v.data(), n);
    same("pair_synth");
  }
}

TEST(SimdDispatch, AddAndSubRowsRunInPlaceOnEveryTable) {
  // The shard combine DAG updates its first slot with dst == left; both
  // tables must give the out-of-place result for that exact alias.
  std::vector<const HaarVecOps*> tables{&internal::ScalarVecOps()};
  if (internal::Avx2VecOpsOrNull() != nullptr) {
    tables.push_back(internal::Avx2VecOpsOrNull());
  }
  Rng rng(19);
  for (const HaarVecOps* table : tables) {
    for (const uint64_t n : {1u, 3u, 4u, 5u, 8u, 17u, 1000u}) {
      std::vector<double> a(n), b(n), expected(n);
      for (double& v : a) v = rng.UniformDouble(-1.0, 1.0) * 1e6;
      for (double& v : b) v = rng.UniformDouble(-1.0, 1.0);
      for (const bool add : {true, false}) {
        auto rows = add ? table->add_rows : table->sub_rows;
        rows(a.data(), b.data(), expected.data(), n);
        std::vector<double> in_place = a;
        rows(in_place.data(), b.data(), in_place.data(), n);
        EXPECT_EQ(std::memcmp(in_place.data(), expected.data(),
                              n * sizeof(double)),
                  0)
            << table->name << (add ? " add_rows" : " sub_rows") << " n=" << n;
      }
    }
  }
}

}  // namespace
}  // namespace vecube
