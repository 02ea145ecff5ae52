// Runtime-dispatched vector kernels for the Haar hot loops.
//
// The P1/R1 analysis pair and its synthesis inverse reduce to four inner
// loop shapes:
//
//   * contiguous rows (inner > 1): dst[j] = a[j] +/- b[j] over a row of
//     `inner` cells — trivially vector-parallel;
//   * innermost-dimension pairs (inner == 1): sum[i] = in[2i] + in[2i+1],
//     the even/odd deinterleave that blocks autovectorization of the
//     generic loop; and their synthesis transposes.
//
// This header is the *only* seam between the portable kernels and any
// CPU-specific code. The dispatch table is selected exactly once, at first
// use: AVX2 when the binary carries the AVX2 translation unit, the CPU
// reports the feature, and the VECUBE_DISABLE_AVX2 environment hook is not
// set; the portable scalar table otherwise. Every vector implementation is
// bit-identical to its scalar counterpart (each output cell is the same
// single add/subtract/halving expression — only the schedule changes), so
// dispatch never affects results, operation counts, or determinism.
//
// Intrinsics policy (enforced by tools/vecube_lint.py, rule
// simd-dispatch): CPU intrinsics may appear only in src/haar/simd_avx2.cc,
// the translation unit this table dispatches into.

#ifndef VECUBE_HAAR_SIMD_H_
#define VECUBE_HAAR_SIMD_H_

#include <cstdint>

namespace vecube {

/// Function table for the vectorizable Haar inner loops. Row forms
/// require dst ranges disjoint from sources, except that add_rows and
/// sub_rows also run in place with dst == a exactly (each cell is read
/// before it is written); pair forms read 2n input cells and write n
/// outputs per stream.
struct HaarVecOps {
  /// dst[j] = a[j] + b[j], j in [0, n).
  void (*add_rows)(const double* a, const double* b, double* dst,
                   uint64_t n);
  /// dst[j] = a[j] - b[j].
  void (*sub_rows)(const double* a, const double* b, double* dst,
                   uint64_t n);
  /// sum[j] = a[j] + b[j] and diff[j] = a[j] - b[j] in one pass.
  void (*addsub_rows)(const double* a, const double* b, double* sum,
                      double* diff, uint64_t n);
  /// even[j] = 0.5 * (p[j] + r[j]), odd[j] = 0.5 * (p[j] - r[j]).
  void (*synth_rows)(const double* p, const double* r, double* even,
                     double* odd, uint64_t n);
  /// sum[i] = in[2i] + in[2i+1], i in [0, n).
  void (*pair_sum)(const double* in, double* sum, uint64_t n);
  /// diff[i] = in[2i] - in[2i+1].
  void (*pair_diff)(const double* in, double* diff, uint64_t n);
  /// Both of the above in one pass over the input.
  void (*pair_both)(const double* in, double* sum, double* diff,
                    uint64_t n);
  /// out[2i] = 0.5 * (p[i] + r[i]), out[2i+1] = 0.5 * (p[i] - r[i]).
  void (*pair_synth)(const double* p, const double* r, double* out,
                     uint64_t n);
  /// "scalar" or "avx2" — for logs, benches, and tests.
  const char* name;
};

/// The table selected at startup (first call); stable afterwards.
const HaarVecOps& VecOps();

/// True when VecOps() dispatches to the AVX2 implementations.
bool VecOpsAreAvx2();

namespace internal {

/// The portable table (always available).
const HaarVecOps& ScalarVecOps();

/// The AVX2 table, or null when the binary was built without AVX2 support
/// or the CPU lacks the feature. Ignores the environment hook.
const HaarVecOps* Avx2VecOpsOrNull();

/// VECUBE_DISABLE_AVX2 semantics: disabled iff set, non-empty, and not
/// literally "0".
bool ParseDisableAvx2(const char* value);

/// Test-only: force the dispatch table (`nullptr` restores the startup
/// policy). Not thread-safe against concurrent kernel execution.
void OverrideVecOpsForTesting(const HaarVecOps* ops);

}  // namespace internal

}  // namespace vecube

#endif  // VECUBE_HAAR_SIMD_H_
