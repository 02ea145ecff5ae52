#include "haar/transform.h"

#include <algorithm>
#include <string>
#include <vector>

#include "haar/simd.h"
#include "util/logging.h"

namespace vecube {

namespace {

struct AxisGeometry {
  uint64_t outer = 0;  // product of extents before `dim`
  uint64_t n = 0;      // extent along `dim`
  uint64_t inner = 0;  // product of extents after `dim` (== stride of dim)
};

Result<AxisGeometry> CheckAnalysisArgs(const Tensor& input, uint32_t dim) {
  if (dim >= input.ndim()) {
    return Status::InvalidArgument("dimension " + std::to_string(dim) +
                                   " out of range for tensor of rank " +
                                   std::to_string(input.ndim()));
  }
  AxisGeometry g;
  g.n = input.extent(dim);
  if (g.n < 2 || (g.n & 1) != 0) {
    return Status::FailedPrecondition(
        "partial aggregation along dimension " + std::to_string(dim) +
        " requires an even extent >= 2, got " + std::to_string(g.n));
  }
  g.inner = input.stride(dim);
  g.outer = input.size() / (g.n * g.inner);
  return g;
}

std::vector<uint32_t> HalvedExtents(const Tensor& input, uint32_t dim) {
  std::vector<uint32_t> extents = input.extents();
  extents[dim] /= 2;
  return extents;
}

// Row indexing: with k = o * half + i ranging over [0, outer * half), the
// analysis kernels read input rows 2k and 2k+1 (each `inner` cells) and
// write output row k; synthesis is the transpose. The o/i loop nests of
// the serial kernels collapse to this single row loop, which is what the
// pool chunks over. Each row is >= `inner` cells of work; the grain is
// the least row count per chunk carrying kParallelKernelCells cells
// (internal::KernelRowGrain).
void RunRows(ThreadPool* pool, uint64_t rows, uint64_t inner,
             uint64_t total_cells, ThreadPool::ChunkFn body) {
  if (pool == nullptr || pool->num_threads() <= 1 ||
      total_cells < kParallelKernelCells) {
    body(0, rows);
    return;
  }
  pool->ParallelFor(rows, internal::KernelRowGrain(inner), body);
}

}  // namespace

Result<Tensor> PartialSum(const Tensor& input, uint32_t dim, OpCounter* ops,
                          ThreadPool* pool) {
  AxisGeometry g;
  VECUBE_ASSIGN_OR_RETURN(g, CheckAnalysisArgs(input, dim));
  Tensor out;
  VECUBE_ASSIGN_OR_RETURN(out, Tensor::Uninitialized(HalvedExtents(input, dim)));

  const double* src = input.raw();
  double* dst = out.raw();
  const uint64_t inner = g.inner;
  const uint64_t rows = g.outer * (g.n / 2);
  const HaarVecOps& vec = VecOps();
  RunRows(pool, rows, inner, out.size(), [=](uint64_t begin, uint64_t end) {
    if (inner == 1) {
      // Innermost dimension: adjacent even/odd pairs, one deinterleaving
      // sweep over the chunk.
      vec.pair_sum(src + 2 * begin, dst + begin, end - begin);
      return;
    }
    for (uint64_t k = begin; k < end; ++k) {
      const double* even = src + (2 * k) * inner;
      const double* odd = even + inner;
      vec.add_rows(even, odd, dst + k * inner, inner);
    }
  });
  if (ops != nullptr) ops->adds += out.size();
  return out;
}

Result<Tensor> PartialResidual(const Tensor& input, uint32_t dim,
                               OpCounter* ops, ThreadPool* pool) {
  AxisGeometry g;
  VECUBE_ASSIGN_OR_RETURN(g, CheckAnalysisArgs(input, dim));
  Tensor out;
  VECUBE_ASSIGN_OR_RETURN(out, Tensor::Uninitialized(HalvedExtents(input, dim)));

  const double* src = input.raw();
  double* dst = out.raw();
  const uint64_t inner = g.inner;
  const uint64_t rows = g.outer * (g.n / 2);
  const HaarVecOps& vec = VecOps();
  RunRows(pool, rows, inner, out.size(), [=](uint64_t begin, uint64_t end) {
    if (inner == 1) {
      vec.pair_diff(src + 2 * begin, dst + begin, end - begin);
      return;
    }
    for (uint64_t k = begin; k < end; ++k) {
      const double* even = src + (2 * k) * inner;
      const double* odd = even + inner;
      vec.sub_rows(even, odd, dst + k * inner, inner);
    }
  });
  if (ops != nullptr) ops->adds += out.size();
  return out;
}

Status PartialPair(const Tensor& input, uint32_t dim, Tensor* partial,
                   Tensor* residual, OpCounter* ops, ThreadPool* pool) {
  if (partial == nullptr || residual == nullptr) {
    return Status::InvalidArgument("output pointers must be non-null");
  }
  AxisGeometry g;
  VECUBE_ASSIGN_OR_RETURN(g, CheckAnalysisArgs(input, dim));
  VECUBE_ASSIGN_OR_RETURN(*partial,
                          Tensor::Uninitialized(HalvedExtents(input, dim)));
  VECUBE_ASSIGN_OR_RETURN(*residual,
                          Tensor::Uninitialized(HalvedExtents(input, dim)));

  const double* src = input.raw();
  double* dst_p = partial->raw();
  double* dst_r = residual->raw();
  const uint64_t inner = g.inner;
  const uint64_t rows = g.outer * (g.n / 2);
  const HaarVecOps& vec = VecOps();
  RunRows(pool, rows, inner, partial->size(),
          [=](uint64_t begin, uint64_t end) {
            if (inner == 1) {
              vec.pair_both(src + 2 * begin, dst_p + begin, dst_r + begin,
                            end - begin);
              return;
            }
            for (uint64_t k = begin; k < end; ++k) {
              const double* even = src + (2 * k) * inner;
              const double* odd = even + inner;
              vec.addsub_rows(even, odd, dst_p + k * inner,
                              dst_r + k * inner, inner);
            }
          });
  if (ops != nullptr) ops->adds += partial->size() + residual->size();
  return Status::OK();
}

Result<Tensor> SynthesizePair(const Tensor& partial, const Tensor& residual,
                              uint32_t dim, OpCounter* ops, ThreadPool* pool) {
  if (partial.extents() != residual.extents()) {
    return Status::InvalidArgument(
        "partial and residual children must have identical extents (" +
        partial.ShapeString() + " vs " + residual.ShapeString() + ")");
  }
  if (dim >= partial.ndim()) {
    return Status::InvalidArgument("dimension out of range");
  }
  std::vector<uint32_t> extents = partial.extents();
  extents[dim] *= 2;
  Tensor out;
  VECUBE_ASSIGN_OR_RETURN(out, Tensor::Uninitialized(std::move(extents)));

  const uint64_t inner = partial.stride(dim);
  const uint64_t half = partial.extent(dim);
  const uint64_t outer = partial.size() / (half * inner);
  const double* src_p = partial.raw();
  const double* src_r = residual.raw();
  double* dst = out.raw();
  const uint64_t rows = outer * half;
  const HaarVecOps& vec = VecOps();
  RunRows(pool, rows, 2 * inner, out.size(), [=](uint64_t begin, uint64_t end) {
    if (inner == 1) {
      vec.pair_synth(src_p + begin, src_r + begin, dst + 2 * begin,
                     end - begin);
      return;
    }
    for (uint64_t k = begin; k < end; ++k) {
      double* even = dst + (2 * k) * inner;
      vec.synth_rows(src_p + k * inner, src_r + k * inner, even,
                     even + inner, inner);
    }
  });
  // Eqs. 3-4: one add/sub plus one halving per output cell. Halvings go
  // to `muls` so `adds` stays equal to the Procedure-3 plan cost (the
  // paper's cost model counts additive operations only).
  if (ops != nullptr) {
    ops->adds += out.size();
    ops->muls += out.size();
  }
  return out;
}

}  // namespace vecube
