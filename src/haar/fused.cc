#include "haar/fused.h"

#include <algorithm>
#include <atomic>
#include <string>

#include "haar/simd.h"

namespace vecube {

namespace internal {
namespace {
std::atomic<uint64_t> g_fused_budget_cells{kDefaultFusedBudgetCells};
}  // namespace

uint64_t FusedBudgetCells() {
  // order: relaxed — a standalone tuning knob; no data is published
  // through it, and any torn-epoch read would still be a valid budget.
  return g_fused_budget_cells.load(std::memory_order_relaxed);
}

void SetFusedBudgetForTesting(uint64_t cells) {
  // order: relaxed — test-only knob, set before kernels run; readers
  // only need atomicity, not ordering.
  g_fused_budget_cells.store(cells == 0 ? kDefaultFusedBudgetCells : cells,
                             std::memory_order_relaxed);
}

}  // namespace internal

namespace {

// Extra cells after the first ping-pong tile, so the two tiles do not
// start a multiple of 4 KiB apart: a pass reads one tile and writes the
// other at equal offsets, and addresses equal modulo 4 KiB make the CPU
// suspect false store-to-load dependencies (4K aliasing).
constexpr uint64_t kPingPongStaggerCells = 72;  // 576 bytes

// Cell cap of a chunk that spans consecutive slabs of an innermost group
// (inner == 1), chosen from a per-dimension CascadeSum sweep (DESIGN.md
// §11): one row per chunk ran the innermost dimension 2-10x slower than
// the others, while a scratch-budget-sized span slowed multi-dimension
// groups down.
constexpr uint64_t kInnermostChunkCells = 2048;

// One P1/R1 pass inside a fused group, described over the group's
// dimension window [lo..hi] (the "mid" shape): the step dimension has
// extent `n`, `group_outer` mid cells precede it and `deeper` follow it,
// so the pass pairs rows of `deeper` mid cells.
struct Pass {
  uint64_t group_outer = 1;
  uint64_t n = 2;
  uint64_t deeper = 1;
  StepKind kind = StepKind::kPartial;
};

// A maximal run of consecutive steps executed as one slab pass per
// (outer slab, inner tile) chunk.
struct Group {
  size_t first = 0;
  size_t count = 0;
  uint32_t lo = 0;  // dimension window, inclusive
  uint32_t hi = 0;
  uint64_t entry_volume = 1;          // product of entry extents over [lo..hi]
  std::vector<uint32_t> exit_extents;  // full extents after the group
  std::vector<Pass> passes;            // one per step, in order
};

// Greedy left-to-right grouping: extend the current group while the merged
// dimension window's entry volume keeps the first intermediate (volume/2
// mid cells per inner column) within the scratch budget. Depends only on
// the input shape, the step list, and the budget — never on data — so
// planning is deterministic.
std::vector<Group> PlanGroups(std::vector<uint32_t> extents,
                              const std::vector<CascadeStep>& steps,
                              uint64_t budget) {
  std::vector<Group> groups;
  size_t i = 0;
  while (i < steps.size()) {
    Group g;
    g.first = i;
    g.count = 1;
    g.lo = g.hi = steps[i].dim;
    const std::vector<uint32_t> entry = extents;
    extents[steps[i].dim] /= 2;
    size_t j = i + 1;
    while (j < steps.size()) {
      const uint32_t q = steps[j].dim;
      const uint32_t lo = std::min(g.lo, q);
      const uint32_t hi = std::max(g.hi, q);
      uint64_t volume = 1;
      for (uint32_t m = lo; m <= hi; ++m) volume *= entry[m];
      if (volume / 2 > budget) break;
      g.lo = lo;
      g.hi = hi;
      extents[q] /= 2;
      ++g.count;
      ++j;
    }
    for (uint32_t m = g.lo; m <= g.hi; ++m) g.entry_volume *= entry[m];
    std::vector<uint32_t> mid(entry.begin() + g.lo,
                              entry.begin() + g.hi + 1);
    for (size_t s = g.first; s < g.first + g.count; ++s) {
      const uint32_t q = steps[s].dim - g.lo;
      Pass p;
      p.kind = steps[s].kind;
      p.n = mid[q];
      for (uint32_t m = 0; m < q; ++m) p.group_outer *= mid[m];
      for (size_t m = q + 1; m < mid.size(); ++m) p.deeper *= mid[m];
      g.passes.push_back(p);
      mid[q] /= 2;
    }
    g.exit_extents = extents;
    groups.push_back(std::move(g));
    i = j;
  }
  return groups;
}

// Runs one pass over one slab tile. Both layouts address mid cell `c`,
// window offset `j` at base + c * unit + j: packed scratch has unit == w,
// the input/output tensors have unit == inner (bases pre-offset to the
// slab and window).
void RunPass(const Pass& p, const double* src, uint64_t src_unit, double* dst,
             uint64_t dst_unit, uint64_t w, const HaarVecOps& vec) {
  const uint64_t half = p.n / 2;
  const uint64_t deeper = p.deeper;
  const bool partial = p.kind == StepKind::kPartial;
  if (src_unit == w && dst_unit == w) {
    // Both sides packed (or the tile spans the full inner block): rows of
    // `deeper * w` contiguous cells.
    const uint64_t row = deeper * w;
    if (row == 1) {
      // Pairs are adjacent across the entire pass: one deinterleaving
      // sweep over group_outer * half output cells.
      if (partial) {
        vec.pair_sum(src, dst, p.group_outer * half);
      } else {
        vec.pair_diff(src, dst, p.group_outer * half);
      }
      return;
    }
    for (uint64_t g = 0; g < p.group_outer; ++g) {
      const double* sg = src + g * p.n * row;
      double* dg = dst + g * half * row;
      for (uint64_t i = 0; i < half; ++i) {
        const double* even = sg + (2 * i) * row;
        if (partial) {
          vec.add_rows(even, even + row, dg + i * row, row);
        } else {
          vec.sub_rows(even, even + row, dg + i * row, row);
        }
      }
    }
    return;
  }
  // Windowed tensor edge (first or last pass of a tiled slab): w-cell rows
  // at `unit` strides per mid cell.
  for (uint64_t g = 0; g < p.group_outer; ++g) {
    for (uint64_t i = 0; i < half; ++i) {
      const uint64_t src_base = (g * p.n + 2 * i) * deeper;
      const uint64_t dst_base = (g * half + i) * deeper;
      for (uint64_t t = 0; t < deeper; ++t) {
        const double* even = src + (src_base + t) * src_unit;
        const double* odd = src + (src_base + deeper + t) * src_unit;
        double* out = dst + (dst_base + t) * dst_unit;
        if (partial) {
          vec.add_rows(even, odd, out, w);
        } else {
          vec.sub_rows(even, odd, out, w);
        }
      }
    }
  }
}

// Chunk geometry of one group over a tensor with the group's entry
// extents: (outer slab, inner tile) decomposition, tile width under the
// scratch budget, and the per-buffer ping-pong size. An innermost group
// (inner == 1) stores each slab as one contiguous run, so its chunk spans
// `slabs` consecutive slabs, up to kInnermostChunkCells cells.
struct GroupGeom {
  uint64_t outer = 1;
  uint64_t inner = 1;
  uint64_t exit_volume = 1;   // window cells after the group
  uint64_t tile_width = 1;
  uint64_t tiles = 1;
  uint64_t slabs = 1;         // consecutive outer slabs per chunk
  uint64_t chunks = 1;
  uint64_t scratch_cells = 0;  // per ping buffer
};

GroupGeom ComputeGeom(const std::vector<uint32_t>& entry_extents,
                      const Group& g, uint64_t budget) {
  GroupGeom geo;
  for (uint32_t m = 0; m < g.lo; ++m) geo.outer *= entry_extents[m];
  for (size_t m = g.hi + 1; m < entry_extents.size(); ++m) {
    geo.inner *= entry_extents[m];
  }
  geo.exit_volume = g.entry_volume >> g.count;
  geo.tile_width =
      std::clamp<uint64_t>(budget / (g.entry_volume / 2), 1, geo.inner);
  geo.tiles = (geo.inner + geo.tile_width - 1) / geo.tile_width;
  if (geo.inner == 1) {
    geo.slabs = std::clamp<uint64_t>(kInnermostChunkCells / g.entry_volume,
                                     1, geo.outer);
  }
  geo.chunks = (geo.outer + geo.slabs - 1) / geo.slabs * geo.tiles;
  geo.scratch_cells = (g.entry_volume / 2) * geo.tile_width * geo.slabs;
  return geo;
}

// Runs chunk `c` of group `g`: the whole pass pipeline for one
// (slabs, tile) unit, ping-ponging intermediates through `bufs` (each
// >= geo.scratch_cells; untouched when the group is single-pass).
// Spanned slabs are adjacent in memory, so they run as one pass with
// `group_outer` scaled: the same pairs in the same order.
void RunChunk(const Group& g, const GroupGeom& geo, uint64_t c,
              const double* in_raw, double* out_raw, double* const bufs[2],
              const HaarVecOps& vec) {
  const uint64_t o = c / geo.tiles * geo.slabs;
  const uint64_t slabs = std::min(geo.slabs, geo.outer - o);
  const uint64_t j0 = (c % geo.tiles) * geo.tile_width;
  const uint64_t w = std::min(geo.tile_width, geo.inner - j0);
  const double* src = in_raw + o * g.entry_volume * geo.inner + j0;
  uint64_t src_unit = geo.inner;
  double* tensor_dst = out_raw + o * geo.exit_volume * geo.inner + j0;
  int flip = 0;
  for (size_t k = 0; k < g.passes.size(); ++k) {
    double* dst;
    uint64_t dst_unit;
    if (k + 1 == g.passes.size()) {
      dst = tensor_dst;
      dst_unit = geo.inner;
    } else {
      dst = bufs[flip];
      dst_unit = w;
      flip ^= 1;
    }
    Pass pass = g.passes[k];
    pass.group_outer *= slabs;
    RunPass(pass, src, src_unit, dst, dst_unit, w, vec);
    src = dst;
    src_unit = dst_unit;
  }
}

}  // namespace

namespace internal {

Status ExecuteCascadeSerial(const double* in,
                            const std::vector<uint32_t>& in_extents,
                            const std::vector<CascadeStep>& steps, double* out,
                            ShardScratch* scratch, const QueryContext* ctx) {
  uint64_t volume = 1;
  for (const uint32_t e : in_extents) volume *= e;
  if (steps.empty()) {
    std::copy(in, in + volume, out);
    return Status::OK();
  }
  const uint64_t budget = FusedBudgetCells();
  const std::vector<Group> groups = PlanGroups(in_extents, steps, budget);
  const HaarVecOps& vec = VecOps();

  // Size the ping-pong tiles for the largest group up front so every
  // group shares the same two grants.
  std::vector<GroupGeom> geoms;
  geoms.reserve(groups.size());
  uint64_t max_scratch = 0;
  std::vector<uint32_t> entry = in_extents;
  for (const Group& g : groups) {
    geoms.push_back(ComputeGeom(entry, g, budget));
    if (g.passes.size() >= 2) {
      max_scratch = std::max(max_scratch, geoms.back().scratch_cells);
    }
    entry = g.exit_extents;
  }
  double* bufs[2] = {nullptr, nullptr};
  if (max_scratch > 0) {
    bufs[0] = scratch->Take(max_scratch + kPingPongStaggerCells);
    bufs[1] = scratch->Take(max_scratch);
  }

  const double* cur = in;
  for (size_t gi = 0; gi < groups.size(); ++gi) {
    const Group& g = groups[gi];
    const GroupGeom& geo = geoms[gi];
    double* dst;
    if (gi + 1 == groups.size()) {
      dst = out;
    } else {
      uint64_t exit_cells = 1;
      for (const uint32_t e : g.exit_extents) exit_cells *= e;
      dst = scratch->Take(exit_cells);
    }
    for (uint64_t c = 0; c < geo.chunks; ++c) {
      if (ctx != nullptr) VECUBE_RETURN_NOT_OK(ctx->Check());
      RunChunk(g, geo, c, cur, dst, bufs, vec);
    }
    cur = dst;
  }
  return Status::OK();
}

}  // namespace internal

Result<Tensor> CascadeAnalysis(const Tensor& input,
                               const std::vector<CascadeStep>& steps,
                               OpCounter* ops, const QueryContext* ctx) {
  // Validate the whole list up front against the evolving extents,
  // reporting exactly the Status the step-at-a-time kernels would.
  std::vector<uint32_t> extents = input.extents();
  for (const CascadeStep& step : steps) {
    if (step.dim >= extents.size()) {
      return Status::InvalidArgument("dimension " + std::to_string(step.dim) +
                                     " out of range for tensor of rank " +
                                     std::to_string(input.ndim()));
    }
    const uint32_t n = extents[step.dim];
    if (n < 2 || (n & 1) != 0) {
      return Status::FailedPrecondition(
          "partial aggregation along dimension " + std::to_string(step.dim) +
          " requires an even extent >= 2, got " + std::to_string(n));
    }
    extents[step.dim] /= 2;
  }

  Tensor out;
  VECUBE_ASSIGN_OR_RETURN(out, Tensor::Uninitialized(extents));
  ShardScratch scratch;
  VECUBE_RETURN_NOT_OK(internal::ExecuteCascadeSerial(
      input.raw(), input.extents(), steps, out.raw(), &scratch, ctx));

  // Book the cascade analytically: each step costs its output volume,
  // exactly what the per-step kernels would book, so totals are
  // independent of grouping and tiling.
  if (ops != nullptr) {
    uint64_t volume = input.size();
    for (size_t s = 0; s < steps.size(); ++s) {
      volume /= 2;
      ops->adds += volume;
    }
  }
  return out;
}

Result<Tensor> CascadeSum(const Tensor& input, uint32_t dim, uint32_t levels,
                          OpCounter* ops, const QueryContext* ctx) {
  if (dim >= input.ndim()) {
    return Status::InvalidArgument("dimension " + std::to_string(dim) +
                                   " out of range for tensor of rank " +
                                   std::to_string(input.ndim()));
  }
  std::vector<CascadeStep> steps(levels,
                                 CascadeStep{dim, StepKind::kPartial});
  return CascadeAnalysis(input, steps, ops, ctx);
}

}  // namespace vecube
