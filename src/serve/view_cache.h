// ViewCache: concurrent, benefit-weighted memoization of assembled view
// element tensors — the serving layer in front of dynamic assembly.
//
// The paper's cost/benefit model turned into a replacement policy: every
// resident entry carries the Procedure-3 assembly cost T_n it saved (the
// add/subtract operations a cache miss would spend re-assembling it) and
// an exponentially decayed hit weight (the same decayed-frequency
// estimate AccessTracker keeps for the selection loop). The eviction
// victim is the entry minimizing
//
//   score = decayed_hit_weight * (1 + T_n)
//
// i.e. we evict what is cold AND cheap to rebuild, and keep what is hot
// or expensive — exactly the benefit metric Section 5 optimizes, applied
// to cache residency instead of materialization.
//
// Concurrency (DESIGN.md §10): the hit path is contention-free. Each
// shard publishes an immutable table of entries through an atomic
// pointer; readers pin a process-wide epoch (util/epoch.h), load the
// table, and record the hit with one relaxed fetch_add on the entry's
// own counter — no mutex, no shared_ptr refcount traffic, no shared
// mutable map. Writers (insert / evict / invalidate / flush / patch)
// serialize on a per-shard mutex, copy-on-write the table or entry, and
// retire the old version through the epoch limbo, so a reader holding a
// ReadHandle can never observe freed memory and never blocks a writer.
//
// Misses are single-flight: concurrent misses on one ElementId coalesce
// onto a single assembly. LookupOrBegin() returns either a hit, a leader
// ticket (the caller assembles and publishes via CompleteFill), or a
// follower ticket (WaitFill blocks until the leader finishes). In src/,
// ElementServer (serve/serving.h) is the only caller of this protocol. The
// leader's ticket carries the shard's flush epoch from before the
// assembly started; a flush (InvalidateAll) that lands mid-assembly
// bumps the epoch, and the completed fill is then served to the waiters
// whose lookups began before the flush but is NOT retained — a stale
// pre-flush tensor can never be re-inserted and served to later queries.
//
// Write model: every view element is a linear functional of the data
// cube, so a point delta A[x] += δ moves exactly one cell of every cached
// tensor by ±δ (the (k,o) projection of core/update.h). ApplyPointDelta
// patches each resident entry instead of dropping it: cached tensors are
// immutable (readers hold them lock-free), so the ±δ goes into the
// entry's append-only patch log, which readers apply to the prefix they
// observe. A full log is compacted copy-on-write into a fresh entry,
// swapped into the entry's table slot without republishing the table.
// Only reconfiguration/optimization flush (InvalidateAll): they swap the
// materialized set, changing every entry's rebuild cost.

#ifndef VECUBE_SERVE_VIEW_CACHE_H_
#define VECUBE_SERVE_VIEW_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/element_id.h"
#include "cube/shape.h"
#include "cube/tensor.h"
#include "util/epoch.h"
#include "util/query_context.h"
#include "util/status.h"
#include "util/sync.h"

namespace vecube {

/// An immutable answer tensor that either owns its Tensor (a fresh
/// assembly, a degraded answer, a patched copy) or shares one a ViewCache
/// holds. A cached tensor is never written once published — deltas go to
/// its entry's patch log and compaction builds a new tensor — so a shared
/// answer is the snapshot taken at lookup, and it stays valid after the
/// entry is patched, invalidated or evicted. Take() hands the caller a
/// Tensor of its own: a move when owned, a copy when shared.
class AnswerTensor {
 public:
  AnswerTensor() = default;
  explicit AnswerTensor(Tensor owned) noexcept : owned_(std::move(owned)) {}
  explicit AnswerTensor(std::shared_ptr<const Tensor> shared) noexcept
      : shared_(std::move(shared)) {}

  [[nodiscard]] const Tensor& get() const {
    return shared_ != nullptr ? *shared_ : owned_;
  }
  // Implicit, so an answer reads wherever a const Tensor& is expected.
  operator const Tensor&() const { return get(); }  // NOLINT
  [[nodiscard]] uint64_t size() const { return get().size(); }
  [[nodiscard]] const TensorBuffer& data() const { return get().data(); }
  double operator[](uint64_t flat) const { return get()[flat]; }
  /// True when the tensor is shared with a cache rather than owned.
  [[nodiscard]] bool shared() const { return shared_ != nullptr; }

  /// The tensor as the caller's own: moved out when owned, copied when
  /// shared.
  [[nodiscard]] Tensor Take() && {
    return shared_ != nullptr ? Tensor(*shared_) : std::move(owned_);
  }
  /// The tensor behind a shared pointer: the shared one itself, or the
  /// owned one moved into a fresh allocation.
  [[nodiscard]] std::shared_ptr<const Tensor> Share() && {
    return shared_ != nullptr
               ? std::move(shared_)
               : std::make_shared<const Tensor>(std::move(owned_));
  }

 private:
  std::shared_ptr<const Tensor> shared_;
  Tensor owned_;
};

struct ViewCacheOptions {
  /// Consumed by the embedding layer (OlapSession): when false it
  /// constructs no cache, and its ElementServer serves every query by a
  /// direct fill (no coalescing, zeroed metrics; a session's RangeSum
  /// keeps its intermediates in the range engine's private store). A directly constructed ViewCache is always live.
  bool enabled = false;
  /// Total resident-data budget across all shards, in bytes of tensor
  /// payload. Entries larger than capacity_bytes / shards are served but
  /// never retained.
  uint64_t capacity_bytes = uint64_t{64} << 20;
  /// Number of independently locked shards (>= 1). Writers on different
  /// shards never contend; readers never contend at all.
  uint32_t shards = 8;
  /// Per-shard-write exponential decay of entry hit weights, in (0, 1].
  /// 1.0 = plain hit counting. Applied lazily: hits accumulate in a
  /// lock-free per-entry counter and are folded into the decayed weight
  /// when a writer next touches the shard (hits themselves never touch
  /// shared decay state — that is what makes the hit path contention-free).
  double heat_decay = 0.98;
};

/// Aggregate serving counters, queryable from the session and dumped by
/// vecube_cli. A point-in-time snapshot across shards. Counters are
/// exact: a hit recorded by any reader is eventually folded into `hits`
/// and never dropped, even across concurrent flushes (the fold happens
/// only after epoch reclamation proves no reader still holds the entry).
struct ServeMetrics {
  uint64_t hits = 0;
  uint64_t misses = 0;
  /// Queries served by waiting on another caller's in-flight assembly of
  /// the same element (single-flight coalescing). Counted inside `hits`.
  uint64_t coalesced_hits = 0;
  uint64_t insertions = 0;
  uint64_t rejected_inserts = 0;  ///< entries too large to ever retain
  /// Completed fills dropped because a flush intervened between the
  /// miss and the insert: the answer was served but not retained.
  uint64_t stale_fills = 0;
  uint64_t evictions = 0;        ///< entries displaced by capacity pressure
  uint64_t invalidations = 0;    ///< entries dropped by invalidate/flush
  /// Entry cells moved by point deltas (one per resident entry per
  /// ApplyPointDelta), whether logged or folded into a compaction.
  uint64_t patches = 0;
  /// Copy-on-write rebuilds of entries whose patch log was full. Not
  /// invalidations, misses or evictions: the entry stays resident.
  uint64_t compactions = 0;
  uint64_t entries = 0;          ///< currently resident
  uint64_t bytes_resident = 0;   ///< payload bytes currently resident
  /// Σ Procedure-3 cost over hits: assembly operations the cache saved.
  uint64_t assembly_ops_saved = 0;
  /// Σ Procedure-3 cost over fills: assembly operations actually spent by
  /// callers populating the cache. With single-flight coalescing this is
  /// thread-count-invariant, and
  ///   assembly_ops_saved + assembly_ops_executed == Σ per-query cost
  /// holds at every concurrency level (each query is exactly one of:
  /// hit, coalesced hit, or leader fill).
  uint64_t assembly_ops_executed = 0;

  // Robustness counters (DESIGN.md §13), recorded by the serving layers
  // via the Record* hooks below. Cacheless sessions report zeroes.
  uint64_t deadline_exceeded = 0;  ///< queries that ran out of deadline
  uint64_t shed = 0;               ///< queries refused by admission control
  uint64_t degraded = 0;           ///< queries answered approximately
  uint64_t follower_retries = 0;   ///< WaitFill retries after leader aborts

  [[nodiscard]] double HitRate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

/// Sharded, thread-safe memoization of assembled element tensors. All
/// public methods are safe to call concurrently from any thread (but see
/// the ReadHandle thread-affinity note).
class ViewCache {
 private:
  struct Flight;
  struct Patch;
  struct Entry;
  struct Slot;
  struct Table;
  struct Shard;

 public:
  /// Patch-log capacity per entry: a resident entry absorbs this many
  /// point deltas in place before ApplyPointDelta compacts it
  /// copy-on-write.
  static constexpr uint32_t kPatchCapacity = 64;

  explicit ViewCache(ViewCacheOptions options = {});
  ~ViewCache();

  ViewCache(const ViewCache&) = delete;
  ViewCache& operator=(const ViewCache&) = delete;

  /// A zero-refcount, epoch-pinned view of a cached entry: its tensor
  /// plus the prefix of its patch log published when the lookup ran.
  /// Every read goes through the accessors, which apply that prefix, so
  /// a handle answers one consistent state however many deltas land
  /// after it was taken. While the handle lives, the entry cannot be
  /// reclaimed (writers retire it into the epoch limbo instead of
  /// freeing it). Release promptly — a long-lived handle delays memory
  /// reclamation, though it never blocks writers. Must be destroyed on
  /// the thread that looked it up.
  class ReadHandle {
   public:
    ReadHandle() noexcept = default;
    ReadHandle(ReadHandle&&) noexcept = default;
    ReadHandle& operator=(ReadHandle&&) noexcept = default;
    ReadHandle(const ReadHandle&) = delete;
    ReadHandle& operator=(const ReadHandle&) = delete;

    explicit operator bool() const { return entry_ != nullptr; }
    /// The cached tensor with the observed patches applied.
    [[nodiscard]] Tensor CopyOut() const;
    /// The same value without a copy when no patch was observed: the
    /// cached tensor itself, shared (one refcount bump). Else the
    /// patched copy, owned. May outlive the handle and the entry.
    [[nodiscard]] AnswerTensor Value() const;
    /// One cell of CopyOut(), by flat index or coordinates, without the
    /// copy. Bit-identical to the same cell of CopyOut().
    [[nodiscard]] double At(uint64_t flat) const;
    [[nodiscard]] double At(const std::vector<uint32_t>& coords) const;

   private:
    friend class ViewCache;
    /// Snapshots the entry's published patch count (acquire).
    ReadHandle(EpochDomain::Pin pin, const Entry* entry) noexcept;

    EpochDomain::Pin pin_;
    const Entry* entry_ = nullptr;
    uint32_t num_patches_ = 0;
  };

  /// Permission to fill one element, handed out by LookupOrBegin() on a
  /// miss. Exactly one concurrent caller per ElementId is the leader
  /// (it must call CompleteFill or AbortFill); the rest are followers
  /// (they call WaitFill).
  class FillTicket {
   public:
    FillTicket() noexcept = default;
    FillTicket(FillTicket&&) noexcept = default;
    FillTicket& operator=(FillTicket&&) noexcept = default;
    FillTicket(const FillTicket&) = delete;
    FillTicket& operator=(const FillTicket&) = delete;

    [[nodiscard]] bool valid() const { return flight_ != nullptr; }
    [[nodiscard]] bool leader() const { return leader_; }

   private:
    friend class ViewCache;
    std::shared_ptr<Flight> flight_;
    ElementId id_;
    uint64_t flush_epoch_ = 0;
    bool leader_ = false;
  };

  /// Outcome of LookupOrBegin: exactly one of `hit` / `fill` is set.
  struct LookupOutcome {
    ReadHandle hit;
    FillTicket fill;
  };

  /// Contention-free hit path: returns an epoch-pinned view of the
  /// cached tensor, or an empty handle on a miss. A hit bumps the
  /// entry's lock-free hit counter (folded into decayed heat and
  /// assembly_ops_saved by the next writer / Metrics() call).
  [[nodiscard]] ReadHandle LookupPinned(const ElementId& id);

  /// Compatibility hit path: like LookupPinned but hands out a
  /// shared_ptr that may outlive the cache entry and be held
  /// indefinitely: ReadHandle::Value() as a shared pointer. Null on a
  /// miss.
  std::shared_ptr<const Tensor> Lookup(const ElementId& id);

  /// Single-flight entry point: a hit returns a pinned handle; the first
  /// concurrent miss per id returns a leader ticket (the caller must
  /// assemble and then CompleteFill/AbortFill); later misses on the same
  /// id return follower tickets for WaitFill. Only the leader's miss is
  /// counted in `misses`.
  LookupOutcome LookupOrBegin(const ElementId& id);

  /// Publishes the leader's assembly result: retains it (unless a flush
  /// intervened since LookupOrBegin — then it is a stale fill and only
  /// served, not retained), wakes all followers, and returns a shared
  /// handle for the leader's own answer.
  std::shared_ptr<const Tensor> CompleteFill(FillTicket ticket, Tensor data,
                                             uint64_t assembly_cost);

  /// Leader's failure path: wakes followers with `cause` (their WaitFill
  /// surfaces it; see FillWait). A leader-local cause (kDeadlineExceeded,
  /// kCancelled) invites followers with budget left to retry and become
  /// the next leader; any other status is the element's own failure and
  /// propagates. The default cause marks an unspecified leader failure.
  void AbortFill(FillTicket ticket,
                 Status cause = Status::Unavailable("fill aborted"));

  /// What a follower's wait resolved to. Exactly one of:
  ///  * status OK and data set — the leader completed (coalesced hit);
  ///  * status kDeadlineExceeded/kCancelled from the follower's own
  ///    context — the wait was cut short, the fill may still be running;
  ///  * the leader's abort cause — the fill failed (data null).
  struct FillWait {
    std::shared_ptr<const Tensor> data;
    Status status = Status::OK();
  };

  /// Follower wait: blocks until the leader completes or aborts, or the
  /// follower's own context expires — every wait is a bounded timed
  /// slice, never an unconditional block. On completion the query is a
  /// coalesced hit (credited with the entry's assembly cost in
  /// ops_saved).
  FillWait WaitFill(const FillTicket& ticket,
                    const QueryContext& ctx = QueryContext());

  /// Caches `data` for `id` with its Procedure-3 assembly cost and
  /// returns a shared handle to it (also when the entry is too large to
  /// retain — the caller can still serve from the returned pointer).
  /// If `id` is already resident the existing entry is kept (first
  /// writer wins; concurrent assemblies of one element are bit-identical
  /// by determinism) and its current value returned (patched copy when
  /// patches are pending). Evicts minimum-score entries in the
  /// target shard until the new entry fits.
  std::shared_ptr<const Tensor> Insert(const ElementId& id, Tensor data,
                                       uint64_t assembly_cost);

  /// Drops one entry if resident.
  void Invalidate(const ElementId& id);

  /// Wholesale flush — the reconfiguration hook (the materialized set
  /// changed). Returns the number of entries dropped. Bumps every
  /// shard's flush epoch so in-flight fills that began before the flush
  /// cannot re-insert their (now stale) tensors.
  uint64_t InvalidateAll();

  /// The write hook: A[coords] += delta on the cube of `shape` moves one
  /// cell of every resident entry by ±delta (ProjectPoint). Appends that
  /// patch to each entry's log, compacting full logs copy-on-write (heat
  /// and pending hits carry over; nothing is dropped). Bumps every
  /// shard's flush epoch like InvalidateAll, so a fill that began before
  /// the write is served but not retained. Every resident id must belong
  /// to `shape`; fails, patching nothing, when `coords` does not.
  Status ApplyPointDelta(const CubeShape& shape,
                         const std::vector<uint32_t>& coords, double delta);

  [[nodiscard]] ServeMetrics Metrics() const;

  /// Robustness accounting hooks for the serving layers (the cache is
  /// the one object every worker shares, so the counters live here).
  void RecordDeadlineExceeded() {
    // order: relaxed — standalone event counters; snapshot by Metrics().
    deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
  }
  void RecordShed() {
    // order: relaxed — see RecordDeadlineExceeded.
    shed_.fetch_add(1, std::memory_order_relaxed);
  }
  void RecordDegraded() {
    // order: relaxed — see RecordDeadlineExceeded.
    degraded_.fetch_add(1, std::memory_order_relaxed);
  }
  void RecordFollowerRetry() {
    // order: relaxed — see RecordDeadlineExceeded.
    follower_retries_.fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] uint64_t capacity_bytes() const {
    return options_.capacity_bytes;
  }
  [[nodiscard]] uint32_t num_shards() const {
    return static_cast<uint32_t>(shards_.size());
  }

 private:
  Shard& ShardFor(const ElementId& id);
  /// Fast-path probe shared by Lookup/LookupPinned/LookupOrBegin.
  /// `count_miss` controls whether a miss ticks the shard miss counter
  /// (LookupOrBegin counts the miss only when a leader is appointed).
  ReadHandle FindPinned(const ElementId& id, bool count_miss);
  /// `entry`'s tensor with its first `num_patches` patches applied in
  /// log order. Caller keeps the entry alive (pin or shard.mu).
  static Tensor Patched(const Entry& entry, uint32_t num_patches);
  /// `entry`'s value with its first `num_patches` patches applied: its
  /// tensor, shared, when that count is zero; else Patched(), owned. The
  /// one place that makes this choice. Caller keeps the entry alive (pin
  /// or shard.mu).
  static AnswerTensor CurrentValue(const Entry& entry, uint32_t num_patches);
  /// Shared retain path for Insert and CompleteFill: dedup (first writer
  /// wins), oversized rejection, eviction, COW publish. Returns the
  /// tensor to serve (the retained one on dedup). Caller holds shard.mu.
  std::shared_ptr<const Tensor> InsertLocked(
      Shard* shard, const ElementId& id,
      std::shared_ptr<const Tensor> shared, uint64_t assembly_cost)
      VECUBE_REQUIRES(shard->mu);
  /// Folds an entry's pending lock-free hits into its decayed heat and
  /// the shard's persistent counters. Caller holds shard.mu.
  void FoldEntryLocked(Shard* shard, Entry* entry) const
      VECUBE_REQUIRES(shard->mu);
  /// Benefit score after folding: decayed heat * (1 + assembly cost).
  /// Caller holds shard.mu.
  [[nodiscard]] double ScoreLocked(const Shard& shard,
                                   const Entry& entry) const
      VECUBE_REQUIRES(shard.mu);
  /// Builds `next` from the shard's live table minus enough minimum-
  /// score victims that `needed` more bytes fit. Caller holds shard.mu.
  void EvictIntoLocked(Shard* shard, Table* next, uint64_t needed)
      VECUBE_REQUIRES(shard->mu);
  /// Publishes `next` as the shard's live table and retires the previous
  /// one (plus `removed` entries) into the epoch limbo. Caller holds
  /// shard.mu.
  void PublishLocked(Shard* shard, std::unique_ptr<Table> next,
                     std::vector<std::shared_ptr<Entry>> removed)
      VECUBE_REQUIRES(shard->mu);
  /// Tags `old` (may be null) and `removed` with a fresh retire epoch,
  /// parks them in the limbo, and reclaims what readers have vacated.
  /// Caller holds shard.mu.
  void RetireLocked(Shard* shard, std::unique_ptr<const Table> old,
                    std::vector<std::shared_ptr<Entry>> removed)
      VECUBE_REQUIRES(shard->mu);
  /// Frees limbo tables/entries whose retire epoch has been vacated by
  /// every reader, folding the final hit counts of dying entries into
  /// the shard counters. Caller holds shard.mu.
  void ReclaimLocked(Shard* shard) const VECUBE_REQUIRES(shard->mu);

  ViewCacheOptions options_;  ///< immutable after construction
  uint64_t shard_capacity_bytes_;  ///< immutable after construction
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> deadline_exceeded_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> degraded_{0};
  std::atomic<uint64_t> follower_retries_{0};
};

}  // namespace vecube

#endif  // VECUBE_SERVE_VIEW_CACHE_H_
