#include "serve/view_cache.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <deque>
#include <utility>

#include "core/update.h"
#include "util/logging.h"

namespace vecube {

namespace {

// Stripes of an entry's hit counter. A thread draws its stripe round
// robin on its first hit, so up to this many concurrent readers of one
// hot entry bump disjoint cache lines.
constexpr uint32_t kHitStripes = 8;

uint32_t ThreadHitStripe() {
  static std::atomic<uint32_t> next_stripe{0};
  // order: relaxed — a round-robin ticket; nothing is published through it.
  thread_local const uint32_t stripe =
      next_stripe.fetch_add(1, std::memory_order_relaxed) % kHitStripes;
  return stripe;
}

}  // namespace

// One logged point delta: cell `flat_index` of the entry's tensor moves
// by `delta` (the ±1 projection sign already applied).
struct ViewCache::Patch {
  uint64_t flat_index = 0;
  double delta = 0.0;
};

// A resident element. Shared between successive table versions (a COW
// publish copies the pointer, not the entry), so the lock-free hit
// counter a reader bumps is the same object no matter which table
// version the reader loaded. A compaction replaces the entry itself
// (see Slot). `pending_hits` and `num_patches` are the reader-visible
// atomics; `patches[i]` is written once, under the owning shard's mu,
// before `num_patches` passes i, and never again; everything else is
// immutable after construction or guarded by the shard's mu.
struct alignas(64) ViewCache::Entry {
  /// Published prefix of `patches`: release-stored by the writer after
  /// writing the patch, acquire-loaded by readers. Every hit reads it,
  /// so it sits on the entry's first cache line beside data's pointer,
  /// which every hit reads anyway: a hit with no patches pending touches
  /// no line it would not touch without the log.
  std::atomic<uint32_t> num_patches{0};
  std::shared_ptr<const Tensor> data;
  uint64_t assembly_cost = 0;
  uint64_t bytes = 0;
  /// Decayed hit weight as of write-generation `folded_at` (mu).
  double folded_heat = 0.0;
  uint64_t folded_at = 0;
  /// Append-only patch log; read only up to a loaded `num_patches`.
  /// Allocated apart, so the log adds no line to the entry.
  std::unique_ptr<Patch[]> patches = std::make_unique<Patch[]>(kPatchCapacity);
  /// Hits recorded since the last fold, bumped relaxed by readers, one
  /// cache line per stripe, apart from the read-mostly line above. Each
  /// reader thread bumps its own stripe: with one shared counter, 4
  /// threads hitting the same entries took 3-4x the wall of 1 thread
  /// for the same per-thread work, as every bump moved the line.
  struct alignas(64) HitStripe {
    std::atomic<uint64_t> count{0};
  };
  std::array<HitStripe, kHitStripes> pending_hits;

  void CountHit() {
    // order: relaxed — pure event count; folded under shard.mu (or at
    // reclaim, after the epoch proves no reader can still bump it), so
    // no other data is published through this counter.
    pending_hits[ThreadHitStripe()].count.fetch_add(
        1, std::memory_order_relaxed);
  }
  // Takes every stripe's count; serialized by the shard's mu.
  uint64_t DrainHits() {
    uint64_t total = 0;
    for (HitStripe& stripe : pending_hits) {
      // order: relaxed — counts are self-contained; a bump racing the
      // drain lands in this fold or the next.
      total += stripe.count.exchange(0, std::memory_order_relaxed);
    }
    return total;
  }
  // Snapshot of the unfolded hits, for Metrics().
  [[nodiscard]] uint64_t PendingHits() const {
    uint64_t total = 0;
    for (const HitStripe& stripe : pending_hits) {
      // order: relaxed — snapshot of an event counter; hits landing
      // during the walk appear in the next snapshot.
      total += stripe.count.load(std::memory_order_relaxed);
    }
    return total;
  }
};

// A table's hold on one resident entry: readers load `entry`, and
// `owner` keeps it alive for as long as this table version lives. Both
// are written only under the shard's mu — at construction, or when a
// compaction swaps a rebuilt entry into the live table, which is why
// they are mutable: that swap is the one in-place change a published
// table ever sees, and it spares compaction a table copy and publish.
struct ViewCache::Slot {
  explicit Slot(std::shared_ptr<Entry> e)
      : entry(e.get()), owner(std::move(e)) {}
  // Table copies run under the shard's mu, like every write to `owner`.
  Slot(const Slot& other) : Slot(other.owner) {}
  Slot& operator=(const Slot&) = delete;

  mutable std::atomic<Entry*> entry;
  mutable std::shared_ptr<Entry> owner;
};

// One published version of a shard's resident set (immutable but for
// compaction's slot swaps). Readers reach it through Shard::live under
// an epoch pin; writers replace it wholesale and retire the old version
// through the limbo list.
struct ViewCache::Table {
  std::unordered_map<ElementId, Slot, ElementIdHash> map;
  uint64_t bytes = 0;
};

// One in-flight assembly, shared by its leader and all coalesced
// followers. `m`/`cv` are local to the flight — waiting followers never
// touch the shard lock until the result is ready. Lock order: a thread
// never holds `m` and a Shard::mu at once (completion writes the result
// after dropping the shard lock), so flight locks sit outside the shard
// tier of the hierarchy (DESIGN.md §12).
struct ViewCache::Flight {
  Mutex m;
  CondVar cv;
  bool done VECUBE_GUARDED_BY(m) = false;
  bool aborted VECUBE_GUARDED_BY(m) = false;
  std::shared_ptr<const Tensor> result VECUBE_GUARDED_BY(m);
  uint64_t assembly_cost VECUBE_GUARDED_BY(m) = 0;
  /// Why the leader aborted; surfaced to followers via WaitFill.
  Status error VECUBE_GUARDED_BY(m) = Status::OK();
};

struct ViewCache::Shard {
  // A retired table version (null for a compaction) plus the entries
  // that publish or compaction removed, destroyable once every reader
  // epoch passes `tag`. Removed entries ride here explicitly (not just
  // inside the old table) so their final pending hit counts can be
  // folded exactly at reclaim time — after which no reader can still
  // bump them.
  struct Limbo {
    uint64_t tag = 0;
    std::unique_ptr<const Table> table;
    std::vector<std::shared_ptr<Entry>> dying;
  };

  mutable Mutex mu;
  /// The published resident set. Readers: acquire-load under an epoch
  /// pin (lock-free, so not VECUBE_GUARDED_BY). Writers: replaced only
  /// via PublishLocked while holding mu.
  std::atomic<const Table*> live{nullptr};
  /// Misses are recorded on the (lock-free) read path.
  std::atomic<uint64_t> misses{0};

  uint64_t generation VECUBE_GUARDED_BY(mu) = 0;   ///< write generation
  /// Bumped by InvalidateAll and ApplyPointDelta; stales in-flight fills.
  uint64_t flush_epoch VECUBE_GUARDED_BY(mu) = 0;
  uint64_t folded_hits VECUBE_GUARDED_BY(mu) = 0;
  uint64_t coalesced_hits VECUBE_GUARDED_BY(mu) = 0;
  uint64_t insertions VECUBE_GUARDED_BY(mu) = 0;
  uint64_t rejected_inserts VECUBE_GUARDED_BY(mu) = 0;
  uint64_t stale_fills VECUBE_GUARDED_BY(mu) = 0;
  uint64_t evictions VECUBE_GUARDED_BY(mu) = 0;
  uint64_t invalidations VECUBE_GUARDED_BY(mu) = 0;
  uint64_t patches VECUBE_GUARDED_BY(mu) = 0;
  uint64_t compactions VECUBE_GUARDED_BY(mu) = 0;
  uint64_t folded_ops_saved VECUBE_GUARDED_BY(mu) = 0;
  uint64_t ops_executed VECUBE_GUARDED_BY(mu) = 0;
  std::unordered_map<ElementId, std::shared_ptr<Flight>, ElementIdHash>
      flights VECUBE_GUARDED_BY(mu);
  std::deque<Limbo> limbo VECUBE_GUARDED_BY(mu);  ///< retire-tag ascending
};

ViewCache::ViewCache(ViewCacheOptions options) : options_(options) {
  if (options_.shards == 0) options_.shards = 1;
  if (options_.heat_decay <= 0.0 || options_.heat_decay > 1.0) {
    options_.heat_decay = 1.0;
  }
  shard_capacity_bytes_ = options_.capacity_bytes / options_.shards;
  shards_.reserve(options_.shards);
  for (uint32_t s = 0; s < options_.shards; ++s) {
    auto shard = std::make_unique<Shard>();
    auto table = std::make_unique<Table>();
    // order: relaxed — construction; no other thread can see the cache.
    shard->live.store(table.release(), std::memory_order_relaxed);
    shards_.push_back(std::move(shard));
  }
}

ViewCache::~ViewCache() {
  // Precondition (as for any destructor): no concurrent calls. The limbo
  // lists clean themselves up; the published tables are reclaimed here.
  for (auto& shard : shards_) {
    // order: relaxed — destruction precondition is no concurrent calls.
    std::unique_ptr<const Table> live(
        shard->live.exchange(nullptr, std::memory_order_relaxed));
  }
}

ViewCache::Shard& ViewCache::ShardFor(const ElementId& id) {
  return *shards_[ElementIdHash{}(id) % shards_.size()];
}

ViewCache::ReadHandle::ReadHandle(EpochDomain::Pin pin,
                                  const Entry* entry) noexcept
    : pin_(std::move(pin)),
      entry_(entry),
      // order: acquire — pairs with ApplyPointDelta's release store, so
      // every patch below the loaded count is fully written; later ones
      // are never read through this handle.
      num_patches_(entry->num_patches.load(std::memory_order_acquire)) {}

Tensor ViewCache::ReadHandle::CopyOut() const {
  return Patched(*entry_, num_patches_);
}

AnswerTensor ViewCache::ReadHandle::Value() const {
  return CurrentValue(*entry_, num_patches_);
}

double ViewCache::ReadHandle::At(uint64_t flat) const {
  double value = (*entry_->data)[flat];
  // The cell's patches in log order: the same additions, in the same
  // order, as CopyOut() performs on this cell.
  for (uint32_t i = 0; i < num_patches_; ++i) {
    if (entry_->patches[i].flat_index == flat) {
      value += entry_->patches[i].delta;
    }
  }
  return value;
}

double ViewCache::ReadHandle::At(const std::vector<uint32_t>& coords) const {
  return At(entry_->data->FlatIndex(coords));
}

Tensor ViewCache::Patched(const Entry& entry, uint32_t num_patches) {
  Tensor out = *entry.data;
  for (uint32_t i = 0; i < num_patches; ++i) {
    out[entry.patches[i].flat_index] += entry.patches[i].delta;
  }
  return out;
}

AnswerTensor ViewCache::CurrentValue(const Entry& entry,
                                     uint32_t num_patches) {
  if (num_patches == 0) return AnswerTensor(entry.data);
  return AnswerTensor(Patched(entry, num_patches));
}

ViewCache::ReadHandle ViewCache::FindPinned(const ElementId& id,
                                            bool count_miss) {
  Shard& shard = ShardFor(id);
  EpochDomain::Pin pin = EpochDomain::Acquire();
  // order: acquire — pairs with the seq_cst publish in PublishLocked so
  // the table's contents (map nodes, entries, tensors) are visible; the
  // pin taken above keeps the loaded version out of reclamation.
  const Table* table = shard.live.load(std::memory_order_acquire);
  auto it = table->map.find(id);
  if (it == table->map.end()) {
    // order: relaxed — statistics counter; read under shard.mu only by
    // Metrics(), which tolerates a racing increment either side.
    if (count_miss) shard.misses.fetch_add(1, std::memory_order_relaxed);
    return ReadHandle();
  }
  // order: acquire — pairs with the seq_cst store that swaps in a
  // compacted entry (ApplyPointDelta), so its contents are visible.
  Entry* entry = it->second.entry.load(std::memory_order_acquire);
  entry->CountHit();
  return ReadHandle(std::move(pin), entry);
}

ViewCache::ReadHandle ViewCache::LookupPinned(const ElementId& id) {
  return FindPinned(id, /*count_miss=*/true);
}

std::shared_ptr<const Tensor> ViewCache::Lookup(const ElementId& id) {
  // The value is taken while the handle's pin keeps the entry and its
  // tensor's control block alive; it outlives the handle.
  const ReadHandle hit = FindPinned(id, /*count_miss=*/true);
  if (!hit) return nullptr;
  return hit.Value().Share();
}

ViewCache::LookupOutcome ViewCache::LookupOrBegin(const ElementId& id) {
  LookupOutcome out;
  out.hit = FindPinned(id, /*count_miss=*/false);
  if (out.hit) return out;

  Shard& shard = ShardFor(id);
  MutexLock lock(shard.mu);
  // Re-probe under the lock: a fill may have landed since the lock-free
  // probe. The table cannot be retired while mu is held, and the pin is
  // taken before mu is released, so the handle stays valid afterwards.
  // order: acquire — same publish pairing as FindPinned (mu alone would
  // suffice, since publishers store under mu; acquire keeps it uniform).
  const Table* table = shard.live.load(std::memory_order_acquire);
  auto it = table->map.find(id);
  if (it != table->map.end()) {
    EpochDomain::Pin pin = EpochDomain::Acquire();
    Entry* entry = it->second.owner.get();
    entry->CountHit();
    out.hit = ReadHandle(std::move(pin), entry);
    return out;
  }
  auto fit = shard.flights.find(id);
  if (fit != shard.flights.end()) {
    out.fill.flight_ = fit->second;
    out.fill.id_ = id;
    out.fill.leader_ = false;
    return out;
  }
  auto flight = std::make_shared<Flight>();
  shard.flights.emplace(id, flight);
  // order: relaxed — statistics counter, as in FindPinned.
  shard.misses.fetch_add(1, std::memory_order_relaxed);
  out.fill.flight_ = std::move(flight);
  out.fill.id_ = id;
  out.fill.flush_epoch_ = shard.flush_epoch;
  out.fill.leader_ = true;
  return out;
}

std::shared_ptr<const Tensor> ViewCache::CompleteFill(
    FillTicket ticket, Tensor data, uint64_t assembly_cost) {
  if (!ticket.valid() || !ticket.leader()) return nullptr;
  auto shared = std::make_shared<const Tensor>(std::move(data));
  Shard& shard = ShardFor(ticket.id_);
  std::shared_ptr<const Tensor> served = shared;
  {
    MutexLock lock(shard.mu);
    shard.ops_executed += assembly_cost;
    auto fit = shard.flights.find(ticket.id_);
    if (fit != shard.flights.end() && fit->second == ticket.flight_) {
      shard.flights.erase(fit);
    }
    if (ticket.flush_epoch_ != shard.flush_epoch) {
      // A flush landed between the miss and this fill: the tensor still
      // answers the queries already waiting on it (they began before the
      // flush, so it linearizes before), but must not outlive the flush
      // inside the cache.
      ++shard.stale_fills;
    } else {
      served = InsertLocked(&shard, ticket.id_, shared, assembly_cost);
    }
  }
  {
    MutexLock flight_lock(ticket.flight_->m);
    ticket.flight_->result = served;
    ticket.flight_->assembly_cost = assembly_cost;
    ticket.flight_->done = true;
  }
  ticket.flight_->cv.NotifyAll();
  return served;
}

void ViewCache::AbortFill(FillTicket ticket, Status cause) {
  if (!ticket.valid() || !ticket.leader()) return;
  Shard& shard = ShardFor(ticket.id_);
  {
    MutexLock lock(shard.mu);
    auto fit = shard.flights.find(ticket.id_);
    if (fit != shard.flights.end() && fit->second == ticket.flight_) {
      shard.flights.erase(fit);
    }
  }
  {
    MutexLock flight_lock(ticket.flight_->m);
    ticket.flight_->aborted = true;
    ticket.flight_->error =
        cause.ok() ? Status::Unavailable("fill aborted") : std::move(cause);
    ticket.flight_->done = true;
  }
  ticket.flight_->cv.NotifyAll();
}

ViewCache::FillWait ViewCache::WaitFill(const FillTicket& ticket,
                                        const QueryContext& ctx) {
  if (!ticket.valid() || ticket.leader()) {
    return FillWait{nullptr,
                    Status::InvalidArgument("not a follower ticket")};
  }
  Flight& flight = *ticket.flight_;
  std::shared_ptr<const Tensor> result;
  uint64_t cost = 0;
  {
    MutexLock flight_lock(flight.m);
    while (!flight.done) {
      Status live = ctx.Check();
      if (!live.ok()) {
        // The fill may still be in progress; this follower just cannot
        // afford to keep waiting for it.
        return FillWait{nullptr, std::move(live)};
      }
      // Bounded slices: re-check the context every 100 ms (or sooner
      // when the deadline is nearer), so a stuck leader can never park
      // a follower forever.
      const QueryContext::Clock::duration slice = std::min<
          QueryContext::Clock::duration>(std::chrono::milliseconds(100),
                                         ctx.remaining());
      flight.cv.WaitFor(flight.m, slice);
    }
    if (flight.aborted) return FillWait{nullptr, flight.error};
    result = flight.result;
    cost = flight.assembly_cost;
  }
  // The coalesced query is a hit in every accounting sense: it spent no
  // assembly ops and saved its full rebuild cost.
  Shard& shard = ShardFor(ticket.id_);
  MutexLock lock(shard.mu);
  ++shard.folded_hits;
  ++shard.coalesced_hits;
  shard.folded_ops_saved += cost;
  return FillWait{std::move(result), Status::OK()};
}

std::shared_ptr<const Tensor> ViewCache::Insert(const ElementId& id,
                                                Tensor data,
                                                uint64_t assembly_cost) {
  auto shared = std::make_shared<const Tensor>(std::move(data));
  Shard& shard = ShardFor(id);
  MutexLock lock(shard.mu);
  // The caller assembled this tensor whether or not it gets retained.
  shard.ops_executed += assembly_cost;
  return InsertLocked(&shard, id, std::move(shared), assembly_cost);
}

std::shared_ptr<const Tensor> ViewCache::InsertLocked(
    Shard* shard, const ElementId& id, std::shared_ptr<const Tensor> shared,
    uint64_t assembly_cost) {
  ++shard->generation;
  // order: relaxed — we hold shard->mu, the only context that stores
  // `live`; the load cannot race a publish.
  const Table* live = shard->live.load(std::memory_order_relaxed);
  auto it = live->map.find(id);
  if (it != live->map.end()) {
    // First writer wins: assembly is deterministic, so a concurrent
    // duplicate insert carries bit-identical data; keep the shared copy
    // (and count the duplicate as a touch).
    Entry* entry = it->second.owner.get();
    FoldEntryLocked(shard, entry);
    entry->folded_heat += 1.0;
    // order: relaxed — mu-serialized read; only ApplyPointDelta, under
    // the same mu, stores the count.
    return CurrentValue(*entry,
                        entry->num_patches.load(std::memory_order_relaxed))
        .Share();
  }
  const uint64_t bytes = shared->size() * sizeof(double);
  if (bytes > shard_capacity_bytes_) {
    ++shard->rejected_inserts;
    return shared;
  }
  auto next = std::make_unique<Table>(*live);
  EvictIntoLocked(shard, next.get(), bytes);
  // EvictIntoLocked detached the victims from `next`; recover them by
  // set difference so they can ride the limbo list to exact reclaim.
  std::vector<std::shared_ptr<Entry>> removed;
  if (next->map.size() != live->map.size()) {
    removed.reserve(live->map.size() - next->map.size());
    for (const auto& [live_id, live_slot] : live->map) {
      if (next->map.find(live_id) == next->map.end()) {
        removed.push_back(live_slot.owner);
      }
    }
  }
  auto entry = std::make_shared<Entry>();
  entry->data = std::move(shared);
  entry->assembly_cost = assembly_cost;
  entry->bytes = bytes;
  entry->folded_heat = 1.0;
  entry->folded_at = shard->generation;
  std::shared_ptr<const Tensor> retained = entry->data;
  next->map.emplace(id, std::move(entry));
  next->bytes += bytes;
  ++shard->insertions;
  PublishLocked(shard, std::move(next), std::move(removed));
  return retained;
}

void ViewCache::FoldEntryLocked(Shard* shard, Entry* entry) const {
  const uint64_t pending = entry->DrainHits();
  if (options_.heat_decay < 1.0 && entry->folded_heat != 0.0) {
    const uint64_t gap = shard->generation - entry->folded_at;
    if (gap != 0) {
      entry->folded_heat *=
          std::pow(options_.heat_decay, static_cast<double>(gap));
    }
  }
  entry->folded_heat += static_cast<double>(pending);
  entry->folded_at = shard->generation;
  shard->folded_hits += pending;
  shard->folded_ops_saved += pending * entry->assembly_cost;
}

double ViewCache::ScoreLocked(const Shard& shard, const Entry& entry) const {
  // Benefit of keeping the entry: expected near-future hits (the decayed
  // hit weight) times what each hit saves (its Procedure-3 rebuild
  // cost). The +1 keeps free-to-rebuild entries ordered by heat among
  // themselves instead of collapsing to a zero tie.
  (void)shard;
  return entry.folded_heat *
         (1.0 + static_cast<double>(entry.assembly_cost));
}

void ViewCache::EvictIntoLocked(Shard* shard, Table* next, uint64_t needed) {
  if (next->bytes + needed <= shard_capacity_bytes_) return;
  // Fold every entry once so scores compare decayed heat plus all hits
  // recorded so far. Hits landing on a victim after this fold stay in
  // its pending counter and are folded exactly at reclaim time.
  for (auto& [id, slot] : next->map) FoldEntryLocked(shard, slot.owner.get());
  while (!next->map.empty() &&
         next->bytes + needed > shard_capacity_bytes_) {
    auto victim = next->map.begin();
    double victim_score = ScoreLocked(*shard, *victim->second.owner);
    for (auto it = std::next(next->map.begin()); it != next->map.end();
         ++it) {
      const double score = ScoreLocked(*shard, *it->second.owner);
      if (score < victim_score) {
        victim = it;
        victim_score = score;
      }
    }
    next->bytes -= victim->second.owner->bytes;
    next->map.erase(victim);
    ++shard->evictions;
  }
}

void ViewCache::PublishLocked(Shard* shard, std::unique_ptr<Table> next,
                              std::vector<std::shared_ptr<Entry>> removed) {
  // order: relaxed — mu-serialized read of our own last publish.
  std::unique_ptr<const Table> old(
      shard->live.load(std::memory_order_relaxed));
  // order: seq_cst — must precede the Retire() advance in the single
  // total order, so a reader whose pin confirms an epoch past our retire
  // tag is guaranteed to load this replacement, never `old` (see
  // epoch.h's announce-and-confirm proof).
  shard->live.store(next.release(), std::memory_order_seq_cst);
  RetireLocked(shard, std::move(old), std::move(removed));
}

void ViewCache::RetireLocked(Shard* shard, std::unique_ptr<const Table> old,
                             std::vector<std::shared_ptr<Entry>> removed) {
  const uint64_t tag = EpochDomain::Instance().Retire();
  shard->limbo.push_back(
      Shard::Limbo{tag, std::move(old), std::move(removed)});
  ReclaimLocked(shard);
}

void ViewCache::ReclaimLocked(Shard* shard) const {
  if (shard->limbo.empty()) return;
  const uint64_t min_pinned = EpochDomain::Instance().MinPinned();
  while (!shard->limbo.empty() && shard->limbo.front().tag < min_pinned) {
    Shard::Limbo& rec = shard->limbo.front();
    // No reader can reach these entries any more: fold their final hit
    // counts so ServeMetrics::hits stays exact across removals.
    for (const std::shared_ptr<Entry>& entry : rec.dying) {
      // MinPinned() proved no reader still holds the entry, so this
      // drain cannot race a bump.
      const uint64_t pending = entry->DrainHits();
      shard->folded_hits += pending;
      shard->folded_ops_saved += pending * entry->assembly_cost;
    }
    shard->limbo.pop_front();
  }
}

void ViewCache::Invalidate(const ElementId& id) {
  Shard& shard = ShardFor(id);
  MutexLock lock(shard.mu);
  // order: relaxed — mu-serialized against every publish.
  const Table* live = shard.live.load(std::memory_order_relaxed);
  auto it = live->map.find(id);
  if (it == live->map.end()) return;
  ++shard.generation;
  auto next = std::make_unique<Table>(*live);
  next->bytes -= it->second.owner->bytes;
  std::vector<std::shared_ptr<Entry>> removed;
  removed.push_back(it->second.owner);
  next->map.erase(id);
  ++shard.invalidations;
  PublishLocked(&shard, std::move(next), std::move(removed));
}

uint64_t ViewCache::InvalidateAll() {
  uint64_t dropped = 0;
  for (auto& shard : shards_) {
    MutexLock lock(shard->mu);
    // Stale any in-flight fill and orphan its flight: post-flush misses
    // on the same ids must start fresh assemblies against the new data.
    ++shard->flush_epoch;
    shard->flights.clear();
    // order: relaxed — mu-serialized against every publish.
    const Table* live = shard->live.load(std::memory_order_relaxed);
    if (live->map.empty()) continue;
    ++shard->generation;
    const uint64_t count = live->map.size();
    dropped += count;
    shard->invalidations += count;
    std::vector<std::shared_ptr<Entry>> removed;
    removed.reserve(count);
    for (const auto& [id, slot] : live->map) removed.push_back(slot.owner);
    PublishLocked(shard.get(), std::make_unique<Table>(),
                  std::move(removed));
  }
  return dropped;
}

Status ViewCache::ApplyPointDelta(const CubeShape& shape,
                                  const std::vector<uint32_t>& coords,
                                  double delta) {
  if (coords.size() != shape.ndim()) {
    return Status::InvalidArgument("coordinate arity mismatch");
  }
  for (uint32_t m = 0; m < shape.ndim(); ++m) {
    if (coords[m] >= shape.extent(m)) {
      return Status::OutOfRange("coordinate outside cube extent");
    }
  }
  for (auto& shard : shards_) {
    MutexLock lock(shard->mu);
    // A fill that began before this write assembled pre-write data: it
    // is served but not retained, and later misses start fresh flights.
    ++shard->flush_epoch;
    shard->flights.clear();
    // order: relaxed — mu-serialized against every publish.
    const Table* live = shard->live.load(std::memory_order_relaxed);
    std::vector<std::shared_ptr<Entry>> compacted;
    for (const auto& [id, slot] : live->map) {
      Entry* entry = slot.owner.get();
      Result<PointProjection> at = ProjectPoint(id, coords, shape);
      VECUBE_CHECK(at.ok()) << "cached " << id.ToString()
                            << " is not an element of the written cube";
      const Patch patch{at->flat_index, at->sign * delta};
      ++shard->patches;
      // order: relaxed — mu-serialized: this writer stored the count last.
      const uint32_t n = entry->num_patches.load(std::memory_order_relaxed);
      if (n < kPatchCapacity) {
        entry->patches[n] = patch;
        // order: release — publishes the patch just written to readers
        // that acquire-load the count (ReadHandle's constructor).
        entry->num_patches.store(n + 1, std::memory_order_release);
        continue;
      }
      // Full log: rebuild the entry with every patch applied in log
      // order and swap it into the slot. Readers of the old entry keep
      // their snapshot; its hits after this fold stay pending and are
      // folded when it is reclaimed.
      FoldEntryLocked(shard.get(), entry);
      Tensor data = Patched(*entry, n);
      data[patch.flat_index] += patch.delta;
      auto fresh = std::make_shared<Entry>();
      fresh->data = std::make_shared<const Tensor>(std::move(data));
      fresh->assembly_cost = entry->assembly_cost;
      fresh->bytes = entry->bytes;
      fresh->folded_heat = entry->folded_heat;
      fresh->folded_at = entry->folded_at;
      // order: seq_cst — like the table store in PublishLocked, must
      // precede RetireLocked's epoch advance, so a reader pinned past
      // the retire tag loads `fresh`, never the entry being retired.
      slot.entry.store(fresh.get(), std::memory_order_seq_cst);
      compacted.push_back(std::exchange(slot.owner, std::move(fresh)));
      ++shard->compactions;
    }
    if (!compacted.empty()) {
      RetireLocked(shard.get(), nullptr, std::move(compacted));
    }
  }
  return Status::OK();
}

ServeMetrics ViewCache::Metrics() const {
  ServeMetrics metrics;
  // order: relaxed — point-in-time statistics snapshot (see below).
  metrics.deadline_exceeded =
      deadline_exceeded_.load(std::memory_order_relaxed);
  metrics.shed = shed_.load(std::memory_order_relaxed);
  metrics.degraded = degraded_.load(std::memory_order_relaxed);
  metrics.follower_retries =
      follower_retries_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    // order: relaxed — point-in-time statistics snapshot; a racing
    // increment lands in this read or the next, never lost.
    metrics.misses += shard->misses.load(std::memory_order_relaxed);
    metrics.hits += shard->folded_hits;
    metrics.coalesced_hits += shard->coalesced_hits;
    metrics.insertions += shard->insertions;
    metrics.rejected_inserts += shard->rejected_inserts;
    metrics.stale_fills += shard->stale_fills;
    metrics.evictions += shard->evictions;
    metrics.invalidations += shard->invalidations;
    metrics.patches += shard->patches;
    metrics.compactions += shard->compactions;
    metrics.assembly_ops_saved += shard->folded_ops_saved;
    metrics.assembly_ops_executed += shard->ops_executed;
    // order: relaxed — mu-serialized against every publish.
    const Table* live = shard->live.load(std::memory_order_relaxed);
    metrics.entries += live->map.size();
    metrics.bytes_resident += live->bytes;
    // Unfolded hits: still pending on live entries, or on dying entries
    // not yet reclaimed. Counting both keeps the aggregate exact
    // whenever the cache is quiescent (and a consistent snapshot
    // otherwise).
    for (const auto& [id, slot] : live->map) {
      const uint64_t pending = slot.owner->PendingHits();
      metrics.hits += pending;
      metrics.assembly_ops_saved += pending * slot.owner->assembly_cost;
    }
    for (const Shard::Limbo& rec : shard->limbo) {
      for (const std::shared_ptr<Entry>& entry : rec.dying) {
        const uint64_t pending = entry->PendingHits();
        metrics.hits += pending;
        metrics.assembly_ops_saved += pending * entry->assembly_cost;
      }
    }
  }
  return metrics;
}

}  // namespace vecube
