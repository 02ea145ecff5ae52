#include "api/session.h"

#include <algorithm>

#include "core/update.h"
#include "select/adapt.h"
#include "util/failpoint.h"
#include "util/io_file.h"
#include "util/logging.h"

namespace vecube {

namespace {

// File set inside DurabilityOptions::directory. Each snapshot records the
// last WAL lsn it folded in, so the components recover independently: a
// crash between checkpoint renames leaves them at different seqs, and
// replay applies to each component exactly the records it is missing.
constexpr char kStoreFile[] = "store.vecube";
constexpr char kCubeFile[] = "cube.vecube";
constexpr char kCountStoreFile[] = "store.count.vecube";
constexpr char kCountCubeFile[] = "cube.count.vecube";
constexpr char kWalFile[] = "wal.log";

std::string JoinPath(const std::string& dir, const char* file) {
  if (!dir.empty() && dir.back() == '/') return dir + file;
  return dir + "/" + file;
}

// Extracts the root element out of a base-cube snapshot store.
Result<Tensor> TakeRoot(ElementStore* store) {
  Tensor* root;
  VECUBE_ASSIGN_OR_RETURN(
      root, store->GetMutable(ElementId::Root(store->shape().ndim())));
  return std::move(*root);
}

Status ValidateOptions(const OlapSessionOptions& options) {
  if (!(options.access_decay > 0.0 && options.access_decay <= 1.0)) {
    return Status::InvalidArgument("access_decay must be in (0, 1]");
  }
  if (!(options.drift_threshold >= 0.0)) {
    return Status::InvalidArgument("drift_threshold must be >= 0");
  }
  return Status::OK();
}

}  // namespace

OlapSession::OlapSession(CubeShape shape, Tensor cube, Options options)
    : shape_(std::move(shape)),
      cube_(std::move(cube)),
      options_(options),
      store_(shape_),
      tracker_(options.access_decay) {
  const uint32_t threads = options.num_threads == 0
                               ? ThreadPool::DefaultThreadCount()
                               : options.num_threads;
  if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads);
  if (options.verify_invariants) {
    checker_ =
        std::make_unique<InvariantChecker>(shape_, options.verify_options);
  }
  if (options.view_cache.enabled) {
    cache_ = std::make_unique<ViewCache>(options.view_cache);
  }
}

OlapSession::~OlapSession() {
  // Observed-traffic history buffered on the serving path must not be
  // lost: anything still reading the tracker (advisors, tooling holding
  // a reference) sees the complete record.
  access_log_.Drain();
}

Status OlapSession::VerifyFullState() {
  if (checker_ == nullptr) return Status::OK();
  VECUBE_RETURN_NOT_OK(checker_->CheckAll(store_, cube_));
  if (count_store_.has_value()) {
    VECUBE_RETURN_NOT_OK(checker_->CheckAll(*count_store_, *count_cube_));
  }
  return Status::OK();
}

Status OlapSession::VerifyAfterUpdate() {
  if (checker_ == nullptr) return Status::OK();
  VECUBE_RETURN_NOT_OK(checker_->CheckElementBounds(store_));
  VECUBE_RETURN_NOT_OK(checker_->CheckStoreAccounting(store_));
  VECUBE_RETURN_NOT_OK(checker_->CheckStoreConsistency(store_, cube_));
  if (count_store_.has_value()) {
    VECUBE_RETURN_NOT_OK(
        checker_->CheckStoreConsistency(*count_store_, *count_cube_));
  }
  return Status::OK();
}

Status OlapSession::VerifyOpCount(AssemblyEngine* engine,
                                  const ElementId& target,
                                  uint64_t measured_ops) {
  if (checker_ == nullptr) return Status::OK();
  // PlanCost is memoized from the assembly that just ran, so this is a
  // table lookup, not a second planning pass.
  return checker_->CheckOpCount(engine->PlanCost(target), measured_ops);
}

Result<std::unique_ptr<OlapSession>> OlapSession::FromCube(
    const CubeShape& shape, Tensor cube, Options options) {
  if (cube.extents() != shape.extents()) {
    return Status::InvalidArgument("cube extents do not match shape");
  }
  VECUBE_RETURN_NOT_OK(ValidateOptions(options));
  std::unique_ptr<OlapSession> session(
      new OlapSession(shape, std::move(cube), options));
  VECUBE_RETURN_NOT_OK(
      session->store_.Put(ElementId::Root(shape.ndim()), session->cube_));
  if (options.maintain_count_cube) {
    // Without a relation the per-cell record counts are unknown; start an
    // empty COUNT side that AddFact() maintains going forward.
    Tensor counts;
    VECUBE_ASSIGN_OR_RETURN(counts, Tensor::Zeros(shape.extents()));
    session->count_cube_ = std::move(counts);
    ElementStore count_store(shape);
    VECUBE_RETURN_NOT_OK(count_store.Put(ElementId::Root(shape.ndim()),
                                         *session->count_cube_));
    session->count_store_ = std::move(count_store);
  }
  session->RebuildEngines();
  VECUBE_RETURN_NOT_OK(session->VerifyFullState());
  if (options.durability.enabled) {
    VECUBE_RETURN_NOT_OK(session->InitDurability());
  }
  return session;
}

Result<std::unique_ptr<OlapSession>> OlapSession::FromRelation(
    const Relation& relation, const CubeShape& shape,
    const CubeBuildOptions& build_options, Options options) {
  BuiltCube built;
  VECUBE_ASSIGN_OR_RETURN(built,
                          CubeBuilder::Build(relation, shape, build_options));
  std::unique_ptr<OlapSession> session;
  VECUBE_ASSIGN_OR_RETURN(
      session, FromCube(shape, std::move(built.cube), options));
  if (options.maintain_count_cube) {
    CubeBuildOptions count_options = build_options;
    count_options.count_instead_of_sum = true;
    BuiltCube counts;
    VECUBE_ASSIGN_OR_RETURN(
        counts, CubeBuilder::Build(relation, shape, count_options));
    session->count_cube_ = std::move(counts.cube);
    ElementStore count_store(shape);
    VECUBE_RETURN_NOT_OK(count_store.Put(ElementId::Root(shape.ndim()),
                                         *session->count_cube_));
    session->count_store_ = std::move(count_store);
    session->RebuildEngines();
    VECUBE_RETURN_NOT_OK(session->VerifyFullState());
    if (options.durability.enabled) {
      // FromCube checkpointed before the COUNT side held real data;
      // refresh the on-disk state to match.
      VECUBE_RETURN_NOT_OK(session->Checkpoint());
    }
  }
  return session;
}

Status OlapSession::InitDurability() {
  const DurabilityOptions& d = options_.durability;
  if (d.directory.empty()) {
    return Status::InvalidArgument(
        "durability.directory must be set when durability is enabled");
  }
  // Fresh start: a stale log from a previous incarnation (possibly a
  // different shape) is discarded, not replayed — reopening existing
  // durable state is OpenDurable()'s job.
  const std::string wal_path = JoinPath(d.directory, kWalFile);
  RemoveFileIfExists(wal_path);
  Result<std::unique_ptr<WriteAheadLog>> wal =
      WriteAheadLog::Open(wal_path, shape_, nullptr, d.sync_each_append);
  VECUBE_RETURN_NOT_OK(wal.status());
  wal_ = std::move(wal).value();
  return Checkpoint();
}

Status OlapSession::SaveCubeSnapshot(const std::string& path,
                                     const Tensor& cube,
                                     uint64_t wal_seq) const {
  ElementStore snap(shape_);
  VECUBE_RETURN_NOT_OK(snap.Put(ElementId::Root(shape_.ndim()), cube));
  SnapshotMeta meta;
  meta.wal_seq = wal_seq;
  meta.flags = kSnapshotRootIsCube;
  return SaveStoreV2(snap, path, meta);
}

Status OlapSession::Checkpoint() {
  if (wal_ == nullptr) {
    return Status::FailedPrecondition(
        "durability is not enabled for this session");
  }
  // Fold buffered access records into the tracker at every durability
  // boundary so the reconfigure/advisor loop never works from a
  // truncated history.
  access_log_.Drain();
  // Quarantined elements carry no data to persist; repair before
  // checkpointing to keep them in the materialized set.
  const std::string& dir = options_.durability.directory;
  const uint64_t seq = wal_->last_lsn();
  SnapshotMeta meta;
  meta.wal_seq = seq;
  VECUBE_RETURN_NOT_OK(SaveCubeSnapshot(JoinPath(dir, kCubeFile), cube_, seq));
  VECUBE_RETURN_NOT_OK(SaveStoreV2(store_, JoinPath(dir, kStoreFile), meta));
  if (count_cube_.has_value()) {
    VECUBE_RETURN_NOT_OK(
        SaveCubeSnapshot(JoinPath(dir, kCountCubeFile), *count_cube_, seq));
    VECUBE_RETURN_NOT_OK(
        SaveStoreV2(*count_store_, JoinPath(dir, kCountStoreFile), meta));
  }
  // Every snapshot now durably records seq; records up to it can go. A
  // crash before this point replays onto the old snapshots; after it, the
  // new ones skip everything.
  VECUBE_RETURN_NOT_OK(wal_->Reset());
  ++stats_.checkpoints;
  return Status::OK();
}

Result<std::unique_ptr<OlapSession>> OlapSession::OpenDurable(
    Options options) {
  const DurabilityOptions& d = options.durability;
  if (!d.enabled || d.directory.empty()) {
    return Status::InvalidArgument(
        "OpenDurable requires durability.enabled and a directory");
  }
  VECUBE_RETURN_NOT_OK(ValidateOptions(options));

  // The SUM element store is the shape authority. Per-element corruption
  // comes back as quarantine marks, not as a load failure.
  SnapshotReport store_report;
  Result<ElementStore> loaded =
      LoadStoreV2(JoinPath(d.directory, kStoreFile), &store_report);
  VECUBE_RETURN_NOT_OK(loaded.status());
  ElementStore store = std::move(loaded).value();
  const CubeShape shape = store.shape();
  const uint64_t store_seq = store_report.meta.wal_seq;

  // The base cube snapshot; when it is unusable, self-heal by assembling
  // the root from the element store's healthy residents.
  Tensor cube;
  uint64_t cube_seq = 0;
  bool cube_loaded = false;
  {
    SnapshotReport cube_report;
    Result<ElementStore> cube_store =
        LoadStoreV2(JoinPath(d.directory, kCubeFile), &cube_report);
    if (cube_store.ok() &&
        cube_store->shape().extents() == shape.extents()) {
      Result<Tensor> root = TakeRoot(&*cube_store);
      if (root.ok()) {
        cube = std::move(root).value();
        cube_seq = cube_report.meta.wal_seq;
        cube_loaded = true;
      }
    }
  }
  if (!cube_loaded) {
    AssemblyEngine engine(&store);
    Result<Tensor> rebuilt = engine.Assemble(ElementId::Root(shape.ndim()));
    if (!rebuilt.ok()) {
      return Status::Internal(
          "base cube snapshot is unusable and the element store cannot "
          "reconstruct it: " +
          rebuilt.status().ToString());
    }
    cube = std::move(rebuilt).value();
    // The assembled cube is exactly as current as the store it came from.
    cube_seq = store_seq;
  }

  std::unique_ptr<OlapSession> session(
      new OlapSession(shape, std::move(cube), options));
  session->store_ = std::move(store);

  // COUNT side, when requested: same snapshot + fallback structure.
  uint64_t count_store_seq = 0;
  uint64_t count_cube_seq = 0;
  if (options.maintain_count_cube) {
    SnapshotReport count_report;
    Result<ElementStore> count_store =
        LoadStoreV2(JoinPath(d.directory, kCountStoreFile), &count_report);
    VECUBE_RETURN_NOT_OK(count_store.status());
    if (count_store->shape().extents() != shape.extents()) {
      return Status::Internal("COUNT store shape disagrees with SUM store");
    }
    count_store_seq = count_report.meta.wal_seq;
    Tensor count_cube;
    bool count_cube_loaded = false;
    {
      SnapshotReport ccube_report;
      Result<ElementStore> ccube_store =
          LoadStoreV2(JoinPath(d.directory, kCountCubeFile), &ccube_report);
      if (ccube_store.ok() &&
          ccube_store->shape().extents() == shape.extents()) {
        Result<Tensor> root = TakeRoot(&*ccube_store);
        if (root.ok()) {
          count_cube = std::move(root).value();
          count_cube_seq = ccube_report.meta.wal_seq;
          count_cube_loaded = true;
        }
      }
    }
    if (!count_cube_loaded) {
      AssemblyEngine engine(&*count_store);
      Result<Tensor> rebuilt =
          engine.Assemble(ElementId::Root(shape.ndim()));
      if (!rebuilt.ok()) {
        return Status::Internal(
            "COUNT cube snapshot is unusable and the COUNT store cannot "
            "reconstruct it: " +
            rebuilt.status().ToString());
      }
      count_cube = std::move(rebuilt).value();
      count_cube_seq = count_store_seq;
    }
    session->count_cube_ = std::move(count_cube);
    session->count_store_ = std::move(count_store).value();
  }

  // Open the WAL and replay the committed suffix onto each component,
  // skipping what its snapshot already folded in.
  uint64_t min_seq = std::min(store_seq, cube_seq);
  uint64_t max_seq = std::max(store_seq, cube_seq);
  if (options.maintain_count_cube) {
    min_seq = std::min({min_seq, count_store_seq, count_cube_seq});
    max_seq = std::max({max_seq, count_store_seq, count_cube_seq});
  }
  WalScan scan;
  Result<std::unique_ptr<WriteAheadLog>> wal = WriteAheadLog::Open(
      JoinPath(d.directory, kWalFile), shape, &scan, d.sync_each_append,
      /*create_base_lsn=*/max_seq + 1);
  VECUBE_RETURN_NOT_OK(wal.status());
  if (scan.base_lsn > min_seq + 1) {
    return Status::Internal(
        "WAL gap: log starts at lsn " + std::to_string(scan.base_lsn) +
        " but a snapshot has only folded in lsn " + std::to_string(min_seq));
  }
  if ((*wal)->last_lsn() < max_seq) {
    return Status::Internal(
        "WAL ends at lsn " + std::to_string((*wal)->last_lsn()) +
        " but a snapshot claims lsn " + std::to_string(max_seq) +
        " was logged; the log was replaced or rolled back");
  }
  for (const WalRecord& record : scan.records) {
    const std::vector<uint32_t>& coords = record.delta.coords;
    if (record.lsn > cube_seq) {
      session->cube_[session->cube_.FlatIndex(coords)] += record.delta.delta;
    }
    if (record.lsn > store_seq) {
      VECUBE_RETURN_NOT_OK(
          ApplyPointDelta(&session->store_, coords, record.delta.delta));
    }
    if (session->count_cube_.has_value()) {
      if (record.lsn > count_cube_seq) {
        (*session->count_cube_)[session->count_cube_->FlatIndex(coords)] +=
            1.0;
      }
      if (record.lsn > count_store_seq) {
        VECUBE_RETURN_NOT_OK(
            ApplyPointDelta(&*session->count_store_, coords, 1.0));
      }
    }
    ++session->stats_.wal_replayed;
  }
  session->wal_ = std::move(wal).value();
  session->RebuildEngines();
  VECUBE_RETURN_NOT_OK(session->VerifyFullState());
  return session;
}

Result<RepairReport> OlapSession::Repair() {
  RepairReport report;
  const ElementId root = ElementId::Root(shape_.ndim());
  // The in-memory base cube is authoritative for the root element: it was
  // recovered (and WAL-replayed) independently of the store snapshot.
  if (store_.IsQuarantined(root)) {
    VECUBE_RETURN_NOT_OK(store_.Put(root, cube_));
    report.repaired.push_back(root);
  }
  RepairReport sum_report;
  VECUBE_ASSIGN_OR_RETURN(sum_report, RepairStore(&store_, pool_.get()));
  report.repaired.insert(report.repaired.end(), sum_report.repaired.begin(),
                         sum_report.repaired.end());
  report.unrepaired = std::move(sum_report.unrepaired);
  report.assembly_ops += sum_report.assembly_ops;
  if (count_store_.has_value()) {
    if (count_store_->IsQuarantined(root)) {
      VECUBE_RETURN_NOT_OK(count_store_->Put(root, *count_cube_));
      report.repaired.push_back(root);
    }
    RepairReport count_report;
    VECUBE_ASSIGN_OR_RETURN(count_report,
                            RepairStore(&*count_store_, pool_.get()));
    report.repaired.insert(report.repaired.end(),
                           count_report.repaired.begin(),
                           count_report.repaired.end());
    report.unrepaired.insert(report.unrepaired.end(),
                             count_report.unrepaired.begin(),
                             count_report.unrepaired.end());
    report.assembly_ops += count_report.assembly_ops;
  }
  std::sort(report.repaired.begin(), report.repaired.end());
  if (cache_ != nullptr) cache_->InvalidateAll();
  RebuildEngines();
  VECUBE_RETURN_NOT_OK(VerifyFullState());
  return report;
}

void OlapSession::RebuildEngines() {
  engine_ = std::make_unique<AssemblyEngine>(&store_, pool_.get());
  // Every fill, range intermediates included, runs under the session's
  // op-count invariant.
  server_ = std::make_unique<ElementServer>(
      engine_.get(), &store_, cache_.get(),
      [this](const ElementId& id, uint64_t measured_ops) {
        return VerifyOpCount(engine_.get(), id, measured_ops);
      });
  if (count_store_.has_value()) {
    count_engine_ =
        std::make_unique<AssemblyEngine>(&*count_store_, pool_.get());
    count_server_ = std::make_unique<ElementServer>(
        count_engine_.get(), &*count_store_, nullptr,
        [this](const ElementId& id, uint64_t measured_ops) {
          return VerifyOpCount(count_engine_.get(), id, measured_ops);
        });
  }
  range_engine_ = std::make_unique<RangeEngine>(
      &store_, MissingElementPolicy::kAssemble, server_.get());
}

Status OlapSession::DeclareWorkload(QueryPopulation population) {
  for (const QuerySpec& q : population.queries()) {
    VECUBE_RETURN_NOT_OK(q.view.Validate(shape_));
  }
  declared_workload_ = std::move(population);
  return Status::OK();
}

Status OlapSession::Optimize() {
  // The tracker must reflect every query recorded so far, including
  // records still sitting in the write-behind buffer.
  access_log_.Drain();
  if (declared_workload_.has_value()) {
    std::vector<std::pair<ElementId, double>> declared;
    for (const QuerySpec& q : declared_workload_->queries()) {
      declared.emplace_back(q.view, q.frequency);
    }
    return Reconfigure(*declared_workload_, std::move(declared));
  }
  if (!options_.track_accesses || tracker_.total_accesses() == 0) {
    return Status::FailedPrecondition(
        "no workload declared and no queries observed yet");
  }
  auto observed = tracker_.Distribution();
  QueryPopulation population;
  VECUBE_ASSIGN_OR_RETURN(population, FixedPopulation(observed, shape_));
  return Reconfigure(population, std::move(observed));
}

void OlapSession::RecordAccess(const ElementId& id) {
  if (!options_.track_accesses) return;
  access_log_.Record(id);
  if (options_.drift_threshold <= 0.0 ||
      stats_.queries - queries_at_last_reconfig_ <
          options_.min_queries_between_reconfigs) {
    return;
  }
  // Drift is measured against the complete observed history, including
  // records still in the write-behind buffer.
  access_log_.Drain();
  if (tracker_.L1Drift(baseline_distribution_) < options_.drift_threshold) {
    return;
  }
  auto observed = tracker_.Distribution();
  Result<QueryPopulation> population = FixedPopulation(observed, shape_);
  Status status = population.ok()
                      ? Reconfigure(*population, std::move(observed))
                      : population.status();
  // The query was answered; a failed adaptation is a background-health
  // event, not a query error.
  if (!status.ok()) {
    last_reconfig_error_ = std::move(status);
    ++stats_.reconfig_failures;
  }
}

Status OlapSession::Reconfigure(
    const QueryPopulation& population,
    std::vector<std::pair<ElementId, double>> baseline) {
  if (Failpoints::Hit("dynamic.reconfigure").has_value()) {
    return Status::Internal(
        "injected reconfiguration failure (failpoint dynamic.reconfigure)");
  }
  std::vector<ElementId> target_set;
  VECUBE_ASSIGN_OR_RETURN(
      target_set, SelectElementSet(shape_, population,
                                   options_.redundancy_budget_cells));
  // Migrate: assemble the new set from the current store (never from the
  // base cube), both sides before either is swapped in.
  OpCounter ops;
  ElementStore next(shape_);
  VECUBE_ASSIGN_OR_RETURN(
      next, MigrateStore(shape_, engine_.get(), target_set, &ops));
  std::optional<ElementStore> next_counts;
  if (count_store_.has_value()) {
    // The COUNT side mirrors the SUM side's element set.
    VECUBE_ASSIGN_OR_RETURN(
        next_counts,
        MigrateStore(shape_, count_engine_.get(), target_set, &ops));
  }
  store_ = std::move(next);
  if (next_counts.has_value()) count_store_ = std::move(next_counts);
  RebuildEngines();
  // The materialized set changed wholesale; cached entries keep correct
  // values but stale rebuild costs, so flush rather than patch.
  if (cache_ != nullptr) cache_->InvalidateAll();
  baseline_distribution_ = std::move(baseline);
  queries_at_last_reconfig_ = stats_.queries;
  last_reconfig_error_ = Status::OK();
  ++stats_.optimizations;
  stats_.migration_ops += ops.adds;
  VECUBE_RETURN_NOT_OK(VerifyFullState());
  if (wal_ != nullptr) {
    // The element set changed wholesale; a recovery replay onto the old
    // snapshot would resurrect it, so fold the new one in now.
    VECUBE_RETURN_NOT_OK(Checkpoint());
  }
  return Status::OK();
}

Status OlapSession::AddFact(const std::vector<uint32_t>& coords,
                            double amount) {
  if (coords.size() != shape_.ndim()) {
    return Status::InvalidArgument("coordinate arity mismatch");
  }
  for (uint32_t m = 0; m < shape_.ndim(); ++m) {
    if (coords[m] >= shape_.extent(m)) {
      return Status::OutOfRange("coordinate outside cube extent");
    }
  }
  if (wal_ != nullptr) {
    // Write-ahead: the fact is durable before anything mutates, so a
    // crash at any later point replays it; a failed append mutates
    // nothing, so memory and disk stay consistent either way.
    CellDelta delta;
    delta.coords = coords;
    delta.delta = amount;
    uint64_t lsn;
    VECUBE_ASSIGN_OR_RETURN(lsn, wal_->Append(delta));
    (void)lsn;
    ++stats_.wal_appends;
  }
  cube_[cube_.FlatIndex(coords)] += amount;
  VECUBE_RETURN_NOT_OK(ApplyPointDelta(&store_, coords, amount));
  if (count_cube_.has_value()) {
    (*count_cube_)[count_cube_->FlatIndex(coords)] += 1.0;
    VECUBE_RETURN_NOT_OK(ApplyPointDelta(&*count_store_, coords, 1.0));
  }
  // Element data changed in place; plans (which depend only on which
  // elements exist) remain valid, so no engine invalidation is needed.
  // Cached answers are linear functionals of the cube too: the same
  // delta moves one cell of each, so the cache (or, without one, the
  // range engine's private intermediates) is patched rather than
  // flushed. The stored norms the degradation bounds are computed from
  // are stale, so they are dropped.
  if (cache_ != nullptr) {
    VECUBE_RETURN_NOT_OK(cache_->ApplyPointDelta(shape_, coords, amount));
  }
  VECUBE_RETURN_NOT_OK(range_engine_->ApplyPointDelta(coords, amount));
  server_->InvalidateApprox();
  VECUBE_RETURN_NOT_OK(VerifyAfterUpdate());
  if (wal_ != nullptr && options_.durability.checkpoint_every > 0 &&
      wal_->records_in_log() >= options_.durability.checkpoint_every) {
    VECUBE_RETURN_NOT_OK(Checkpoint());
  }
  return Status::OK();
}

Result<Tensor> OlapSession::AvgByMask(uint32_t aggregated_mask,
                                      const QueryContext& ctx) {
  if (!count_store_.has_value()) {
    return Status::FailedPrecondition(
        "session was created without maintain_count_cube");
  }
  ElementId view;
  VECUBE_ASSIGN_OR_RETURN(view,
                          ElementId::AggregatedView(aggregated_mask, shape_));
  // A bare Tensor has no channel for an error bound: exact, as Element().
  QueryContext exact = ctx;
  exact.set_allow_degraded(false);
  QueryAnswer sums, counts;
  VECUBE_ASSIGN_OR_RETURN(sums, server_->Serve(view, exact));
  VECUBE_ASSIGN_OR_RETURN(counts, count_server_->Serve(view, exact));
  ++stats_.queries;
  stats_.assembly_ops += sums.ops + counts.ops;
  Tensor avg = std::move(sums.data).Take();
  const Tensor& count = counts.data.get();
  for (uint64_t i = 0; i < avg.size(); ++i) {
    avg[i] = count[i] > 0.0 ? avg[i] / count[i] : 0.0;
  }
  RecordAccess(view);
  return avg;
}

Result<Tensor> OlapSession::ViewByMask(uint32_t aggregated_mask,
                                       const QueryContext& ctx) {
  ElementId view;
  VECUBE_ASSIGN_OR_RETURN(view,
                          ElementId::AggregatedView(aggregated_mask, shape_));
  return Element(view, ctx);
}

Result<Tensor> OlapSession::Element(const ElementId& id,
                                    const QueryContext& ctx) {
  VECUBE_RETURN_NOT_OK(id.Validate(shape_));
  // This signature returns a bare Tensor — no channel for an error
  // bound — so degradation must not leak through it even if the caller
  // set allow_degraded on the context. Query() is the degradation-aware
  // entry point.
  QueryContext exact = ctx;
  exact.set_allow_degraded(false);
  QueryAnswer answer;
  VECUBE_ASSIGN_OR_RETURN(answer, server_->Serve(id, exact));
  ++stats_.queries;
  stats_.assembly_ops += answer.ops;
  // One copy per hit (a shared answer), none per uncached fill.
  Tensor data = std::move(answer.data).Take();
  RecordAccess(id);
  return data;
}

Result<QueryAnswer> OlapSession::Query(const ElementId& id,
                                       const QueryContext& ctx) {
  VECUBE_RETURN_NOT_OK(id.Validate(shape_));
  QueryAnswer answer;
  VECUBE_ASSIGN_OR_RETURN(answer, server_->Serve(id, ctx));
  ++stats_.queries;
  stats_.assembly_ops += answer.ops;
  RecordAccess(id);
  return answer;
}

Result<double> OlapSession::RangeSum(const RangeSpec& range,
                                     const QueryContext& ctx) {
  RangeQueryStats range_stats;
  double sum;
  VECUBE_ASSIGN_OR_RETURN(
      sum, range_engine_->RangeSum(range, &range_stats, ctx));
  ++stats_.range_queries;
  stats_.range_cell_reads += range_stats.cell_reads;
  stats_.assembly_ops += range_stats.assembly_ops;
  return sum;
}

}  // namespace vecube
