// vecube_cli: command-line front end for the vecube library.
//
//   vecube_cli build    --csv FILE --extents N0,N1,... --out STORE
//                       [--dict] [--pad]
//       Build a SUM data cube from a CSV fact table (last column is the
//       measure, the rest are dimension keys) and persist it as a store
//       holding the root cube.
//
//   vecube_cli optimize --store STORE --out STORE2
//                       --workload MASK:FREQ[,MASK:FREQ...]
//                       [--budget CELLS]
//       Select the minimum-cost view element set for the workload
//       (Algorithm 1, plus greedy redundancy up to a total of --budget
//       cells), assemble it from the loaded store, and persist it.
//
//   vecube_cli query    --store STORE --mask MASK
//       Assemble the aggregated view (bit m of MASK set = dimension m
//       aggregated away) and print its cells.
//
//   vecube_cli assemble --store STORE --mask MASK [--shards S]
//                       [--threads T]
//       Assemble the aggregated view through the dyadic shard-parallel
//       path (DESIGN.md §14) and print timing, the operation count, the
//       resolved shard budget, and the shard plan of each aggregate
//       descent (stages, splits, in-place or gathered reads) — without
//       dumping cells. --shards 0
//       (default) follows the pool size; results and op counts are
//       identical at every (shards, threads) combination.
//
//   vecube_cli range    --store STORE --start A,B,... --width W0,W1,...
//       Range-aggregation over the store.
//
//   vecube_cli info     --store STORE
//       Shape, element inventory, and storage statistics.
//
//   vecube_cli serve    --store STORE --workload MASK:FREQ[,MASK:FREQ...]
//                       --queries N [--cache-mb MB] [--seed S]
//                       [--threads T] [--deadline-ms D] [--max-inflight M]
//                       [--allow-degraded]
//       Replay N view queries sampled from the workload distribution
//       through the full serving stack (admission control + per-worker
//       ElementServer over the shared cache, src/serve) and dump the
//       ServeMetrics block: hits, misses, evictions, write patches and
//       compactions, resident bytes,
//       assembly operations saved versus uncached serving, and the
//       robustness counters (deadline_exceeded / shed / degraded /
//       follower_retries). --deadline-ms bounds each query (0 =
//       unbounded); --max-inflight caps concurrent assembly, shedding
//       excess arrivals with a retry-after hint; --allow-degraded lets
//       budget-starved queries answer approximately (with an L2 bound)
//       instead of failing. SIGINT stops issuing new queries, drains the
//       admission queue, and still prints the metrics block (clean
//       shutdown).
//
//   vecube_cli fsck     --store STORE [--wal WAL] [--repair] [--out STORE2]
//       Verify snapshot integrity element by element (v2 checksums) and,
//       with --wal, the write-ahead log's committed prefix. --repair
//       re-derives corrupt elements from healthy ones via dynamic
//       assembly; --out persists the repaired store. Exit status is 0
//       when everything is (or was made) healthy, 1 otherwise.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/assembly.h"
#include "core/basis.h"
#include "core/io.h"
#include "core/repair.h"
#include "core/wal.h"
#include "cube/csv.h"
#include "cube/cube_builder.h"
#include "range/range_engine.h"
#include "select/adapt.h"
#include "serve/admission.h"
#include "serve/serving.h"
#include "serve/view_cache.h"
#include "util/query_context.h"
#include "util/rng.h"
#include "workload/population.h"

namespace {

using vecube::Status;

/// Set by the SIGINT handler; serve workers poll it between queries so
/// ^C stops issuing new work and the admission queue drains cleanly.
volatile std::sig_atomic_t g_interrupted = 0;

extern "C" void HandleSigint(int) { g_interrupted = 1; }

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: vecube_cli "
               "build|optimize|query|assemble|range|info|serve|fsck ...\n"
               "see the header of tools/vecube_cli.cc for details\n");
  return 2;
}

// --flag value parser; flags are unique.
std::map<std::string, std::string> ParseFlags(int argc, char** argv,
                                              int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    arg.erase(0, 2);
    std::string value = "1";  // boolean flag unless a value follows
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      value = argv[++i];
    }
    flags[arg] = std::move(value);
  }
  return flags;
}

vecube::Result<std::vector<uint32_t>> ParseU32List(const std::string& text) {
  std::vector<uint32_t> out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    const std::string token = text.substr(pos, comma - pos);
    char* end = nullptr;
    const unsigned long value = std::strtoul(token.c_str(), &end, 10);
    if (end == token.c_str() || *end != '\0') {
      return Status::InvalidArgument("'" + token + "' is not an integer");
    }
    out.push_back(static_cast<uint32_t>(value));
    pos = comma + 1;
  }
  if (out.empty()) return Status::InvalidArgument("empty list");
  return out;
}

int CmdBuild(const std::map<std::string, std::string>& flags) {
  if (!flags.count("csv") || !flags.count("extents") || !flags.count("out")) {
    return Usage();
  }
  auto extents = ParseU32List(flags.at("extents"));
  if (!extents.ok()) return Fail(extents.status());

  auto shape = flags.count("pad") ? vecube::CubeShape::MakePadded(*extents)
                                  : vecube::CubeShape::Make(*extents);
  if (!shape.ok()) return Fail(shape.status());

  auto relation = vecube::LoadRelationCsv(
      flags.at("csv"), static_cast<uint32_t>(extents->size()), 1);
  if (!relation.ok()) return Fail(relation.status());

  vecube::CubeBuildOptions build_options;
  if (flags.count("dict")) {
    build_options.mapping = vecube::KeyMapping::kDictionary;
  }
  auto built = vecube::CubeBuilder::Build(*relation, *shape, build_options);
  if (!built.ok()) return Fail(built.status());

  vecube::ElementStore store(*shape);
  Status st = store.Put(vecube::ElementId::Root(shape->ndim()),
                        std::move(built->cube));
  if (!st.ok()) return Fail(st);
  st = vecube::SaveStoreV2(store, flags.at("out"));
  if (!st.ok()) return Fail(st);
  std::printf("built %s cube from %llu rows -> %s\n",
              shape->ToString().c_str(),
              static_cast<unsigned long long>(relation->num_rows()),
              flags.at("out").c_str());
  return 0;
}

vecube::Result<vecube::QueryPopulation> ParseWorkload(
    const std::string& text, const vecube::CubeShape& shape) {
  std::vector<vecube::QuerySpec> queries;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    const std::string token = text.substr(pos, comma - pos);
    const size_t colon = token.find(':');
    if (colon == std::string::npos) {
      return Status::InvalidArgument("workload entry '" + token +
                                     "' is not MASK:FREQ");
    }
    const uint32_t mask =
        static_cast<uint32_t>(std::strtoul(token.substr(0, colon).c_str(),
                                           nullptr, 0));
    const double freq = std::strtod(token.substr(colon + 1).c_str(), nullptr);
    vecube::ElementId view;
    VECUBE_ASSIGN_OR_RETURN(view,
                            vecube::ElementId::AggregatedView(mask, shape));
    queries.push_back(vecube::QuerySpec{view, freq});
    pos = comma + 1;
  }
  return vecube::QueryPopulation::Make(std::move(queries), shape);
}

int CmdOptimize(const std::map<std::string, std::string>& flags) {
  if (!flags.count("store") || !flags.count("out") ||
      !flags.count("workload")) {
    return Usage();
  }
  auto store = vecube::LoadStore(flags.at("store"));
  if (!store.ok()) return Fail(store.status());
  auto population = ParseWorkload(flags.at("workload"), store->shape());
  if (!population.ok()) return Fail(population.status());

  // --budget is the total storage target; the selection takes the
  // redundancy beyond the basis, whose volume is the cube's.
  uint64_t redundancy = 0;
  if (flags.count("budget")) {
    const uint64_t budget =
        std::strtoull(flags.at("budget").c_str(), nullptr, 10);
    const uint64_t volume = store->shape().volume();
    redundancy = budget > volume ? budget - volume : 0;
  }
  double predicted_cost = 0.0;
  auto target = vecube::SelectElementSet(store->shape(), *population,
                                         redundancy, &predicted_cost);
  if (!target.ok()) return Fail(target.status());

  // Migrate from the loaded store (assembles the root if needed).
  vecube::AssemblyEngine engine(&*store);
  auto next = vecube::MigrateStore(store->shape(), &engine, *target);
  if (!next.ok()) return Fail(next.status());
  Status st = vecube::SaveStoreV2(*next, flags.at("out"));
  if (!st.ok()) return Fail(st);
  std::printf("selected %zu elements (predicted cost %.2f ops/query, "
              "storage %llu cells) -> %s\n",
              target->size(), predicted_cost,
              static_cast<unsigned long long>(next->StorageCells()),
              flags.at("out").c_str());
  return 0;
}

int CmdQuery(const std::map<std::string, std::string>& flags) {
  if (!flags.count("store") || !flags.count("mask")) return Usage();
  auto store = vecube::LoadStore(flags.at("store"));
  if (!store.ok()) return Fail(store.status());
  const uint32_t mask = static_cast<uint32_t>(
      std::strtoul(flags.at("mask").c_str(), nullptr, 0));
  vecube::AssemblyEngine engine(&*store);
  vecube::OpCounter ops;
  auto view = engine.AssembleView(mask, &ops);
  if (!view.ok()) return Fail(view.status());
  std::printf("view mask=%u shape=%s ops=%llu\n", mask,
              view->ShapeString().c_str(),
              static_cast<unsigned long long>(ops.adds));
  for (uint64_t i = 0; i < view->size(); ++i) {
    std::printf("%s%g", i == 0 ? "" : " ", (*view)[i]);
  }
  std::printf("\n");
  return 0;
}

int CmdAssemble(const std::map<std::string, std::string>& flags) {
  if (!flags.count("store") || !flags.count("mask")) return Usage();
  auto store = vecube::LoadStore(flags.at("store"));
  if (!store.ok()) return Fail(store.status());
  const uint32_t mask = static_cast<uint32_t>(
      std::strtoul(flags.at("mask").c_str(), nullptr, 0));
  const uint32_t threads =
      flags.count("threads")
          ? static_cast<uint32_t>(
                std::strtoul(flags.at("threads").c_str(), nullptr, 10))
          : vecube::ThreadPool::DefaultThreadCount();
  const uint32_t shards =
      flags.count("shards")
          ? static_cast<uint32_t>(
                std::strtoul(flags.at("shards").c_str(), nullptr, 10))
          : 0;

  std::unique_ptr<vecube::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<vecube::ThreadPool>(threads);
  vecube::AssemblyEngine engine(&*store, pool.get(), shards);

  auto target = vecube::ElementId::AggregatedView(mask, store->shape());
  if (!target.ok()) return Fail(target.status());
  const uint64_t plan_cost = engine.PlanCost(*target);
  if (plan_cost == vecube::kInfiniteCost) {
    return Fail(Status::Incomplete("store cannot assemble this view"));
  }

  vecube::OpCounter ops;
  const auto start = std::chrono::steady_clock::now();
  auto view = engine.Assemble(*target, &ops);
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  if (!view.ok()) return Fail(view.status());
  std::printf("view mask=%u shape=%s\n", mask, view->ShapeString().c_str());
  std::printf("shards=%u threads=%u plan_cost=%llu ops=%llu time_ms=%.3f\n",
              engine.num_shards(), threads,
              static_cast<unsigned long long>(plan_cost),
              static_cast<unsigned long long>(ops.adds), ms);
  // The split each aggregate descent took (DESIGN.md §14).
  const std::vector<vecube::ShardPlan> plans = engine.CascadePlans(*target);
  for (size_t i = 0; i < plans.size(); ++i) {
    std::printf("cascade %zu: %s\n", i, plans[i].ToString().c_str());
  }
  return 0;
}

int CmdRange(const std::map<std::string, std::string>& flags) {
  if (!flags.count("store") || !flags.count("start") ||
      !flags.count("width")) {
    return Usage();
  }
  auto store = vecube::LoadStore(flags.at("store"));
  if (!store.ok()) return Fail(store.status());
  auto start = ParseU32List(flags.at("start"));
  auto width = ParseU32List(flags.at("width"));
  if (!start.ok()) return Fail(start.status());
  if (!width.ok()) return Fail(width.status());
  auto range = vecube::RangeSpec::Make(*start, *width, store->shape());
  if (!range.ok()) return Fail(range.status());
  vecube::AssemblyEngine assembler(&*store);
  vecube::ElementServer server(&assembler, &*store, /*cache=*/nullptr);
  vecube::RangeEngine engine(&*store, vecube::MissingElementPolicy::kAssemble,
                             &server);
  vecube::RangeQueryStats stats;
  auto sum = engine.RangeSum(*range, &stats);
  if (!sum.ok()) return Fail(sum.status());
  std::printf("range %s sum=%g cell_reads=%llu assembly_ops=%llu\n",
              range->ToString().c_str(), *sum,
              static_cast<unsigned long long>(stats.cell_reads),
              static_cast<unsigned long long>(stats.assembly_ops));
  return 0;
}

int CmdInfo(const std::map<std::string, std::string>& flags) {
  if (!flags.count("store")) return Usage();
  auto store = vecube::LoadStore(flags.at("store"));
  if (!store.ok()) return Fail(store.status());
  std::printf("shape %s, %zu elements, %llu cells (%.3fx cube volume)\n",
              store->shape().ToString().c_str(), store->size(),
              static_cast<unsigned long long>(store->StorageCells()),
              store->RelativeStorage());
  for (const vecube::ElementId& id : store->Ids()) {
    const char* kind = id.IsAggregatedView(store->shape()) ? "view"
                       : id.IsIntermediate()               ? "intermediate"
                                                           : "residual";
    std::printf("  %-24s %-12s vol=%llu\n", id.ToString().c_str(), kind,
                static_cast<unsigned long long>(
                    id.DataVolume(store->shape())));
  }
  const bool complete = vecube::IsComplete(store->Ids(), store->shape());
  std::printf("complete basis: %s; non-redundant: %s\n",
              complete ? "yes" : "no",
              vecube::IsNonRedundant(store->Ids(), store->shape()) ? "yes"
                                                                   : "no");
  return 0;
}

int CmdServe(const std::map<std::string, std::string>& flags) {
  if (!flags.count("store") || !flags.count("workload") ||
      !flags.count("queries")) {
    return Usage();
  }
  auto store = vecube::LoadStore(flags.at("store"));
  if (!store.ok()) return Fail(store.status());
  auto population = ParseWorkload(flags.at("workload"), store->shape());
  if (!population.ok()) return Fail(population.status());
  const uint64_t queries =
      std::strtoull(flags.at("queries").c_str(), nullptr, 10);
  if (queries == 0) return Fail(Status::InvalidArgument("--queries must be > 0"));
  const uint64_t cache_mb =
      flags.count("cache-mb")
          ? std::strtoull(flags.at("cache-mb").c_str(), nullptr, 10)
          : 64;
  const uint64_t seed =
      flags.count("seed") ? std::strtoull(flags.at("seed").c_str(), nullptr, 10)
                          : 42;

  const uint64_t threads =
      flags.count("threads")
          ? std::strtoull(flags.at("threads").c_str(), nullptr, 10)
          : 2;
  const uint64_t deadline_ms =
      flags.count("deadline-ms")
          ? std::strtoull(flags.at("deadline-ms").c_str(), nullptr, 10)
          : 0;  // 0 = unbounded
  const uint64_t max_inflight =
      flags.count("max-inflight")
          ? std::strtoull(flags.at("max-inflight").c_str(), nullptr, 10)
          : threads;
  const bool allow_degraded = flags.count("allow-degraded") != 0;
  if (threads == 0 || max_inflight == 0) {
    return Fail(Status::InvalidArgument(
        "--threads and --max-inflight must be > 0"));
  }

  vecube::ViewCacheOptions cache_options;
  cache_options.enabled = true;
  cache_options.capacity_bytes = cache_mb << 20;
  vecube::ViewCache cache(cache_options);
  vecube::AdmissionOptions admission_options;
  admission_options.max_inflight = static_cast<uint32_t>(max_inflight);
  vecube::AdmissionController admission(admission_options);

  // ^C anywhere in serve stops issuing new queries; already-admitted
  // work drains below. Installed before the (potentially long)
  // pre-sampling phase so an early interrupt also exits gracefully
  // instead of hard-killing the process.
  std::signal(SIGINT, HandleSigint);

  // Pre-sample the query sequence so the served traffic is deterministic
  // for a given seed regardless of thread interleaving. An interrupt
  // truncates the sequence: only what was sampled can be issued.
  vecube::Rng rng(seed);
  std::vector<vecube::ElementId> sequence;
  sequence.reserve(queries);
  for (uint64_t q = 0; q < queries && !g_interrupted; ++q) {
    sequence.push_back(population->Sample(&rng));
  }
  const uint64_t issuable = sequence.size();
  vecube::AssemblyEngine planner(&*store);
  uint64_t baseline_ops = 0;
  for (const vecube::ElementId& view : sequence) {
    baseline_ops += planner.PlanCost(view);
  }

  std::atomic<uint64_t> next{0};
  std::atomic<uint64_t> served{0};
  std::atomic<uint64_t> failed{0};
  std::atomic<uint64_t> shed{0};
  std::atomic<uint64_t> deadline_failures{0};
  std::atomic<uint64_t> degraded_served{0};
  std::vector<double> checksums(threads, 0.0);
  {
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (uint64_t w = 0; w < threads; ++w) {
      workers.emplace_back([&, w]() {
        vecube::AssemblyEngine engine(&*store);
        vecube::ElementServer server(&engine, &*store, &cache);
        for (;;) {
          if (g_interrupted) return;
          const uint64_t q =
              next.fetch_add(1, std::memory_order_relaxed);  // order: work
                                                             // distribution
                                                             // counter only
          if (q >= issuable) return;
          vecube::QueryContext ctx =
              deadline_ms > 0 ? vecube::QueryContext::WithTimeout(
                                    std::chrono::milliseconds(deadline_ms))
                              : vecube::QueryContext();
          ctx.set_allow_degraded(allow_degraded);
          auto permit = admission.Admit(ctx);
          if (!permit.ok()) {
            if (permit.status().IsResourceExhausted()) {
              cache.RecordShed();
              shed.fetch_add(1, std::memory_order_relaxed);  // order: stat
            } else if (permit.status().IsDeadlineExceeded() ||
                       permit.status().IsCancelled()) {
              cache.RecordDeadlineExceeded();
              deadline_failures.fetch_add(
                  1, std::memory_order_relaxed);  // order: stat
            } else {
              failed.fetch_add(1, std::memory_order_relaxed);  // order: stat
            }
            continue;
          }
          auto answer = server.Serve(sequence[q], ctx);
          if (!answer.ok()) {
            if (answer.status().IsDeadlineExceeded() ||
                answer.status().IsCancelled()) {
              deadline_failures.fetch_add(
                  1, std::memory_order_relaxed);  // order: stat
            } else {
              failed.fetch_add(1, std::memory_order_relaxed);  // order: stat
            }
            continue;
          }
          if (answer->degraded) {
            degraded_served.fetch_add(1,
                                      std::memory_order_relaxed);  // order:
                                                                   // stat
          }
          checksums[w] += answer->data[0];
          served.fetch_add(1, std::memory_order_relaxed);  // order: stat
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
  }
  admission.Shutdown();
  const bool drained = admission.Drain(std::chrono::milliseconds(2000));
  std::signal(SIGINT, SIG_DFL);

  double checksum = 0.0;
  for (double c : checksums) checksum += c;
  if (failed.load() > 0) {
    return Fail(Status::Internal(
        std::to_string(failed.load()) +
        " queries failed outside the robustness contract"));
  }

  const vecube::ServeMetrics metrics = cache.Metrics();
  if (g_interrupted) {
    std::printf("interrupted: issued %llu of %llu queries, %s\n",
                static_cast<unsigned long long>(
                    std::min(next.load(), issuable)),
                static_cast<unsigned long long>(queries),
                drained ? "admission queue drained" : "DRAIN TIMED OUT");
  }
  std::printf("served %llu queries (checksum %g)\n",
              static_cast<unsigned long long>(served.load()), checksum);
  std::printf("  deadline_exceeded  %llu\n",
              static_cast<unsigned long long>(deadline_failures.load()));
  std::printf("  shed               %llu\n",
              static_cast<unsigned long long>(shed.load()));
  std::printf("  degraded           %llu\n",
              static_cast<unsigned long long>(degraded_served.load()));
  std::printf("  follower_retries   %llu\n",
              static_cast<unsigned long long>(metrics.follower_retries));
  std::printf("  hits               %llu\n",
              static_cast<unsigned long long>(metrics.hits));
  std::printf("  misses             %llu\n",
              static_cast<unsigned long long>(metrics.misses));
  std::printf("  hit_rate           %.4f\n", metrics.HitRate());
  std::printf("  insertions         %llu\n",
              static_cast<unsigned long long>(metrics.insertions));
  std::printf("  rejected_inserts   %llu\n",
              static_cast<unsigned long long>(metrics.rejected_inserts));
  std::printf("  evictions          %llu\n",
              static_cast<unsigned long long>(metrics.evictions));
  std::printf("  invalidations      %llu\n",
              static_cast<unsigned long long>(metrics.invalidations));
  std::printf("  patches            %llu\n",
              static_cast<unsigned long long>(metrics.patches));
  std::printf("  compactions        %llu\n",
              static_cast<unsigned long long>(metrics.compactions));
  std::printf("  entries            %llu\n",
              static_cast<unsigned long long>(metrics.entries));
  std::printf("  bytes_resident     %llu\n",
              static_cast<unsigned long long>(metrics.bytes_resident));
  std::printf("  assembly_ops_saved %llu (baseline %llu, executed %llu)\n",
              static_cast<unsigned long long>(metrics.assembly_ops_saved),
              static_cast<unsigned long long>(baseline_ops),
              static_cast<unsigned long long>(baseline_ops -
                                              metrics.assembly_ops_saved));
  return 0;
}

int CmdFsck(const std::map<std::string, std::string>& flags) {
  if (!flags.count("store")) return Usage();
  const std::string& path = flags.at("store");

  vecube::SnapshotReport report;
  auto store = vecube::LoadStoreV2(path, &report);
  if (!store.ok()) {
    // Not a readable v2 snapshot; the strict loader tells v1 apart from
    // genuine damage.
    auto v1 = vecube::LoadStore(path);
    if (v1.ok()) {
      std::printf("%s: v1 snapshot, structurally sound "
                  "(format carries no checksums; rewrite as v2 to get "
                  "them)\n",
                  path.c_str());
      return 0;
    }
    return Fail(store.status());
  }

  std::printf("%s: v2 snapshot, shape %s, %zu elements, wal_seq=%llu\n",
              path.c_str(), store->shape().ToString().c_str(),
              report.elements.size(),
              static_cast<unsigned long long>(report.meta.wal_seq));
  for (const vecube::ElementDiagnostic& diag : report.elements) {
    if (diag.corrupt) {
      std::printf("  %-24s CORRUPT  %s\n", diag.id.ToString().c_str(),
                  diag.detail.c_str());
    } else {
      std::printf("  %-24s ok       vol=%llu\n", diag.id.ToString().c_str(),
                  static_cast<unsigned long long>(
                      diag.id.DataVolume(store->shape())));
    }
  }

  if (flags.count("wal")) {
    auto scan = vecube::WriteAheadLog::Scan(flags.at("wal"), store->shape());
    if (!scan.ok()) return Fail(scan.status());
    std::printf("%s: base_lsn=%llu, %zu committed records, %llu committed "
                "bytes%s\n",
                flags.at("wal").c_str(),
                static_cast<unsigned long long>(scan->base_lsn),
                scan->records.size(),
                static_cast<unsigned long long>(scan->committed_bytes),
                scan->torn_tail
                    ? ", TORN TAIL (truncated away on next open)"
                    : ", clean tail");
  }

  if (flags.count("repair") && store->quarantined_count() > 0) {
    auto fixed = vecube::RepairStore(&*store);
    if (!fixed.ok()) return Fail(fixed.status());
    std::printf("repair: %zu re-derived, %zu unrepairable, %llu assembly "
                "ops\n",
                fixed->repaired.size(), fixed->unrepaired.size(),
                static_cast<unsigned long long>(fixed->assembly_ops));
    for (const vecube::ElementId& id : fixed->unrepaired) {
      std::printf("  %-24s UNREPAIRABLE (no surviving reconstruction "
                  "path)\n",
                  id.ToString().c_str());
    }
    if (flags.count("out")) {
      Status st = vecube::SaveStoreV2(*store, flags.at("out"), report.meta);
      if (!st.ok()) return Fail(st);
      std::printf("repaired store -> %s\n", flags.at("out").c_str());
    }
  }

  const size_t remaining = store->quarantined_count();
  std::printf("verdict: %s\n", remaining == 0
                                   ? "healthy"
                                   : "degraded (corrupt elements remain)");
  return remaining == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const auto flags = ParseFlags(argc, argv, 2);
  if (command == "build") return CmdBuild(flags);
  if (command == "optimize") return CmdOptimize(flags);
  if (command == "query") return CmdQuery(flags);
  if (command == "assemble") return CmdAssemble(flags);
  if (command == "range") return CmdRange(flags);
  if (command == "info") return CmdInfo(flags);
  if (command == "serve") return CmdServe(flags);
  if (command == "fsck") return CmdFsck(flags);
  return Usage();
}
