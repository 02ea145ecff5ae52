// adaptive_reconfig: the paper's titular capability — dynamic assembly
// with online adaptation.
//
// Query traffic starts concentrated on "sales by product" dashboards,
// then shifts to "sales by week" reporting. An OlapSession with online
// adaptation on observes access frequencies, detects the drift, re-runs
// Algorithm 1 against the live distribution, and migrates the
// materialized element set by assembling the new elements from the old
// ones. The per-phase average operation counts show the system re-tuning
// itself.

#include <cstdio>

#include "api/session.h"
#include "cube/shape.h"
#include "cube/synthetic.h"
#include "util/rng.h"

using namespace vecube;  // NOLINT — example brevity

namespace {

double RunPhase(OlapSession* session, const ElementId& hot,
                const ElementId& cold, int queries, Rng* rng) {
  const uint64_t ops_before = session->stats().assembly_ops;
  for (int i = 0; i < queries; ++i) {
    // 90% of traffic on the hot view, 10% on the cold one.
    const ElementId& view = (rng->UniformDouble() < 0.9) ? hot : cold;
    auto answer = session->Element(view);
    if (!answer.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   answer.status().ToString().c_str());
      std::exit(1);
    }
  }
  return static_cast<double>(session->stats().assembly_ops - ops_before) /
         queries;
}

}  // namespace

int main() {
  auto shape = CubeShape::Make({16, 8, 32});  // product x store x week
  if (!shape.ok()) return 1;
  Rng data_rng(1);
  auto cube = UniformIntegerCube(*shape, &data_rng, 0, 50);
  if (!cube.ok()) return 1;

  OlapSessionOptions options;
  options.min_queries_between_reconfigs = 24;
  options.drift_threshold = 0.35;
  options.access_decay = 0.95;
  // Allow half the cube volume again so hot views can be kept redundantly.
  options.redundancy_budget_cells = shape->volume() / 2;
  auto session = OlapSession::FromCube(*shape, *cube, options);
  if (!session.ok()) return 1;

  // Phase 1: product dashboards (aggregate stores and weeks).
  auto by_product = ElementId::AggregatedView(0b110, *shape);
  // Phase 2: weekly reports (aggregate products and stores).
  auto by_week = ElementId::AggregatedView(0b011, *shape);
  // A rarely-used drill-down present in both phases.
  auto by_product_week = ElementId::AggregatedView(0b010, *shape);

  Rng traffic(42);
  std::printf("Cube %s; starting store: {A}, %llu cells\n\n",
              shape->ToString().c_str(),
              static_cast<unsigned long long>(
                  (*session)->store().StorageCells()));

  std::printf("%-34s %14s %16s %10s\n", "phase", "avg ops/query",
              "store cells", "reconfigs");
  const struct {
    const char* name;
    const ElementId* hot;
  } phases[] = {
      {"1: product dashboards (cold start)", &*by_product},
      {"1b: product dashboards (warmed)", &*by_product},
      {"2: weekly reports (drift!)", &*by_week},
      {"2b: weekly reports (re-tuned)", &*by_week},
  };
  for (const auto& phase : phases) {
    const double avg =
        RunPhase(session->get(), *phase.hot, *by_product_week, 200,
                 &traffic);
    std::printf("%-34s %14.1f %16llu %10llu\n", phase.name, avg,
                static_cast<unsigned long long>(
                    (*session)->store().StorageCells()),
                static_cast<unsigned long long>(
                    (*session)->stats().optimizations));
  }

  std::printf("\nServed %llu queries with %llu reconfigurations; final "
              "store holds %zu elements.\n",
              static_cast<unsigned long long>((*session)->stats().queries),
              static_cast<unsigned long long>(
                  (*session)->stats().optimizations),
              (*session)->store().size());
  std::printf("Ops per query dropped within each phase after the assembler "
              "adapted to the observed access pattern.\n");
  return 0;
}
