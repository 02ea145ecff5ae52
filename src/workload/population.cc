#include "workload/population.h"

#include <cmath>

#include "core/graph.h"
#include "util/logging.h"

namespace vecube {

Result<QueryPopulation> QueryPopulation::Make(std::vector<QuerySpec> queries,
                                              const CubeShape& shape) {
  if (queries.empty()) {
    return Status::InvalidArgument("population must not be empty");
  }
  double total = 0.0;
  for (const QuerySpec& q : queries) {
    VECUBE_RETURN_NOT_OK(q.view.Validate(shape));
    if (!std::isfinite(q.frequency)) {
      return Status::InvalidArgument("frequencies must be finite");
    }
    if (q.frequency <= 0.0) {
      return Status::InvalidArgument("frequencies must be positive");
    }
    total += q.frequency;
  }
  if (!std::isfinite(total)) {
    return Status::InvalidArgument("frequency total overflows a double");
  }
  QueryPopulation population;
  population.queries_ = std::move(queries);
  population.cdf_.reserve(population.queries_.size());
  double acc = 0.0;
  for (QuerySpec& q : population.queries_) {
    q.frequency /= total;
    acc += q.frequency;
    population.cdf_.push_back(acc);
  }
  population.cdf_.back() = 1.0;
  return population;
}

const ElementId& QueryPopulation::Sample(Rng* rng) const {
  VECUBE_CHECK(!queries_.empty());
  const double u = rng->UniformDouble();
  size_t lo = 0, hi = cdf_.size() - 1;
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (cdf_[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return queries_[lo].view;
}

namespace {

Result<QueryPopulation> ViewPopulationFromWeights(
    const CubeShape& shape, const std::vector<double>& weights) {
  const std::vector<ElementId> views =
      ViewElementGraph(shape).AggregatedViews();
  VECUBE_CHECK(weights.size() == views.size());
  std::vector<QuerySpec> queries;
  queries.reserve(views.size());
  for (size_t k = 0; k < views.size(); ++k) {
    // Guard against exact zeros from the generator; keep all views present
    // with a tiny floor so Make's positivity check passes.
    const double f = weights[k] > 0.0 ? weights[k] : 1e-12;
    queries.push_back(QuerySpec{views[k], f});
  }
  return QueryPopulation::Make(std::move(queries), shape);
}

}  // namespace

Result<QueryPopulation> RandomViewPopulation(const CubeShape& shape,
                                             Rng* rng) {
  const size_t k = size_t{1} << shape.ndim();
  return ViewPopulationFromWeights(shape, rng->Simplex(k));
}

Result<QueryPopulation> ZipfViewPopulation(const CubeShape& shape, Rng* rng,
                                           double skew) {
  const size_t k = size_t{1} << shape.ndim();
  return ViewPopulationFromWeights(shape, rng->ZipfWeights(k, skew));
}

Result<QueryPopulation> FixedPopulation(
    const std::vector<std::pair<ElementId, double>>& entries,
    const CubeShape& shape) {
  std::vector<QuerySpec> queries;
  queries.reserve(entries.size());
  for (const auto& [id, f] : entries) {
    queries.push_back(QuerySpec{id, f});
  }
  return QueryPopulation::Make(std::move(queries), shape);
}

}  // namespace vecube
