// Query populations: the {Z_k, f_k} of Section 5.2.
//
// "Let {Z_k} define a population of K views, or, in general, view
// elements. Let f_k denote the relative frequency of access of Z_k such
// that Σ f_k = 1." The experiments of Section 7.2 draw the f_k at random
// over the 2^d aggregated views.

#ifndef VECUBE_WORKLOAD_POPULATION_H_
#define VECUBE_WORKLOAD_POPULATION_H_

#include <cstdint>
#include <vector>

#include "core/element_id.h"
#include "cube/shape.h"
#include "util/result.h"
#include "util/rng.h"

namespace vecube {

/// One queried view (element) and its relative access frequency.
struct QuerySpec {
  ElementId view;
  double frequency = 0.0;
};

/// A population of queries. Frequencies are kept normalized (sum 1).
class QueryPopulation {
 public:
  QueryPopulation() = default;

  /// Validates ids against the shape and normalizes frequencies. Entries
  /// with a non-finite or non-positive frequency, and frequencies whose
  /// total is not finite, are rejected.
  static Result<QueryPopulation> Make(std::vector<QuerySpec> queries,
                                      const CubeShape& shape);

  [[nodiscard]] const std::vector<QuerySpec>& queries() const { return queries_; }
  [[nodiscard]] size_t size() const { return queries_.size(); }
  const QuerySpec& operator[](size_t k) const { return queries_[k]; }

  /// Draws one view id, weighted by frequency (for trace replay).
  const ElementId& Sample(Rng* rng) const;

 private:
  std::vector<QuerySpec> queries_;
  std::vector<double> cdf_;
};

/// Experiment 1/2 workload: "assign a random probability of access to each
/// of the aggregated views" — a uniform draw from the simplex over all 2^d
/// aggregated views.
Result<QueryPopulation> RandomViewPopulation(const CubeShape& shape, Rng* rng);

/// Zipf-skewed frequencies over the 2^d aggregated views (a heavier-tailed
/// variant used by the ablation benches and examples).
Result<QueryPopulation> ZipfViewPopulation(const CubeShape& shape, Rng* rng,
                                           double skew);

/// A population concentrated on an explicit subset of views with given
/// weights (e.g. the pedagogical example's f1 = f7 = 0.5).
Result<QueryPopulation> FixedPopulation(
    const std::vector<std::pair<ElementId, double>>& entries,
    const CubeShape& shape);

}  // namespace vecube

#endif  // VECUBE_WORKLOAD_POPULATION_H_
