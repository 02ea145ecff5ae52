#include "cube/synthetic.h"

#include <cmath>
#include <string>
#include <vector>

namespace vecube {

Result<Tensor> UniformIntegerCube(const CubeShape& shape, Rng* rng,
                                  int64_t lo, int64_t hi) {
  if (hi < lo) return Status::InvalidArgument("hi < lo");
  Tensor t;
  VECUBE_ASSIGN_OR_RETURN(t, Tensor::Zeros(shape.extents()));
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  for (uint64_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<double>(lo + static_cast<int64_t>(rng->UniformU64(span)));
  }
  return t;
}

Result<Tensor> MixedMagnitudeCube(const CubeShape& shape, Rng* rng) {
  Tensor t;
  VECUBE_ASSIGN_OR_RETURN(t, Tensor::Uninitialized(shape.extents()));
  for (uint64_t i = 0; i < t.size(); ++i) {
    const double unit = rng->UniformDouble(-1.0, 1.0);
    t[i] = std::ldexp(unit, static_cast<int>(rng->UniformU64(20)));
  }
  return t;
}

Result<Tensor> SparseRandomCube(const CubeShape& shape, Rng* rng,
                                double nonzero_fraction, int64_t lo,
                                int64_t hi) {
  if (nonzero_fraction < 0.0 || nonzero_fraction > 1.0) {
    return Status::InvalidArgument("nonzero_fraction must be in [0, 1]");
  }
  if (hi < lo) return Status::InvalidArgument("hi < lo");
  Tensor t;
  VECUBE_ASSIGN_OR_RETURN(t, Tensor::Zeros(shape.extents()));
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  for (uint64_t i = 0; i < t.size(); ++i) {
    if (rng->UniformDouble() < nonzero_fraction) {
      t[i] =
          static_cast<double>(lo + static_cast<int64_t>(rng->UniformU64(span)));
    }
  }
  return t;
}

Result<Tensor> ClusteredCube(const CubeShape& shape, Rng* rng,
                             uint32_t num_clusters, double cluster_radius,
                             double peak) {
  if (num_clusters == 0) {
    return Status::InvalidArgument("need at least one cluster");
  }
  if (cluster_radius <= 0.0) {
    return Status::InvalidArgument("cluster_radius must be positive");
  }
  Tensor t;
  VECUBE_ASSIGN_OR_RETURN(t, Tensor::Zeros(shape.extents()));
  const uint32_t d = shape.ndim();

  std::vector<std::vector<double>> centers(num_clusters,
                                           std::vector<double>(d));
  for (auto& c : centers) {
    for (uint32_t m = 0; m < d; ++m) {
      c[m] = rng->UniformDouble(0.0, static_cast<double>(shape.extent(m)));
    }
  }

  for (uint64_t flat = 0; flat < t.size(); ++flat) {
    const std::vector<uint32_t> coords = shape.Coords(flat);
    double value = 0.0;
    for (const auto& c : centers) {
      double dist2 = 0.0;
      for (uint32_t m = 0; m < d; ++m) {
        const double delta = static_cast<double>(coords[m]) - c[m];
        dist2 += delta * delta;
      }
      value += peak * std::exp(-dist2 / (2.0 * cluster_radius * cluster_radius));
    }
    t[flat] = std::round(value);
  }
  return t;
}

Result<Relation> SyntheticSalesRelation(const CubeShape& shape, Rng* rng,
                                        uint64_t num_rows, double key_skew) {
  std::vector<std::string> dims;
  for (uint32_t m = 0; m < shape.ndim(); ++m) {
    dims.push_back("dim" + std::to_string(m));
  }
  Relation relation;
  VECUBE_ASSIGN_OR_RETURN(relation, Relation::Make(dims, {"amount"}));

  // Pre-draw per-dimension Zipf weights, then sample keys by inverse CDF.
  std::vector<std::vector<double>> cdfs(shape.ndim());
  for (uint32_t m = 0; m < shape.ndim(); ++m) {
    std::vector<double> w = rng->ZipfWeights(shape.extent(m), key_skew);
    cdfs[m].resize(w.size());
    double acc = 0.0;
    for (size_t i = 0; i < w.size(); ++i) {
      acc += w[i];
      cdfs[m][i] = acc;
    }
    cdfs[m].back() = 1.0;
  }

  std::vector<int64_t> keys(shape.ndim());
  for (uint64_t row = 0; row < num_rows; ++row) {
    for (uint32_t m = 0; m < shape.ndim(); ++m) {
      const double u = rng->UniformDouble();
      const auto& cdf = cdfs[m];
      size_t lo = 0, hi = cdf.size() - 1;
      while (lo < hi) {
        const size_t mid = (lo + hi) / 2;
        if (cdf[mid] < u) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      keys[m] = static_cast<int64_t>(lo);
    }
    const double amount = static_cast<double>(1 + rng->UniformU64(500));
    VECUBE_RETURN_NOT_OK(relation.Append(keys, {amount}));
  }
  return relation;
}

}  // namespace vecube
