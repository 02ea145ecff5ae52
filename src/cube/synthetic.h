// Synthetic data generators for experiments and examples.
//
// The paper's experiments assign random access frequencies to views of a
// synthetic cube (Section 7.2); its costs are data-independent, but our
// executable assemblies and examples need cube contents. These generators
// produce deterministic, realistic fill patterns.

#ifndef VECUBE_CUBE_SYNTHETIC_H_
#define VECUBE_CUBE_SYNTHETIC_H_

#include <cstdint>

#include "cube/relation.h"
#include "cube/shape.h"
#include "cube/tensor.h"
#include "util/result.h"
#include "util/rng.h"

namespace vecube {

/// Every cell i.i.d. uniform integer in [lo, hi] (integer-valued doubles so
/// reconstruction identities hold exactly).
Result<Tensor> UniformIntegerCube(const CubeShape& shape, Rng* rng,
                                  int64_t lo = 0, int64_t hi = 100);

/// Every cell UniformDouble(-1, 1) scaled by 2^k, k uniform in [0, 20):
/// real values over six decades, so sums round and any reassociation of
/// an add tree shows in the result bits (the integer cubes hide it).
Result<Tensor> MixedMagnitudeCube(const CubeShape& shape, Rng* rng);

/// A sparse cube: `nonzero_fraction` of cells get a uniform integer value,
/// the rest are 0. Cell positions drawn without clustering.
Result<Tensor> SparseRandomCube(const CubeShape& shape, Rng* rng,
                                double nonzero_fraction, int64_t lo = 1,
                                int64_t hi = 100);

/// A clustered cube: `num_clusters` Gaussian-ish blobs of mass, emulating
/// the locality of real OLAP fact data (sales concentrated on some
/// product/region/date combinations). Values are rounded to integers.
Result<Tensor> ClusteredCube(const CubeShape& shape, Rng* rng,
                             uint32_t num_clusters, double cluster_radius,
                             double peak = 100.0);

/// A synthetic star-schema-like fact relation: `num_rows` records with
/// Zipf-skewed keys per dimension and uniform integer measures, suitable
/// for CubeBuilder with kDirect mapping.
Result<Relation> SyntheticSalesRelation(const CubeShape& shape, Rng* rng,
                                        uint64_t num_rows, double key_skew);

}  // namespace vecube

#endif  // VECUBE_CUBE_SYNTHETIC_H_
