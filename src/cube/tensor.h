// Tensor: a dense row-major multi-dimensional array of doubles.
//
// The data cube itself and every materialized view element are Tensors.
// Unlike CubeShape, a Tensor's extents need not be powers of two along
// totally-aggregated dimensions (they become 1), so Tensor carries plain
// extents and derives its own strides.
//
// Storage is 64-byte aligned (kTensorAlignment) so the vectorized Haar
// kernels can use aligned SIMD loads on whole cache lines and no tensor
// payload straddles a line it does not own. The allocator also makes
// default construction a no-op, which is what lets Tensor::Uninitialized
// skip the zero-fill that Tensor::Zeros pays — kernels that overwrite
// every output cell allocate through Uninitialized and save a full write
// pass over the output.

#ifndef VECUBE_CUBE_TENSOR_H_
#define VECUBE_CUBE_TENSOR_H_

#include <cstdint>
#include <new>  // vecube-lint: disable=no-naked-new (the <new> header)
#include <string>
#include <utility>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace vecube {

/// Alignment (bytes) of every Tensor/scratch payload allocation.
inline constexpr std::size_t kTensorAlignment = 64;

/// Allocator for tensor payloads: 64-byte-aligned allocations, and
/// *default* construction is a no-op so resize()/vector(n) leave the cells
/// uninitialized (value construction, e.g. assign(n, 0.0), still writes).
template <typename T>
class TensorAllocator {
 public:
  using value_type = T;

  TensorAllocator() noexcept = default;
  template <typename U>
  explicit TensorAllocator(const TensorAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{kTensorAlignment}));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    ::operator delete(p, n * sizeof(T), std::align_val_t{kTensorAlignment});
  }

  // Default construction deliberately leaves the cell unwritten (trivial
  // types only — the payload is always double).
  template <typename U>
  void construct(U*) noexcept {}
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

  template <typename U>
  bool operator==(const TensorAllocator<U>&) const noexcept {
    return true;
  }
  template <typename U>
  bool operator!=(const TensorAllocator<U>&) const noexcept {
    return false;
  }
};

/// Aligned, lazily-initialized payload vector shared by Tensor and the
/// kernel scratch slabs (ShardScratch).
using TensorBuffer = std::vector<double, TensorAllocator<double>>;

/// Dense row-major array of double cells.
class Tensor {
 public:
  Tensor() = default;

  /// Allocates a zero-filled tensor. Extents may be any positive values.
  static Result<Tensor> Zeros(std::vector<uint32_t> extents);

  /// Allocates a tensor whose cells are UNINITIALIZED — no zero-fill pass.
  /// Strictly for kernels that overwrite every cell before the tensor
  /// escapes; reading a cell before writing it is undefined behavior.
  static Result<Tensor> Uninitialized(std::vector<uint32_t> extents);

  /// Wraps existing data; `data.size()` must equal the product of extents.
  static Result<Tensor> FromData(std::vector<uint32_t> extents,
                                 std::vector<double> data);

  /// Move-adopts an aligned payload buffer (no copy); `data.size()` must
  /// equal the product of extents.
  static Result<Tensor> FromBuffer(std::vector<uint32_t> extents,
                                   TensorBuffer data);

  [[nodiscard]] uint32_t ndim() const { return static_cast<uint32_t>(extents_.size()); }
  [[nodiscard]] const std::vector<uint32_t>& extents() const { return extents_; }
  [[nodiscard]] uint32_t extent(uint32_t dim) const { return extents_[dim]; }
  [[nodiscard]] uint64_t size() const { return data_.size(); }
  [[nodiscard]] uint64_t stride(uint32_t dim) const { return strides_[dim]; }

  [[nodiscard]] const TensorBuffer& data() const { return data_; }
  TensorBuffer& data() { return data_; }

  double* raw() { return data_.data(); }
  [[nodiscard]] const double* raw() const { return data_.data(); }

  double& operator[](uint64_t flat) { return data_[flat]; }
  double operator[](uint64_t flat) const { return data_[flat]; }

  /// Element access by coordinates (bounds-checked in debug builds).
  double At(const std::vector<uint32_t>& coords) const;
  void Set(const std::vector<uint32_t>& coords, double value);

  uint64_t FlatIndex(const std::vector<uint32_t>& coords) const;

  /// Sum of all cells.
  double Total() const;

  /// True iff same extents and all cells within `tol` of each other.
  bool ApproxEquals(const Tensor& other, double tol = 1e-9) const;

  std::string ShapeString() const;

 private:
  std::vector<uint32_t> extents_;
  std::vector<uint64_t> strides_;
  TensorBuffer data_;

  void ComputeStrides();
};

}  // namespace vecube

#endif  // VECUBE_CUBE_TENSOR_H_
