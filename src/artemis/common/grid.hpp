#pragma once

#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "artemis/common/check.hpp"

namespace artemis {

/// Extents of a (up to) 3D rectangular domain, ordered outermost to
/// innermost: [z, y, x]. Lower-dimensional arrays use extent 1 in the
/// missing leading dimensions, e.g. a 1D array of length N is {1, 1, N}.
struct Extents {
  std::int64_t z = 1;
  std::int64_t y = 1;
  std::int64_t x = 1;

  std::int64_t volume() const { return z * y * x; }
  bool operator==(const Extents&) const = default;
};

/// std::allocator, except that value-less construction default-initializes:
/// a vector of doubles sized through it is allocated, not zeroed.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// A dense, row-major 3D grid of doubles. This is the storage substrate for
/// both the reference interpreter and the tiled functional executor; it
/// stands in for a cudaMalloc'd device allocation.
class Grid3D {
 public:
  using Storage = std::vector<double, DefaultInitAllocator<double>>;
  /// Tag: allocate without writing, for a caller that fills every element.
  struct Uninitialized {};

  Grid3D() = default;
  explicit Grid3D(Extents e, double fill = 0.0)
      : extents_(e), data_(static_cast<std::size_t>(e.volume()), fill) {
    ARTEMIS_CHECK(e.z >= 1 && e.y >= 1 && e.x >= 1);
  }
  Grid3D(Extents e, Uninitialized)
      : extents_(e), data_(static_cast<std::size_t>(e.volume())) {
    ARTEMIS_CHECK(e.z >= 1 && e.y >= 1 && e.x >= 1);
  }

  const Extents& extents() const { return extents_; }
  std::int64_t size() const { return extents_.volume(); }

  bool in_bounds(std::int64_t z, std::int64_t y, std::int64_t x) const {
    return z >= 0 && z < extents_.z && y >= 0 && y < extents_.y && x >= 0 &&
           x < extents_.x;
  }

  double& at(std::int64_t z, std::int64_t y, std::int64_t x) {
    return data_[index(z, y, x)];
  }
  double at(std::int64_t z, std::int64_t y, std::int64_t x) const {
    return data_[index(z, y, x)];
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  Storage& raw() { return data_; }
  const Storage& raw() const { return data_; }

  void fill(double v) { std::fill(data_.begin(), data_.end(), v); }

  /// Maximum absolute elementwise difference; grids must be congruent.
  static double max_abs_diff(const Grid3D& a, const Grid3D& b);

 private:
  std::size_t index(std::int64_t z, std::int64_t y, std::int64_t x) const {
    ARTEMIS_CHECK_MSG(in_bounds(z, y, x), "grid access (" << z << "," << y
                                                          << "," << x
                                                          << ") out of bounds");
    return static_cast<std::size_t>((z * extents_.y + y) * extents_.x + x);
  }

  Extents extents_;
  Storage data_;
};

}  // namespace artemis
