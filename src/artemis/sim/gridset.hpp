#pragma once

#include <map>
#include <memory>
#include <string>

#include "artemis/common/grid.hpp"
#include "artemis/common/rng.hpp"
#include "artemis/ir/program.hpp"

namespace artemis::sim {

/// The "device memory" of a simulated run: named grids plus scalar values.
/// Grids are held through shared_ptr so that `swap(a, b)` steps exchange
/// bindings in O(1) exactly like exchanging device pointers.
class GridSet {
 public:
  GridSet() = default;

  /// Allocate storage for every array of the program. Arrays and scalars
  /// listed in `copyin` receive pseudo-random contents from `seed`
  /// (uniform in [-1, 1] for arrays, [0.5, 1.5] for scalars); everything
  /// else is zero-initialized, matching a fresh cudaMalloc + explicit
  /// host-to-device copies of the inputs. Each grid is written once: the
  /// copyin values come from one serial RNG stream, and grids of 1 MiB or
  /// more zero in parallel.
  static GridSet from_program(const ir::Program& prog, std::uint64_t seed);

  Grid3D& grid(const std::string& name);
  const Grid3D& grid(const std::string& name) const;
  bool has_grid(const std::string& name) const { return grids_.count(name); }

  double scalar(const std::string& name) const;
  void set_scalar(const std::string& name, double v) { scalars_[name] = v; }

  /// Add a grid (used for synthesized intermediate arrays).
  void add_grid(const std::string& name, Extents extents, double fill = 0.0);

  void swap(const std::string& a, const std::string& b);

  /// Deep copy (for running two schedules on identical inputs); grids of
  /// 1 MiB or more copy in parallel.
  GridSet clone() const;

  const std::map<std::string, std::shared_ptr<Grid3D>>& grids() const {
    return grids_;
  }

 private:
  std::map<std::string, std::shared_ptr<Grid3D>> grids_;
  std::map<std::string, double> scalars_;
};

/// Zero the outermost `margin` shells of a grid on every real axis
/// (extent-1 axes are degenerate and skipped). Iterative stencils with
/// homogeneous Dirichlet boundaries keep these shells constant; overlapped
/// time tiling (whose fused intermediates are zero-initialized) is exactly
/// equivalent to the ping-pong reference under this condition. When the
/// margin covers a whole axis the grid zeroes entirely — that is the
/// correct Dirichlet limit, not a case to skip.
void zero_boundary(Grid3D& g, std::int64_t margin);

/// Extents of a declared array under the program's parameter bindings
/// (lower-dimensional arrays map to trailing axes: a 1D array of length N
/// becomes {1, 1, N}).
Extents extents_of(const ir::Program& prog, const ir::ArrayDecl& decl);

}  // namespace artemis::sim
