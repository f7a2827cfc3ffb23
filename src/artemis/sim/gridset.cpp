#include "artemis/sim/gridset.hpp"

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "artemis/common/check.hpp"
#include "artemis/common/parallel.hpp"
#include "artemis/common/str.hpp"

namespace artemis::sim {

namespace {

/// Grids smaller than this are set up serially: waking workers would cost
/// more than touching them.
constexpr std::size_t kParallelBytes = std::size_t{1} << 20;

/// Elements one parallel task zeroes or copies, in whole z-planes.
constexpr std::size_t kChunkElems = (std::size_t{256} << 10) / sizeof(double);

/// Fill each `dst` from its `src`, or with zeros where `src` is null. Each
/// destination is written once; large grids split into z-plane chunks
/// spread over the hardware's workers.
void fill_grids(const std::vector<std::pair<Grid3D*, const Grid3D*>>& grids) {
  struct Chunk {
    double* dst;
    const double* src;
    std::size_t n;
  };
  std::vector<Chunk> chunks;
  for (const auto& [dst, src] : grids) {
    const Extents e = dst->extents();
    const auto plane = static_cast<std::size_t>(e.y * e.x);
    const auto n = static_cast<std::size_t>(e.volume());
    const std::size_t step =
        n * sizeof(double) < kParallelBytes
            ? n
            : std::max<std::size_t>(1, kChunkElems / plane) * plane;
    for (std::size_t at = 0; at < n; at += step) {
      chunks.push_back({dst->data() + at,
                        src != nullptr ? src->data() + at : nullptr,
                        std::min(step, n - at)});
    }
  }
  const auto run = [&chunks](std::int64_t i) {
    const Chunk& c = chunks[static_cast<std::size_t>(i)];
    if (c.src != nullptr) {
      std::memcpy(c.dst, c.src, c.n * sizeof(double));
    } else {
      std::fill_n(c.dst, c.n, 0.0);
    }
  };
  if (chunks.size() == grids.size()) {  // every grid below the threshold
    for (std::size_t i = 0; i < chunks.size(); ++i) {
      run(static_cast<std::int64_t>(i));
    }
    return;
  }
  parallel_for(static_cast<std::int64_t>(chunks.size()), run);
}

}  // namespace

Extents extents_of(const ir::Program& prog, const ir::ArrayDecl& decl) {
  std::array<std::int64_t, 3> zyx = {1, 1, 1};
  const std::size_t nd = decl.dims.size();
  ARTEMIS_CHECK(nd >= 1 && nd <= 3);
  for (std::size_t d = 0; d < nd; ++d) {
    zyx[3 - nd + d] = prog.param_value(decl.dims[d]);
  }
  return {zyx[0], zyx[1], zyx[2]};
}

GridSet GridSet::from_program(const ir::Program& prog, std::uint64_t seed) {
  GridSet gs;
  Rng rng(seed);
  const auto is_copyin = [&prog](const std::string& name) {
    return std::find(prog.copyin.begin(), prog.copyin.end(), name) !=
           prog.copyin.end();
  };
  std::vector<std::pair<Grid3D*, const Grid3D*>> zeroed;
  for (const auto& decl : prog.arrays) {
    auto grid = std::make_shared<Grid3D>(extents_of(prog, decl),
                                         Grid3D::Uninitialized{});
    // One serial RNG stream in declaration order keeps the values
    // independent of the worker count.
    if (is_copyin(decl.name)) {
      for (auto& v : grid->raw()) v = rng.uniform(-1.0, 1.0);
    } else {
      zeroed.emplace_back(grid.get(), nullptr);
    }
    gs.grids_[decl.name] = std::move(grid);
  }
  fill_grids(zeroed);
  for (const auto& s : prog.scalars) {
    gs.scalars_[s.name] = is_copyin(s.name) ? rng.uniform(0.5, 1.5) : 0.0;
  }
  return gs;
}

Grid3D& GridSet::grid(const std::string& name) {
  const auto it = grids_.find(name);
  ARTEMIS_CHECK_MSG(it != grids_.end(), "no grid named '" << name << "'");
  return *it->second;
}

const Grid3D& GridSet::grid(const std::string& name) const {
  const auto it = grids_.find(name);
  ARTEMIS_CHECK_MSG(it != grids_.end(), "no grid named '" << name << "'");
  return *it->second;
}

double GridSet::scalar(const std::string& name) const {
  const auto it = scalars_.find(name);
  ARTEMIS_CHECK_MSG(it != scalars_.end(), "no scalar named '" << name << "'");
  return it->second;
}

void GridSet::add_grid(const std::string& name, Extents extents,
                       double fill) {
  ARTEMIS_CHECK_MSG(!grids_.count(name),
                    "grid '" << name << "' already exists");
  grids_[name] = std::make_shared<Grid3D>(extents, fill);
}

void GridSet::swap(const std::string& a, const std::string& b) {
  const auto ia = grids_.find(a);
  const auto ib = grids_.find(b);
  ARTEMIS_CHECK_MSG(ia != grids_.end() && ib != grids_.end(),
                    "swap of unknown grids " << a << ", " << b);
  std::swap(ia->second, ib->second);
}

void zero_boundary(Grid3D& g, std::int64_t margin) {
  const auto& e = g.extents();
  // An extent-1 axis is degenerate (the domain is flat along it, there
  // are no faces); every real axis zeroes the full margin even when that
  // covers the whole axis — silently skipping narrow axes would leave
  // callers believing a Dirichlet rim exists when it does not.
  const std::int64_t mz = e.z > 1 ? margin : 0;
  const std::int64_t my = e.y > 1 ? margin : 0;
  const std::int64_t mx = e.x > 1 ? margin : 0;
  for (std::int64_t z = 0; z < e.z; ++z) {
    for (std::int64_t y = 0; y < e.y; ++y) {
      for (std::int64_t x = 0; x < e.x; ++x) {
        const bool interior = z >= mz && z < e.z - mz && y >= my &&
                              y < e.y - my && x >= mx && x < e.x - mx;
        if (!interior) g.at(z, y, x) = 0.0;
      }
    }
  }
}

GridSet GridSet::clone() const {
  GridSet out;
  std::vector<std::pair<Grid3D*, const Grid3D*>> copies;
  for (const auto& [name, grid] : grids_) {
    auto copy =
        std::make_shared<Grid3D>(grid->extents(), Grid3D::Uninitialized{});
    copies.emplace_back(copy.get(), grid.get());
    out.grids_[name] = std::move(copy);
  }
  fill_grids(copies);
  out.scalars_ = scalars_;
  return out;
}

}  // namespace artemis::sim
