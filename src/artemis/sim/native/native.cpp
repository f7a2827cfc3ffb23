#include "artemis/sim/native/native.hpp"

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "artemis/common/check.hpp"

namespace artemis::sim::native {

const char* tier_name(Tier tier) {
  switch (tier) {
    case Tier::Scalar:
      return "scalar";
    case Tier::Avx2:
      return "avx2";
    case Tier::Avx512:
      return "avx512";
  }
  return "scalar";
}

namespace {

Tier detect_hw() {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx512f")) return Tier::Avx512;
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return Tier::Avx2;
  }
#endif
  return Tier::Scalar;
}

/// The sub-box of `box` whose points' writes through `acc` pass the
/// commit test (the analytic form of exec_point's in_box check: each
/// access dimension constrains the point coordinate driving it).
BcRegion committed_points(const NAccess& acc, const BcRegion& box,
                          const BcRegion& commit) {
  BcRegion r = box;
  for (std::size_t d = 0; d < 3; ++d) {
    const std::int64_t lo = commit.lo[d], hi = commit.hi[d];
    const std::uint8_t s = acc.sel[d];
    if (s == 3) {
      if (acc.off[d] < lo || acc.off[d] >= hi) {
        r.hi = r.lo;
        return r;
      }
      continue;
    }
    r.lo[s] = std::max(r.lo[s], lo - acc.off[d]);
    r.hi[s] = std::min(r.hi[s], hi - acc.off[d]);
  }
  if (r.empty()) r.hi = r.lo;
  return r;
}

/// Bytecode window-checks every committed external write; the native box
/// runner stores blind, so the equivalent check runs once per box: the
/// element box the committed points write must sit inside the storage
/// window. A failure here is the same planner bug the per-point
/// ARTEMIS_CHECK reports.
void check_store_windows(const LinearProgram& lp,
                         const std::vector<ArrayView>& views,
                         const BcRegion& box, const BcRegion& commit,
                         bool drop) {
  for (const NStore& s : lp.stores) {
    if (s.acc.scratch) continue;
    const BcRegion pts =
        drop ? committed_points(s.acc, box, commit) : box;
    if (pts.empty()) continue;
    const ArrayView& v = views[static_cast<std::size_t>(s.acc.view)];
    const std::int64_t wlo[3] = {v.lo_z, v.lo_y, v.lo_x};
    const std::int64_t wext[3] = {v.wz, v.wy, v.wx};
    for (std::size_t d = 0; d < 3; ++d) {
      std::int64_t elo, ehi;  // half-open element range in array dim d
      if (s.acc.sel[d] == 3) {
        elo = s.acc.off[d];
        ehi = elo + 1;
      } else {
        elo = pts.lo[s.acc.sel[d]] + s.acc.off[d];
        ehi = pts.hi[s.acc.sel[d]] + s.acc.off[d];
      }
      ARTEMIS_CHECK_MSG(elo >= wlo[d] && ehi <= wlo[d] + wext[d],
                        "grid store of '" << *v.name
                                          << "' out of bounds (native)");
    }
  }
}

inline std::size_t view_index(const ArrayView& v, std::int64_t z,
                              std::int64_t y, std::int64_t x) {
  return static_cast<std::size_t>(
      ((z - v.lo_z) * v.wy + (y - v.lo_y)) * v.wx + (x - v.lo_x));
}

/// Emit the counting-mode line-stream records one natively-executed
/// interior row would have produced under the bytecode engine: per point
/// (x ascending) every external memory read in code order, then every
/// committed external write in statement order — exec_point's exact
/// record sequence. Records depend only on coordinates, so replay is
/// decoupled from execution.
void replay_row(const LinearProgram& lp, const std::vector<ArrayView>& views,
                StageTrace* trace, std::int64_t z, std::int64_t y,
                std::int64_t x0, std::int64_t x1, const BcRegion& commit,
                bool drop) {
  for (std::int64_t x = x0; x < x1; ++x) {
    const std::int64_t pt[4] = {z, y, x, 0};
    for (const std::int32_t li : lp.replay_reads) {
      const NAccess& a = lp.loads[static_cast<std::size_t>(li)];
      const ArrayView& v = views[static_cast<std::size_t>(a.view)];
      const std::int64_t cz = pt[a.sel[0]] + a.off[0];
      const std::int64_t cy = pt[a.sel[1]] + a.off[1];
      const std::int64_t cx = pt[a.sel[2]] + a.off[2];
      trace->record(
          v.elem_base + view_index(v, cz, cy, cx) * sizeof(double),
          /*is_write=*/false);
    }
    for (const NStore& s : lp.stores) {
      if (s.acc.scratch) continue;
      const std::int64_t cz = pt[s.acc.sel[0]] + s.acc.off[0];
      const std::int64_t cy = pt[s.acc.sel[1]] + s.acc.off[1];
      const std::int64_t cx = pt[s.acc.sel[2]] + s.acc.off[2];
      if (drop && !(cz >= commit.lo[0] && cz < commit.hi[0] &&
                    cy >= commit.lo[1] && cy < commit.hi[1] &&
                    cx >= commit.lo[2] && cx < commit.hi[2])) {
        continue;
      }
      const ArrayView& v = views[static_cast<std::size_t>(s.acc.view)];
      trace->record(
          v.elem_base + view_index(v, cz, cy, cx) * sizeof(double),
          /*is_write=*/true);
    }
  }
}

}  // namespace

Tier active_tier() {
  static const Tier tier = detect_hw();
  return tier;
}

void CompiledStage::run_box(const LinearProgram& lp, const ArrayView* views,
                            const double* scalars, const BcRegion& box,
                            const BcRegion& commit, bool drop) const {
  if (box.empty()) return;
  const auto flat = [](const BcRegion& r) {
    return std::array<std::int64_t, 6>{r.lo[0], r.lo[1], r.lo[2],
                                       r.hi[0], r.hi[1], r.hi[2]};
  };
  std::vector<std::int64_t> ranges;
  ranges.reserve(6 * lp.stores.size());
  for (const NStore& s : lp.stores) {
    const auto r = flat(drop && !s.acc.scratch
                            ? committed_points(s.acc, box, commit)
                            : box);
    ranges.insert(ranges.end(), r.begin(), r.end());
  }
  fn(views, scalars, flat(box).data(), ranges.data());
}

void add_interior_counters(const LinearProgram& lp, const BcRegion& box,
                           const BcRegion& commit, bool drop_outside_commit,
                           BcCounters& c) {
  const std::int64_t vol = box.volume();
  if (vol == 0) return;
  c.computed += vol;  // interior points never veto
  c.greads += lp.greads_pp * vol;
  c.sreads += lp.sreads_pp * vol;
  c.swrites += lp.swrites_pp * vol;
  for (const NStore& s : lp.stores) {
    if (s.acc.scratch) continue;
    c.gwrites += drop_outside_commit
                     ? committed_points(s.acc, box, commit).volume()
                     : vol;
  }
}

void run_native_region(const LinearProgram& lp, const CompiledStage& stage,
                       const CompiledStencil& cs,
                       const std::vector<ArrayView>& views,
                       const double* scalars, const BcRegion& region,
                       const BcRegion& commit, bool drop_outside_commit,
                       BcCounters& counters, StageTrace* trace) {
  if (region.empty()) return;
  const BcRegion in =
      interior_region(cs, views, region, drop_outside_commit, commit);
  if (!in.empty()) {
    check_store_windows(lp, views, in, commit, drop_outside_commit);
  }
  // The rim runs fully checked, span by span in row-major order. Without
  // counting, the interior runs as one box first; point order does not
  // matter because lowering refused every order-dependent construct (see
  // lower.cpp). In counting mode each interior row runs between its rim
  // spans instead, reproducing run_split_region's row-major interleaving
  // exactly, and its records replay analytically (within a row, points go
  // x ascending and commit in statement order, as in the bytecode).
  BcCounters ci, cr;
  if (trace == nullptr) {
    stage.run_box(lp, views.data(), scalars, in, commit,
                  drop_outside_commit);
    add_interior_counters(lp, in, commit, drop_outside_commit, ci);
  } else {
    trace->flops_per_point = cs.flops_per_point;
    trace->lines.reserve(trace->lines.size() +
                         static_cast<std::size_t>(region.volume()) *
                             (cs.accesses.size() + 1));
  }
  RimRunner rim(cs, views, scalars, commit, drop_outside_commit);
  for (std::int64_t z = region.lo[0]; z < region.hi[0]; ++z) {
    const bool z_in = z >= in.lo[0] && z < in.hi[0];
    for (std::int64_t y = region.lo[1]; y < region.hi[1]; ++y) {
      if (!z_in || y < in.lo[1] || y >= in.hi[1]) {
        rim.run(z, y, region.lo[2], region.hi[2], cr, trace);
        continue;
      }
      rim.run(z, y, region.lo[2], in.lo[2], cr, trace);
      if (trace != nullptr) {
        BcRegion row;
        row.lo = {z, y, in.lo[2]};
        row.hi = {z + 1, y + 1, in.hi[2]};
        stage.run_box(lp, views.data(), scalars, row, commit,
                      drop_outside_commit);
        add_interior_counters(lp, row, commit, drop_outside_commit, ci);
        replay_row(lp, views, trace, z, y, in.lo[2], in.hi[2], commit,
                   drop_outside_commit);
      }
      rim.run(z, y, in.hi[2], region.hi[2], cr, trace);
    }
  }
  if (trace != nullptr) {
    trace->interior += ci;
    trace->rim += cr;
  }
  counters += ci;
  counters += cr;
}

}  // namespace artemis::sim::native
