#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "artemis/codegen/plan_builder.hpp"
#include "artemis/common/str.hpp"
#include "artemis/dsl/parser.hpp"
#include "artemis/gpumodel/device.hpp"
#include "artemis/sim/bytecode.hpp"
#include "artemis/sim/executor.hpp"
#include "artemis/sim/forwarding.hpp"
#include "artemis/sim/interp.hpp"
#include "artemis/sim/native/native.hpp"
#include "artemis/sim/reference.hpp"
#include "artemis/stencils/random_stencil.hpp"
#include "test_programs.hpp"

namespace artemis::sim {
namespace {

using codegen::BuildOptions;
using codegen::KernelConfig;
using codegen::KernelPlan;
using codegen::TilingScheme;

struct TraceEntry {
  std::string array;
  std::int64_t z, y, x;
  bool write;
  bool operator==(const TraceEntry&) const = default;
};

struct RunResult {
  GridSet gs;
  ExecCounters totals;
  std::vector<TraceEntry> trace;
};

void add_counters(ExecCounters& a, const ExecCounters& b) {
  a.computed_points += b.computed_points;
  a.skipped_points += b.skipped_points;
  a.global_read_elems += b.global_read_elems;
  a.global_write_elems += b.global_write_elems;
  a.scratch_read_elems += b.scratch_read_elems;
  a.scratch_write_elems += b.scratch_write_elems;
  a.blocks += b.blocks;
}

/// Execute every plan of `prog` (per-call, or all calls fused into one
/// plan) with the given engine/jobs, collecting summed counters and,
/// optionally, the global-access trace.
RunResult run_program(const ir::Program& prog, const KernelConfig& cfg,
                      bool fuse, std::uint64_t seed, SimEngine engine,
                      int jobs, bool record_trace) {
  const auto dev = gpumodel::p100();
  RunResult r{GridSet::from_program(prog, seed), {}, {}};
  ExecOptions opts;
  opts.engine = engine;
  opts.jobs = jobs;
  if (record_trace) {
    opts.global_hook = [&r](const std::string& a, std::int64_t z,
                            std::int64_t y, std::int64_t x, bool w) {
      r.trace.push_back({a, z, y, x, w});
    };
  }

  const auto run_plan = [&](const KernelPlan& plan) {
    add_counters(r.totals, execute_plan(plan, r.gs, opts));
  };
  if (fuse) {
    std::vector<ir::BoundStencil> stages;
    int idx = 0;
    for (const auto& step : prog.steps) {
      ARTEMIS_CHECK(step.kind == ir::Step::Kind::Call);
      stages.push_back(
          ir::bind_call(prog, step.call, str_cat("s", idx++, "_")));
    }
    run_plan(codegen::build_plan(prog, std::move(stages), cfg, dev, {}));
  } else {
    for (const auto& step : ir::flatten_steps(prog)) {
      if (step.kind == ir::ExecStep::Kind::Swap) {
        r.gs.swap(step.swap.a, step.swap.b);
        continue;
      }
      std::vector<ir::BoundStencil> stages = {step.stencil};
      run_plan(codegen::build_plan(prog, std::move(stages), cfg, dev, {}));
    }
  }
  return r;
}

/// Bitwise grid equality: stricter than max_abs_diff == 0 (distinguishes
/// -0.0 and would catch NaN payload differences).
::testing::AssertionResult grids_bit_identical(const GridSet& a,
                                               const GridSet& b) {
  for (const auto& [name, ga] : a.grids()) {
    const Grid3D& gb = b.grid(name);
    if (!(ga->extents() == gb.extents())) {
      return ::testing::AssertionFailure()
             << "grid '" << name << "' extents differ";
    }
    if (std::memcmp(ga->raw().data(), gb.raw().data(),
                    ga->raw().size() * sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "grid '" << name << "' bytes differ";
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult counters_equal(const ExecCounters& a,
                                          const ExecCounters& b) {
  if (a.computed_points != b.computed_points ||
      a.skipped_points != b.skipped_points ||
      a.global_read_elems != b.global_read_elems ||
      a.global_write_elems != b.global_write_elems ||
      a.scratch_read_elems != b.scratch_read_elems ||
      a.scratch_write_elems != b.scratch_write_elems ||
      a.blocks != b.blocks) {
    return ::testing::AssertionFailure()
           << "counters differ: computed " << a.computed_points << "/"
           << b.computed_points << " skipped " << a.skipped_points << "/"
           << b.skipped_points << " greads " << a.global_read_elems << "/"
           << b.global_read_elems << " gwrites " << a.global_write_elems
           << "/" << b.global_write_elems << " sreads "
           << a.scratch_read_elems << "/" << b.scratch_read_elems
           << " swrites " << a.scratch_write_elems << "/"
           << b.scratch_write_elems << " blocks " << a.blocks << "/"
           << b.blocks;
  }
  return ::testing::AssertionSuccess();
}

/// The core differential check: the tree-walking oracle (serial) against
/// the compiled engine and the native SIMD engine (strict mode) at jobs
/// 1, 2 and 4 — grids bit-identical, counters identical (the per-block
/// reduction makes them job-count independent), and hook traces
/// identical.
void expect_engines_match(const ir::Program& prog, const KernelConfig& cfg,
                          bool fuse, std::uint64_t seed,
                          const std::string& label) {
  const RunResult oracle = run_program(prog, cfg, fuse, seed,
                                       SimEngine::TreeWalk, 1, false);
  for (const auto engine : {SimEngine::Bytecode, SimEngine::Native}) {
    for (const int jobs : {1, 2, 4}) {
      const RunResult got = run_program(prog, cfg, fuse, seed, engine, jobs,
                                        false);
      EXPECT_TRUE(grids_bit_identical(oracle.gs, got.gs))
          << label << " " << engine_name(engine) << " jobs=" << jobs;
      EXPECT_TRUE(counters_equal(oracle.totals, got.totals))
          << label << " " << engine_name(engine) << " jobs=" << jobs;
    }
  }
  const RunResult ta = run_program(prog, cfg, fuse, seed,
                                   SimEngine::TreeWalk, 1, true);
  const RunResult tb = run_program(prog, cfg, fuse, seed,
                                   SimEngine::Bytecode, 1, true);
  EXPECT_EQ(ta.trace.size(), tb.trace.size()) << label;
  EXPECT_TRUE(ta.trace == tb.trace) << label << ": hook traces differ";
  EXPECT_TRUE(grids_bit_identical(ta.gs, tb.gs)) << label << " (hooked)";
}

KernelConfig random_config(Rng& rng, int dims) {
  KernelConfig cfg;
  const std::int64_t roll = rng.uniform_int(0, 2);
  if (dims >= 2 && roll == 1) {
    cfg.tiling = TilingScheme::StreamSerial;
  } else if (dims >= 2 && roll == 2) {
    cfg.tiling = TilingScheme::StreamConcurrent;
    cfg.stream_chunk = static_cast<int>(rng.uniform_int(3, 9));
  } else {
    cfg.tiling = TilingScheme::Spatial3D;
  }
  cfg.stream_axis = dims - 1;
  cfg.block = {static_cast<int>(rng.uniform_int(2, 7)),
               dims >= 2 ? static_cast<int>(rng.uniform_int(2, 7)) : 1,
               dims >= 3 ? static_cast<int>(rng.uniform_int(1, 5)) : 1};
  if (cfg.tiling != TilingScheme::Spatial3D) {
    cfg.block[static_cast<std::size_t>(dims - 1)] = 1;
  }
  if (rng.coin(0.3)) cfg.unroll[0] = 2;
  return cfg;
}

// ---- seeded random differential sweep --------------------------------------

TEST(BytecodeSim, RandomStencilsMatchTreeWalkOracle) {
  Rng rng(0xB17EC0DE);
  int trial = 0;
  for (const int dims : {1, 2, 3}) {
    for (int rep = 0; rep < 8; ++rep, ++trial) {
      stencils::RandomStencilOptions opts;
      opts.dims = dims;
      opts.max_order = 1 + static_cast<int>(rng.uniform_int(0, 2));
      opts.max_stages = dims == 3 ? 1 + static_cast<int>(rng.uniform_int(0, 2))
                                  : 1;
      opts.allow_calls = rng.coin(0.5);
      const ir::Program prog = stencils::random_program(rng, opts);
      const KernelConfig cfg = random_config(rng, dims);
      const bool fuse = opts.max_stages > 1;
      expect_engines_match(prog, cfg, fuse,
                           0xFACE + static_cast<std::uint64_t>(trial),
                           str_cat("trial ", trial, " dims=", dims, " cfg ",
                                   cfg.to_string()));
    }
  }
  EXPECT_GE(trial, 20);
}

// ---- named kernels, incl. fused multi-stage + scratch ----------------------

TEST(BytecodeSim, JacobiAndDagMatchAcrossTilings) {
  const ir::Program jacobi = dsl::parse(artemis::testing::kJacobiDsl);
  const ir::Program dag = dsl::parse(artemis::testing::kDagDsl);
  for (const auto tiling : {TilingScheme::Spatial3D, TilingScheme::StreamSerial,
                            TilingScheme::StreamConcurrent}) {
    KernelConfig cfg;
    cfg.tiling = tiling;
    cfg.stream_axis = 2;
    cfg.stream_chunk = 5;
    cfg.block = {8, 4, tiling == TilingScheme::Spatial3D ? 2 : 1};
    expect_engines_match(jacobi, cfg, false, 77, "jacobi");
    expect_engines_match(dag, cfg, true, 78, "dag-fused");
  }
}

TEST(BytecodeSim, IterativePingPongMatches) {
  const ir::Program prog = dsl::parse(artemis::testing::kJacobiIterativeDsl);
  KernelConfig cfg;
  cfg.block = {4, 4, 4};
  expect_engines_match(prog, cfg, false, 99, "iterative");
}

// ---- boundary-rim edge cases -----------------------------------------------

/// A second statement re-reads its own output at the center (pending-hit:
/// not counted as a global read) and at a neighbor (pending-miss: served
/// from the snapshot), plus a rewrite of the same element (last write
/// wins at commit).
TEST(BytecodeSim, PendingHitsAndSnapshotMissesCoexist) {
  const ir::Program prog = dsl::parse(R"(
parameter L=8, M=8, N=8;
iterator k, j, i;
double in[L,M,N], out[L,M,N];
copyin in;
stencil mix (B, A) {
  B[k][j][i] = A[k][j][i] * 0.25;
  B[k][j][i] = B[k][j][i] + B[k][j][i+1] + A[k][j][i-1];
}
mix (out, in);
copyout out;
)");
  KernelConfig cfg;
  cfg.block = {4, 2, 2};
  expect_engines_match(prog, cfg, false, 11, "pending-mix");

  const RunResult r =
      run_program(prog, cfg, false, 11, SimEngine::Bytecode, 1, false);
  // x in [1, 7): both neighbor reads in bounds.
  EXPECT_EQ(r.totals.computed_points, 8 * 8 * 6);
  EXPECT_EQ(r.totals.skipped_points, 8 * 8 * 2);
}

/// Reads at +/-3 on a 6^3 domain: the interior is empty (the whole domain
/// is boundary rim) and no point has all reads in bounds, so every point
/// is vetoed and the grids are untouched.
TEST(BytecodeSim, OutOfBoundsVetoSkipsEveryPoint) {
  const ir::Program prog = dsl::parse(R"(
parameter L=6, M=6, N=6;
iterator k, j, i;
double in[L,M,N], out[L,M,N];
copyin in;
stencil wide (B, A) {
  B[k][j][i] = A[k+3][j][i] + A[k-3][j][i];
}
wide (out, in);
copyout out;
)");
  KernelConfig cfg;
  cfg.block = {3, 3, 3};
  expect_engines_match(prog, cfg, false, 12, "veto-all");

  GridSet gs = GridSet::from_program(prog, 12);
  const GridSet before = gs.clone();
  const auto dev = gpumodel::p100();
  const auto plan =
      codegen::build_plan_for_call(prog, prog.steps[0].call, cfg, dev);
  const ExecCounters c = execute_plan(plan, gs);
  EXPECT_EQ(c.computed_points, 0);
  EXPECT_EQ(c.skipped_points, 6 * 6 * 6);
  EXPECT_EQ(c.global_write_elems, 0);
  EXPECT_TRUE(grids_bit_identical(before, gs));
}

/// Purely negative offsets: the interior is shifted, not shrunk
/// symmetrically; the high faces are all interior.
TEST(BytecodeSim, NegativeAsymmetricHalo) {
  const ir::Program prog = dsl::parse(R"(
parameter L=9, M=9, N=9;
iterator k, j, i;
double in[L,M,N], out[L,M,N];
copyin in;
stencil shift (B, A) {
  B[k][j][i] = A[k-2][j][i] + A[k][j-2][i] + A[k][j][i-2];
}
shift (out, in);
copyout out;
)");
  KernelConfig cfg;
  cfg.block = {4, 3, 2};
  expect_engines_match(prog, cfg, false, 13, "negative-halo");

  GridSet gs = GridSet::from_program(prog, 13);
  const auto dev = gpumodel::p100();
  const auto plan =
      codegen::build_plan_for_call(prog, prog.steps[0].call, cfg, dev);
  const ExecCounters c = execute_plan(plan, gs);
  EXPECT_EQ(c.computed_points, 7 * 7 * 7);
  EXPECT_EQ(c.skipped_points, 9 * 9 * 9 - 7 * 7 * 7);
}

/// `+=` reads the pending value written by an earlier statement of the
/// same point (read-through), and the committed result is the sum.
TEST(BytecodeSim, AccumulateReadsThroughPendingWrites) {
  const ir::Program prog = dsl::parse(R"(
parameter L=8, M=8, N=8;
iterator k, j, i;
double in[L,M,N], out[L,M,N];
copyin in;
stencil acc (B, A) {
  B[k][j][i] = A[k][j][i] * 0.5;
  B[k][j][i] += A[k][j][i+1];
  B[k][j][i] += B[k][j][i];
}
acc (out, in);
copyout out;
)");
  KernelConfig cfg;
  cfg.block = {4, 4, 2};
  expect_engines_match(prog, cfg, false, 14, "accumulate");

  // Spot-check the committed value: ((a*0.5 + a_x1) * 2) at an interior
  // point, computed through both pending read-throughs.
  GridSet gs = GridSet::from_program(prog, 14);
  const double a0 = gs.grid("in").at(3, 3, 3);
  const double a1 = gs.grid("in").at(3, 3, 4);
  const auto dev = gpumodel::p100();
  const auto plan =
      codegen::build_plan_for_call(prog, prog.steps[0].call, cfg, dev);
  execute_plan(plan, gs);
  const double stage1 = a0 * 0.5 + a1;
  EXPECT_EQ(gs.grid("out").at(3, 3, 3), stage1 + stage1);
}

// ---- interior/rim split ----------------------------------------------------

TEST(BytecodeSim, InteriorRegionMatchesHaloGeometry) {
  const ir::Program prog = dsl::parse(artemis::testing::kJacobiDsl);
  const ir::BoundStencil bound = ir::bind_call(prog, prog.steps[0].call);
  const ir::StencilInfo info = ir::analyze(prog, bound);

  GridSet gs = GridSet::from_program(prog, 1);
  SlotMap arrays;
  for (const auto& [name, ai] : info.arrays) arrays.add(name);
  SlotMap scalars;
  for (const auto& name : info.scalars_read) scalars.add(name);
  const CompiledStencil cs = compile_stmts(bound.stmts, 3, arrays, scalars);

  std::vector<ArrayView> views(static_cast<std::size_t>(arrays.size()));
  for (int s = 0; s < arrays.size(); ++s) {
    ArrayView& v = views[static_cast<std::size_t>(s)];
    Grid3D& g = gs.grid(arrays.name(s));
    v.name = &arrays.name(s);
    v.read = g.data();
    v.write = g.data();
    v.ez = v.wz = g.extents().z;
    v.ey = v.wy = g.extents().y;
    v.ex = v.wx = g.extents().x;
  }

  BcRegion full;
  full.lo = {0, 0, 0};
  full.hi = {16, 16, 16};
  const BcRegion in = interior_region(cs, views, full, false, BcRegion{});
  EXPECT_EQ(in.lo, (std::array<std::int64_t, 3>{1, 1, 1}));
  EXPECT_EQ(in.hi, (std::array<std::int64_t, 3>{15, 15, 15}));

  // A sub-box strictly inside the safe zone is all interior.
  BcRegion inner;
  inner.lo = {4, 4, 4};
  inner.hi = {10, 10, 10};
  const BcRegion in2 = interior_region(cs, views, inner, false, BcRegion{});
  EXPECT_EQ(in2.lo, inner.lo);
  EXPECT_EQ(in2.hi, inner.hi);
}

// ---- compiled reference interpreter ----------------------------------------

/// run_stencil_reference (now compiled) against a hand-rolled
/// apply_stmts_at_point loop replicating the historical implementation.
TEST(BytecodeSim, ReferenceMatchesHandRolledOracle) {
  Rng rng(0x07ACE5);
  for (int trial = 0; trial < 6; ++trial) {
    stencils::RandomStencilOptions opts;
    opts.dims = 1 + static_cast<int>(rng.uniform_int(0, 2));
    opts.max_order = 2;
    opts.allow_calls = trial % 2 == 0;
    const ir::Program prog = stencils::random_program(rng, opts);
    const ir::BoundStencil bound = ir::bind_call(prog, prog.steps[0].call);
    const ir::StencilInfo info = ir::analyze(prog, bound);

    GridSet got = GridSet::from_program(prog, 5000 + trial);
    GridSet want = got.clone();
    run_stencil_reference(prog, bound, got);

    // Historical oracle: per-point tree walk with string-keyed lookups and
    // the broad (non-center read+write) snapshot rule.
    std::map<std::string, double> env;
    for (const auto& name : info.scalars_read) {
      env[name] = want.scalar(name);
    }
    std::map<std::string, Grid3D> snapshots;
    for (const auto& [name, ai] : info.arrays) {
      if (!ai.read || !ai.written) continue;
      bool non_center = false;
      for (const auto& off : ai.read_offsets) {
        for (const auto& ix : off) {
          if (ix.is_const() || ix.offset != 0) non_center = true;
        }
      }
      if (non_center) snapshots.emplace(name, want.grid(name));
    }
    const ArrayReader reader =
        [&](const std::string& name, std::int64_t z, std::int64_t y,
            std::int64_t x) -> std::optional<double> {
      const auto snap = snapshots.find(name);
      const Grid3D& g =
          snap != snapshots.end() ? snap->second : want.grid(name);
      if (!g.in_bounds(z, y, x)) return std::nullopt;
      return g.at(z, y, x);
    };
    const ArrayWriter writer = [&](const std::string& name, std::int64_t z,
                                   std::int64_t y, std::int64_t x, double v) {
      want.grid(name).at(z, y, x) = v;
    };
    const Extents dom = want.grid(info.outputs.front()).extents();
    const int dims = static_cast<int>(prog.iterators.size());
    std::vector<std::int64_t> itv;
    for (std::int64_t z = 0; z < dom.z; ++z) {
      for (std::int64_t y = 0; y < dom.y; ++y) {
        for (std::int64_t x = 0; x < dom.x; ++x) {
          if (dims == 3) {
            itv = {z, y, x};
          } else if (dims == 2) {
            itv = {y, x};
          } else {
            itv = {x};
          }
          apply_stmts_at_point(bound.stmts, env, itv, reader, writer);
        }
      }
    }
    EXPECT_TRUE(grids_bit_identical(want, got)) << "trial " << trial;
  }
}

// ---- row-batched interior --------------------------------------------------

/// The first call of `prog` bound the way run_stencil_reference binds it
/// (snapshots per needs_snapshot), for direct run_compiled_region calls.
/// Arrays named in `scratch` get scratch views over their own grid (the
/// whole domain is their window), as the executor gives fused internals.
struct StageRun {
  GridSet gs;
  std::map<std::string, Grid3D> snapshots;
  SlotMap arrays;
  SlotMap scalars;
  std::vector<double> scalar_vals;
  CompiledStencil cs;
  std::vector<ArrayView> views;
  std::vector<std::uint8_t> is_scratch;
  std::vector<std::vector<std::uint8_t>> written;
  BcRegion domain;

  StageRun(const ir::Program& prog, std::uint64_t seed,
           const std::set<std::string>& scratch = {})
      : gs(GridSet::from_program(prog, seed)) {
    const ir::BoundStencil bound = ir::bind_call(prog, prog.steps[0].call);
    const ir::StencilInfo info = ir::analyze(prog, bound);
    const int dims = static_cast<int>(prog.iterators.size());
    for (const auto& [name, ai] : info.arrays) {
      arrays.add(name);
      if (!scratch.count(name) && needs_snapshot(ai, dims)) {
        snapshots.emplace(name, gs.grid(name));
      }
    }
    for (const auto& name : info.scalars_read) {
      scalars.add(name);
      scalar_vals.push_back(gs.scalar(name));
    }
    cs = compile_stmts(bound.stmts, dims, arrays, scalars);
    views.resize(static_cast<std::size_t>(arrays.size()));
    is_scratch.assign(views.size(), 0);
    written.resize(views.size());
    for (int s = 0; s < arrays.size(); ++s) {
      const auto slot = static_cast<std::size_t>(s);
      ArrayView& v = views[slot];
      Grid3D& g = gs.grid(arrays.name(s));
      v.name = &arrays.name(s);
      v.write = g.data();
      const auto snap = snapshots.find(arrays.name(s));
      v.read = snap != snapshots.end() ? snap->second.data() : g.data();
      v.ez = v.wz = g.extents().z;
      v.ey = v.wy = g.extents().y;
      v.ex = v.wx = g.extents().x;
      if (scratch.count(arrays.name(s))) {
        is_scratch[slot] = 1;
        written[slot].assign(g.raw().size(), 0);
        v.scratch = true;
        v.written = written[slot].data();
      }
    }
    const Extents e = gs.grid(info.outputs.front()).extents();
    domain.lo = {0, 0, 0};
    domain.hi = {e.z, e.y, e.x};
  }
  StageRun(const StageRun&) = delete;

  BcCounters run(const BcRegion& region, const BcRegion& commit, bool drop,
                 bool counting) {
    BcCounters c;
    StageTrace trace;
    run_compiled_region(cs, views, scalar_vals.data(), region, commit, drop,
                        c, nullptr, counting ? &trace : nullptr);
    return c;
  }
};

::testing::AssertionResult bc_counters_equal(const BcCounters& a,
                                             const BcCounters& b) {
  if (a.computed != b.computed || a.skipped != b.skipped ||
      a.greads != b.greads || a.gwrites != b.gwrites ||
      a.sreads != b.sreads || a.swrites != b.swrites) {
    return ::testing::AssertionFailure()
           << "computed " << a.computed << "/" << b.computed << " skipped "
           << a.skipped << "/" << b.skipped << " greads " << a.greads << "/"
           << b.greads << " gwrites " << a.gwrites << "/" << b.gwrites
           << " sreads " << a.sreads << "/" << b.sreads << " swrites "
           << a.swrites << "/" << b.swrites;
  }
  return ::testing::AssertionSuccess();
}

/// The serial per-point tree walk over the whole domain with the
/// needs_snapshot rule: the semantics the row interior must reproduce.
GridSet point_oracle(const ir::Program& prog, std::uint64_t seed) {
  const ir::BoundStencil bound = ir::bind_call(prog, prog.steps[0].call);
  const ir::StencilInfo info = ir::analyze(prog, bound);
  const int dims = static_cast<int>(prog.iterators.size());
  GridSet gs = GridSet::from_program(prog, seed);
  std::map<std::string, double> env;
  for (const auto& name : info.scalars_read) env[name] = gs.scalar(name);
  std::map<std::string, Grid3D> snapshots;
  for (const auto& [name, ai] : info.arrays) {
    if (needs_snapshot(ai, dims)) snapshots.emplace(name, gs.grid(name));
  }
  const ArrayReader reader = [&](const std::string& name, std::int64_t z,
                                 std::int64_t y,
                                 std::int64_t x) -> std::optional<double> {
    const auto snap = snapshots.find(name);
    const Grid3D& g = snap != snapshots.end() ? snap->second : gs.grid(name);
    if (!g.in_bounds(z, y, x)) return std::nullopt;
    return g.at(z, y, x);
  };
  const ArrayWriter writer = [&](const std::string& name, std::int64_t z,
                                 std::int64_t y, std::int64_t x, double v) {
    gs.grid(name).at(z, y, x) = v;
  };
  const Extents dom = gs.grid(info.outputs.front()).extents();
  std::vector<std::int64_t> itv;
  for (std::int64_t z = 0; z < dom.z; ++z) {
    for (std::int64_t y = 0; y < dom.y; ++y) {
      for (std::int64_t x = 0; x < dom.x; ++x) {
        itv = {z, y, x};
        itv.erase(itv.begin(), itv.begin() + (3 - dims));
        apply_stmts_at_point(bound.stmts, env, itv, reader, writer);
      }
    }
  }
  return gs;
}

/// Row path vs per-point path on one program: the plain run (row-batched
/// interior) must match the tree-walk oracle bit for bit, and the
/// counting-mode run (per-point interior) in grids and counters. Also
/// proves the interior really took the row path.
void expect_rows_match_points(const ir::Program& prog, std::uint64_t seed,
                              std::int64_t interior_x,
                              const std::string& label) {
  StageRun rows(prog, seed);
  StageRun points(prog, seed);
  const BcRegion in = interior_region(rows.cs, rows.views, rows.domain,
                                      false, BcRegion{});
  ASSERT_EQ(in.hi[2] - in.lo[2], interior_x) << label;
  ASSERT_TRUE(analyze_forwarding(rows.cs, rows.views).ok()) << label;

  const BcCounters cr = rows.run(rows.domain, BcRegion{}, false, false);
  const BcCounters cp = points.run(points.domain, BcRegion{}, false, true);
  EXPECT_TRUE(grids_bit_identical(rows.gs, points.gs)) << label;
  EXPECT_TRUE(bc_counters_equal(cr, cp)) << label;
  EXPECT_TRUE(grids_bit_identical(point_oracle(prog, seed), rows.gs))
      << label;

  GridSet ref = GridSet::from_program(prog, seed);
  run_program_reference(prog, ref);
  EXPECT_TRUE(grids_bit_identical(rows.gs, ref)) << label << " (reference)";
}

/// Interior x lengths around the row batch: a single point, one short of
/// a batch, exactly one, one over, and two batches plus a remainder.
std::vector<std::int64_t> row_lengths() {
  return {1, kRow - 1, kRow, kRow + 1, 2 * kRow + 3};
}

TEST(BytecodeSim, RowInteriorMatchesPointsAcrossRowLengths) {
  // Every opcode, a local, `+=` reading back through a forwarded store.
  for (const std::int64_t n : row_lengths()) {
    const ir::Program prog = dsl::parse(str_cat(R"(
parameter L=4, M=4, N=)", n + 2, R"(;
iterator k, j, i;
double in[L,M,N], out[L,M,N], c0;
copyin in, out, c0;
stencil rows (B, A, c0) {
  double t = c0 * A[k][j][i-1];
  B[k][j][i] = t + A[k][j][i+1] - sqrt(fabs(A[k+1][j][i]));
  B[k][j][i] += B[k][j][i] * min(A[k][j-1][i], 0.5);
  B[k][j][i] += max(-A[k-1][j][i], t) / (1.0 + exp(A[k][j+1][i]));
  B[k][j][i] += pow(fabs(t), 0.5) - log(2.0 + A[k][j][i]);
}
rows (out, in, c0);
copyout out;
)"));
    expect_rows_match_points(prog, 40 + static_cast<std::uint64_t>(n), n,
                             str_cat("3D n=", n));
  }
}

TEST(BytecodeSim, RowInteriorMatchesPointsIn1DAnd2D) {
  for (const std::int64_t n : row_lengths()) {
    const ir::Program p1 = dsl::parse(str_cat(R"(
parameter N=)", n + 4, R"(;
iterator i;
double a[N], b[N];
copyin a, b;
stencil s1 (B, A) {
  B[i] = A[i-2] * 0.25 + A[i+2];
  B[i] += B[i];
}
s1 (b, a);
copyout b;
)"));
    expect_rows_match_points(p1, 60 + static_cast<std::uint64_t>(n), n,
                             str_cat("1D n=", n));
    const ir::Program p2 = dsl::parse(str_cat(R"(
parameter M=5, N=)", n + 2, R"(;
iterator j, i;
double a[M,N], b[M,N];
copyin a;
stencil s2 (B, A) {
  B[j][i] = A[j-1][i] + A[j][i+1] * A[j+1][i-1];
}
s2 (b, a);
copyout b;
)"));
    expect_rows_match_points(p2, 80 + static_cast<std::uint64_t>(n), n,
                             str_cat("2D n=", n));
  }
}

TEST(BytecodeSim, RowInteriorStridesLowerDimensionalArrays) {
  // W[i][j] puts x on W's middle storage axis (x stride = W's row
  // length), c[j] does not move with x (stride 0), w[i] has stride 1.
  for (const std::int64_t n : {kRow - 1, 2 * kRow + 3}) {
    const ir::Program prog = dsl::parse(str_cat(R"(
parameter L=3, M=6, N=)", n + 2, R"(;
iterator k, j, i;
double in[L,M,N], W[N,M], c[M], w[N], out[L,M,N];
copyin in, W, c, w;
stencil lowdim (B, A, W, c, w) {
  B[k][j][i] = A[k][j][i] * W[i][j] + W[i+1][j] - c[j] * w[i-1];
}
lowdim (out, in, W, c, w);
copyout out;
)"));
    expect_rows_match_points(prog, 90 + static_cast<std::uint64_t>(n), n,
                             str_cat("lower-dim n=", n));
  }
}

TEST(BytecodeSim, RowInteriorDropsOutsideCommitLikePoints) {
  // The tiled executor's commit semantics on one block: every point of
  // the region computes, only the commit box lands in the grid.
  const std::int64_t n = 2 * kRow + 3;
  const ir::Program prog = dsl::parse(str_cat(R"(
parameter L=5, M=5, N=)", n + 2, R"(;
iterator k, j, i;
double in[L,M,N], out[L,M,N];
copyin in, out;
stencil blk (B, A) {
  B[k][j][i] = A[k][j][i-1] + A[k][j][i+1] * A[k+1][j][i];
  B[k][j][i] += B[k][j][i];
}
blk (out, in);
copyout out;
)"));
  StageRun rows(prog, 7);
  StageRun points(prog, 7);
  BcRegion commit;
  commit.lo = {1, 2, 5};
  commit.hi = {4, 4, kRow + 9};
  const BcCounters cr = rows.run(rows.domain, commit, true, false);
  const BcCounters cp = points.run(points.domain, commit, true, true);
  EXPECT_TRUE(grids_bit_identical(rows.gs, points.gs));
  EXPECT_TRUE(bc_counters_equal(cr, cp));
  // Two stores per point, committed on the 3 x 2 x (kRow + 4) commit box.
  EXPECT_EQ(cr.gwrites, 2 * 3 * 2 * (kRow + 4));
}

TEST(BytecodeSim, RowInteriorFusedScratchStagesMatchAcrossJobs) {
  // Long x tiles so scratch stages run rows beyond one batch, and a
  // split x tiling so blocks recompute halos and drop outside commit.
  const ir::Program prog = dsl::parse(str_cat(R"(
parameter L=3, M=6, N=)", 2 * kRow + 5, R"(;
iterator k, j, i;
double u[L,M,N], tmp[L,M,N], out[L,M,N], w[N];
copyin u, w;
stencil blurx (T, U, W) {
  T[k][j][i] = W[i] * (U[k][j][i-1] + U[k][j][i] + U[k][j][i+1]);
}
stencil blury (O, T) {
  O[k][j][i] = T[k][j-1][i] + T[k][j][i] * T[k][j][i+1];
  O[k][j][i] += O[k][j][i];
}
blurx (tmp, u, w);
blury (out, tmp);
copyout out;
)"));
  for (const int bx : {static_cast<int>(2 * kRow + 8), 100}) {
    KernelConfig cfg;
    cfg.block = {bx, 2, 1};
    expect_engines_match(prog, cfg, true, 31, str_cat("fused bx=", bx));
    expect_engines_match(prog, cfg, false, 32, str_cat("unfused bx=", bx));
  }
}

// ---- shared forwarding analysis --------------------------------------------

/// The in-place transpose: a point-dependent pending alias (the second
/// statement's B[j][k][i] hits the first statement's store only where
/// j == k) and a permuted read of the array the stage writes.
const char* kTransposeDsl = R"(
parameter L=8, M=8, N=8;
iterator k, j, i;
double in[L,M,N], out[L,M,N];
copyin in;
stencil transpose (B, A) {
  B[k][j][i] = A[k][j][i];
  B[k][j][i] = B[j][k][i] + 1.0;
}
transpose (out, in);
copyout out;
)";

TEST(BytecodeSim, PermutedReadOfWrittenArrayIsSnapshotted) {
  const ir::Program prog = dsl::parse(kTransposeDsl);
  const ir::BoundStencil bound = ir::bind_call(prog, prog.steps[0].call);
  const ir::StencilInfo info = ir::analyze(prog, bound);
  EXPECT_TRUE(needs_snapshot(info.arrays.at("out"), 3));
  EXPECT_FALSE(needs_snapshot(info.arrays.at("in"), 3));

  // Canonical center reads and writes only: no copy needed.
  const ir::Program acc = dsl::parse(R"(
parameter N=8;
iterator i;
double a[N], b[N];
copyin a, b;
stencil inc (B, A) {
  B[i] = B[i] + A[i];
}
inc (b, a);
copyout b;
)");
  const ir::StencilInfo ai =
      ir::analyze(acc, ir::bind_call(acc, acc.steps[0].call));
  EXPECT_FALSE(needs_snapshot(ai.arrays.at("b"), 1));
}

TEST(BytecodeSim, PointDependentAliasStaysPerPointAndMatches) {
  const ir::Program prog = dsl::parse(kTransposeDsl);
  StageRun st(prog, 17);
  const Forwarding fwd = analyze_forwarding(st.cs, st.views);
  EXPECT_NE(fwd.refusal.find("pending-write aliasing"), std::string::npos)
      << fwd.refusal;

  GridSet ref = GridSet::from_program(prog, 17);
  run_program_reference(prog, ref);
  EXPECT_TRUE(grids_bit_identical(point_oracle(prog, 17), ref));
  for (int rep = 0; rep < 5; ++rep) {
    KernelConfig cfg;
    cfg.block = {4, 4, 4};
    expect_engines_match(prog, cfg, false, 17, str_cat("transpose ", rep));
  }
}

TEST(BytecodeSim, LoweringAndRowInteriorRefuseAlike) {
  struct Shape {
    const char* label;
    const char* body;                ///< statements of stencil s (B, T, A)
    std::set<std::string> scratch;  ///< arrays bound as block scratch
    const char* refusal;            ///< expected substring, "" = static
  };
  const std::vector<Shape> shapes = {
      {"neighbor reads", "B[k][j][i] = A[k][j][i+1] + A[k-1][j][i];", {}, ""},
      {"+= through a forwarded store",
       "B[k][j][i] = A[k][j][i]; B[k][j][i] += B[k][j][i] * 2.0;", {}, ""},
      {"transposed pending read",
       "B[k][j][i] = A[k][j][i]; B[k][j][i] = B[j][k][i] + 1.0;", {},
       "pending-write aliasing"},
      {"snapshotted global neighbor read-back",
       "B[k][j][i] = A[k][j][i]; B[k][j][i] += B[k][j][i+1];", {}, ""},
      {"scratch neighbor read-back",
       "T[k][j][i] = A[k][j][i]; B[k][j][i] = T[k][j][i+1];", {"tmp"},
       "may read another point's same-stage store"},
      {"scratch center read before its store",
       "B[k][j][i] = T[k][j][i] * 2.0; T[k][j][i] = A[k][j][i];", {"tmp"},
       ""},
  };
  for (const Shape& sh : shapes) {
    const ir::Program prog = dsl::parse(str_cat(R"(
parameter L=6, M=6, N=6;
iterator k, j, i;
double in[L,M,N], tmp[L,M,N], out[L,M,N];
copyin in, tmp, out;
stencil s (B, T, A) {
  )", sh.body, R"(
}
s (out, tmp, in);
copyout out;
)"));
    StageRun st(prog, 3, sh.scratch);
    const Forwarding rows = analyze_forwarding(st.cs, st.views);
    const native::LowerResult lowered =
        native::lower_stencil(st.cs, st.is_scratch, false);
    EXPECT_EQ(rows.ok(), lowered.ok) << sh.label << ": " << lowered.reason;
    EXPECT_EQ(rows.refusal, lowered.reason) << sh.label;
    if (*sh.refusal == '\0') {
      EXPECT_TRUE(rows.ok()) << sh.label << ": " << rows.refusal;
    } else {
      EXPECT_NE(rows.refusal.find(sh.refusal), std::string::npos)
          << sh.label << ": " << rows.refusal;
    }
  }
}

TEST(BytecodeSim, ScratchReadBackFallsBackAndMatchesAcrossJobs) {
  // Stage 1 reads its own scratch output one point back: point order
  // makes that the value the previous point just stored, which a row
  // batch (all reads before any commit) would miss. The analysis refuses
  // it, so the stage stays per-point in both the row interior and the
  // native lowering.
  const ir::Program prog = dsl::parse(R"(
parameter L=4, M=6, N=20;
iterator k, j, i;
double u[L,M,N], tmp[L,M,N], out[L,M,N];
copyin u;
stencil back (T, U) {
  T[k][j][i] = U[k][j][i] + 0.5 * T[k][j][i-1];
}
stencil use (O, T) {
  O[k][j][i] = T[k][j][i-1] + T[k][j][i];
}
back (tmp, u);
use (out, tmp);
copyout out;
)");
  KernelConfig cfg;
  cfg.block = {8, 3, 2};
  expect_engines_match(prog, cfg, true, 51, "scratch read-back fused");
}

// ---- compile-time diagnostics ----------------------------------------------

TEST(BytecodeSim, CompileRejectsUnknownNames) {
  SlotMap arrays;
  arrays.add("A");
  SlotMap scalars;

  ir::Stmt bad_call;
  bad_call.lhs_name = "A";
  bad_call.lhs_indices = {{0, 0}};
  bad_call.rhs = ir::call("frobnicate", {ir::number(1.0)});
  EXPECT_THROW(compile_stmts({bad_call}, 1, arrays, scalars), Error);

  ir::Stmt bad_scalar;
  bad_scalar.lhs_name = "A";
  bad_scalar.lhs_indices = {{0, 0}};
  bad_scalar.rhs = ir::scalar_ref("nope");
  EXPECT_THROW(compile_stmts({bad_scalar}, 1, arrays, scalars), Error);

  ir::Stmt bad_array;
  bad_array.lhs_name = "B";
  bad_array.lhs_indices = {{0, 0}};
  bad_array.rhs = ir::number(0.0);
  EXPECT_THROW(compile_stmts({bad_array}, 1, arrays, scalars), Error);
}

}  // namespace
}  // namespace artemis::sim
