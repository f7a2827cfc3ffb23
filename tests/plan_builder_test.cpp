#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <thread>

#include "artemis/autotune/tuning_cache.hpp"
#include "artemis/codegen/cuda_emitter.hpp"
#include "artemis/codegen/plan_builder.hpp"
#include "artemis/common/rng.hpp"
#include "artemis/common/str.hpp"
#include "artemis/dsl/parser.hpp"
#include "artemis/ir/expr.hpp"
#include "artemis/stencils/benchmarks.hpp"
#include "artemis/transform/fusion.hpp"
#include "test_programs.hpp"

namespace artemis::codegen {
namespace {

using artemis::testing::kDagDsl;
using artemis::testing::kJacobiDsl;

class PlanBuilderTest : public ::testing::Test {
 protected:
  gpumodel::DeviceSpec dev_ = gpumodel::p100();
};

TEST_F(PlanBuilderTest, JacobiDefaults) {
  const ir::Program prog = dsl::parse(kJacobiDsl);
  KernelConfig cfg;
  const KernelPlan plan =
      build_plan_for_call(prog, prog.steps[0].call, cfg, dev_);
  EXPECT_EQ(plan.name, "jacobi");
  EXPECT_EQ(plan.dims, 3);
  EXPECT_EQ(plan.domain, (Extents{16, 16, 16}));
  EXPECT_EQ(plan.radius, (std::array<int, 3>{1, 1, 1}));
  // Default heuristic: input staged in shared memory, output global.
  EXPECT_EQ(plan.placement.at("in").space, ir::MemSpace::Shared);
  EXPECT_EQ(plan.placement.at("out").space, ir::MemSpace::Global);
  EXPECT_GT(plan.shmem_bytes_per_block, 0);
}

TEST_F(PlanBuilderTest, GlobalOnlyOption) {
  const ir::Program prog = dsl::parse(kJacobiDsl);
  KernelConfig cfg;
  BuildOptions opts;
  opts.use_shared_memory = false;
  const KernelPlan plan =
      build_plan_for_call(prog, prog.steps[0].call, cfg, dev_, opts);
  EXPECT_EQ(plan.placement.at("in").space, ir::MemSpace::Global);
  EXPECT_EQ(plan.shmem_bytes_per_block, 0);
}

TEST_F(PlanBuilderTest, UserPinsAreHonored) {
  const ir::Program prog = dsl::parse(kDagDsl);
  KernelConfig cfg;
  const KernelPlan plan =
      build_plan_for_call(prog, prog.steps[0].call, cfg, dev_);
  EXPECT_EQ(plan.placement.at("u").space, ir::MemSpace::Shared);
  EXPECT_TRUE(plan.placement.at("u").user_pinned);
  EXPECT_EQ(plan.placement.at("w").space, ir::MemSpace::Global);
  EXPECT_TRUE(plan.placement.at("w").user_pinned);
}

TEST_F(PlanBuilderTest, ShmemSizeAccountsHalo) {
  const ir::Program prog = dsl::parse(kJacobiDsl);
  KernelConfig cfg;
  cfg.tiling = TilingScheme::Spatial3D;
  cfg.block = {8, 8, 4};
  const KernelPlan plan =
      build_plan_for_call(prog, prog.steps[0].call, cfg, dev_);
  // in: (8+2)(8+2)(4+2) doubles.
  EXPECT_EQ(plan.shmem_bytes_per_block, 10 * 10 * 6 * 8);
}

TEST_F(PlanBuilderTest, StreamingUsesOnePlane) {
  const ir::Program prog = dsl::parse(kJacobiDsl);
  KernelConfig cfg;
  cfg.tiling = TilingScheme::StreamSerial;
  cfg.stream_axis = 2;
  cfg.block = {8, 8, 1};
  const KernelPlan plan =
      build_plan_for_call(prog, prog.steps[0].call, cfg, dev_);
  EXPECT_EQ(plan.shmem_bytes_per_block, 10 * 10 * 8);
}

TEST_F(PlanBuilderTest, RationingDemotesLeastAccessed) {
  // Two inputs: `a` read at 7 order-2 offsets, `b` read once. With a full
  // occupancy target the shared-memory budget per block is 16KB: both
  // buffers (~15.4KB + 4KB) do not fit, so the least-accessed `b` must be
  // demoted to global memory.
  const char* src = R"(
    parameter L=64, M=64, N=64;
    iterator k, j, i;
    double a[L,M,N], b[L,M,N], o[L,M,N];
    copyin a, b;
    stencil s (O, A, B) {
      O[k][j][i] = A[k][j][i] + A[k][j][i+2] + A[k][j][i-2] + A[k][j+2][i]
                 + A[k][j-2][i] + A[k+2][j][i] + A[k-2][j][i] + B[k][j][i];
    }
    s (o, a, b);
    copyout o;
  )";
  const ir::Program prog = dsl::parse(src);
  KernelConfig cfg;
  cfg.tiling = TilingScheme::Spatial3D;
  cfg.block = {16, 8, 4};
  cfg.target_occupancy = 1.0;
  const KernelPlan plan =
      build_plan_for_call(prog, prog.steps[0].call, cfg, dev_);
  EXPECT_EQ(plan.placement.at("b").space, ir::MemSpace::Global);
  EXPECT_EQ(plan.placement.at("a").space, ir::MemSpace::Shared);
}

TEST_F(PlanBuilderTest, OverCapacityWithoutTargetIsInfeasible) {
  // Without an occupancy target the builder does not silently demote:
  // over-capacity mappings are infeasible (Section II-B1's complaint).
  const ir::Program prog = dsl::parse(kJacobiDsl);
  KernelConfig cfg;
  cfg.block = {32, 32, 1};
  cfg.unroll = {2, 1, 8};  // 64 x 32 x 8 tile: way over 48KB if staged
  EXPECT_THROW(build_plan_for_call(prog, prog.steps[0].call, cfg, dev_),
               PlanError);
}

TEST_F(PlanBuilderTest, RationingRespectsDeviceCapacity) {
  const ir::Program prog = dsl::parse(kJacobiDsl);
  KernelConfig cfg;
  cfg.block = {32, 32, 1};
  cfg.unroll = {2, 1, 8};
  cfg.target_occupancy = 0.1;  // rationing enabled: demote to fit
  const KernelPlan plan =
      build_plan_for_call(prog, prog.steps[0].call, cfg, dev_);
  EXPECT_LE(plan.shmem_bytes_per_block, dev_.shmem_per_block);
}

TEST_F(PlanBuilderTest, FusedDagInternalArrays) {
  const ir::Program prog = dsl::parse(kDagDsl);
  std::vector<ir::BoundStencil> stages;
  stages.push_back(ir::bind_call(prog, prog.steps[0].call, "s0_"));
  stages.push_back(ir::bind_call(prog, prog.steps[1].call, "s1_"));
  KernelConfig cfg;
  const KernelPlan plan = build_plan(prog, std::move(stages), cfg, dev_);
  ASSERT_EQ(plan.internal_arrays, (std::vector<std::string>{"tmp"}));
  EXPECT_TRUE(plan.materialized_internals.empty());
  // Combined radius: blurx reads x+-1, blury reads y+-1; fused halo 1,1.
  EXPECT_EQ(plan.radius[0], 1);
  EXPECT_EQ(plan.radius[1], 1);
  EXPECT_EQ(plan.radius[2], 0);
  // Stage 0 must expand by stage 1's radius.
  EXPECT_EQ(plan.stage_expand[0], (std::array<int, 3>{0, 1, 0}));
  EXPECT_EQ(plan.stage_expand[1], (std::array<int, 3>{0, 0, 0}));
  // tmp is consumed at y+-1 from an expanded region.
  EXPECT_EQ(plan.eff_halo.at("tmp"), (std::array<int, 3>{0, 1, 0}));
  // u is read by stage 0 (radius x=1) which is expanded by (0,1,0).
  EXPECT_EQ(plan.eff_halo.at("u"), (std::array<int, 3>{1, 1, 0}));
}

TEST_F(PlanBuilderTest, MaterializedInternalWhenCopyout) {
  const char* src = R"(
    parameter N=16;
    iterator i;
    double a[N], t[N], o[N];
    copyin a;
    stencil s1 (T, A) { T[i] = A[i-1] + A[i+1]; }
    stencil s2 (O, T) { O[i] = T[i] * 2.0; }
    s1 (t, a);
    s2 (o, t);
    copyout o, t;
  )";
  const ir::Program prog = dsl::parse(src);
  std::vector<ir::BoundStencil> stages;
  stages.push_back(ir::bind_call(prog, prog.steps[0].call));
  stages.push_back(ir::bind_call(prog, prog.steps[1].call));
  KernelConfig cfg;
  const KernelPlan plan = build_plan(prog, std::move(stages), cfg, dev_);
  EXPECT_EQ(plan.materialized_internals, (std::vector<std::string>{"t"}));
}

TEST_F(PlanBuilderTest, PragmaDerivedConfig) {
  const ir::Program prog = dsl::parse(kJacobiDsl);
  const KernelConfig cfg =
      config_from_pragma(prog, prog.stencils[0].pragma, 3);
  EXPECT_EQ(cfg.tiling, TilingScheme::StreamSerial);
  EXPECT_EQ(cfg.stream_axis, 2);  // streams iterator k = axis z
  EXPECT_EQ(cfg.block, (std::array<int, 3>{32, 16, 1}));
  EXPECT_EQ(cfg.unroll, (std::array<int, 3>{1, 2, 1}));  // unroll j=2
}

TEST_F(PlanBuilderTest, RejectsOversizedBlock) {
  const ir::Program prog = dsl::parse(kJacobiDsl);
  KernelConfig cfg;
  cfg.block = {64, 64, 1};  // 4096 threads
  EXPECT_THROW(build_plan_for_call(prog, prog.steps[0].call, cfg, dev_),
               PlanError);
}

TEST_F(PlanBuilderTest, RejectsZeroBlock) {
  const ir::Program prog = dsl::parse(kJacobiDsl);
  KernelConfig cfg;
  cfg.block = {0, 1, 1};
  EXPECT_THROW(build_plan_for_call(prog, prog.steps[0].call, cfg, dev_),
               PlanError);
}

TEST_F(PlanBuilderTest, TimeTileTenFusedJacobiStagesShrinkShmem) {
  // Fusing two jacobi applications: the intermediate becomes internal.
  const char* src = R"(
    parameter L=16, M=16, N=16;
    iterator k, j, i;
    double in[L,M,N], mid[L,M,N], out[L,M,N], c;
    copyin in, c;
    stencil j1 (B, A, c) {
      B[k][j][i] = c * (A[k][j][i+1] + A[k][j][i-1] + A[k][j+1][i]
        + A[k][j-1][i] + A[k+1][j][i] + A[k-1][j][i] + A[k][j][i]);
    }
    j1 (mid, in, c);
    j1 (out, mid, c);
    copyout out;
  )";
  const ir::Program prog = dsl::parse(src);
  std::vector<ir::BoundStencil> stages;
  stages.push_back(ir::bind_call(prog, prog.steps[0].call, "a_"));
  stages.push_back(ir::bind_call(prog, prog.steps[1].call, "b_"));
  KernelConfig cfg;
  const KernelPlan plan = build_plan(prog, std::move(stages), cfg, dev_);
  EXPECT_EQ(plan.internal_arrays, (std::vector<std::string>{"mid"}));
  EXPECT_EQ(plan.radius, (std::array<int, 3>{2, 2, 2}));
  EXPECT_EQ(plan.eff_halo.at("in"), (std::array<int, 3>{2, 2, 2}));
  EXPECT_EQ(plan.eff_halo.at("mid"), (std::array<int, 3>{1, 1, 1}));
}

// ---- plan templates: prepare once, instantiate per config ----------------

void expect_same_stages(const std::vector<ir::BoundStencil>& a,
                        const std::vector<ir::BoundStencil>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t s = 0; s < a.size(); ++s) {
    EXPECT_EQ(a[s].name, b[s].name);
    EXPECT_EQ(a[s].def, b[s].def);
    EXPECT_EQ(a[s].binding, b[s].binding);
    EXPECT_EQ(a[s].resources.spaces, b[s].resources.spaces);
    ASSERT_EQ(a[s].stmts.size(), b[s].stmts.size());
    for (std::size_t i = 0; i < a[s].stmts.size(); ++i) {
      const ir::Stmt& x = a[s].stmts[i];
      const ir::Stmt& y = b[s].stmts[i];
      EXPECT_EQ(x.declares_local, y.declares_local);
      EXPECT_EQ(x.accumulate, y.accumulate);
      EXPECT_EQ(x.lhs_name, y.lhs_name);
      EXPECT_EQ(x.lhs_indices, y.lhs_indices);
      EXPECT_TRUE(ir::equal(*x.rhs, *y.rhs)) << "stage " << s << " stmt " << i;
    }
  }
}

void expect_same_info(const ir::StencilInfo& a, const ir::StencilInfo& b) {
  EXPECT_EQ(a.inputs, b.inputs);
  EXPECT_EQ(a.outputs, b.outputs);
  EXPECT_EQ(a.scalars_read, b.scalars_read);
  EXPECT_EQ(a.flops_per_point, b.flops_per_point);
  EXPECT_EQ(a.order, b.order);
  EXPECT_EQ(a.radius, b.radius);
  EXPECT_EQ(a.num_io_arrays, b.num_io_arrays);
  EXPECT_EQ(a.num_statements, b.num_statements);
  ASSERT_EQ(a.arrays.size(), b.arrays.size());
  for (const auto& [name, x] : a.arrays) {
    const auto it = b.arrays.find(name);
    ASSERT_NE(it, b.arrays.end()) << name;
    const ir::ArrayAccessInfo& y = it->second;
    EXPECT_EQ(x.array, y.array);
    EXPECT_EQ(x.dims, y.dims);
    EXPECT_EQ(x.read, y.read);
    EXPECT_EQ(x.written, y.written);
    EXPECT_EQ(x.radius, y.radius);
    EXPECT_EQ(x.read_offsets, y.read_offsets);
    EXPECT_EQ(x.write_offsets, y.write_offsets);
  }
}

/// Every field of two plans, stages compared structurally.
void expect_same_plan(const KernelPlan& a, const KernelPlan& b) {
  EXPECT_EQ(a.name, b.name);
  expect_same_stages(a.stages, b.stages);
  expect_same_info(a.info, b.info);
  EXPECT_EQ(autotune::serialize_config(a.config),
            autotune::serialize_config(b.config));
  EXPECT_EQ(a.domain, b.domain);
  EXPECT_EQ(a.dims, b.dims);
  EXPECT_EQ(a.radius, b.radius);
  ASSERT_EQ(a.placement.size(), b.placement.size());
  for (const auto& [name, x] : a.placement) {
    const auto it = b.placement.find(name);
    ASSERT_NE(it, b.placement.end()) << name;
    EXPECT_EQ(x.space, it->second.space) << name;
    EXPECT_EQ(x.fold_group, it->second.fold_group) << name;
    EXPECT_EQ(x.user_pinned, it->second.user_pinned) << name;
  }
  EXPECT_EQ(a.fold_groups, b.fold_groups);
  EXPECT_EQ(a.retimed, b.retimed);
  EXPECT_EQ(a.time_tile, b.time_tile);
  EXPECT_EQ(a.stage_flops, b.stage_flops);
  EXPECT_EQ(a.stage_radius, b.stage_radius);
  EXPECT_EQ(a.stage_expand, b.stage_expand);
  EXPECT_EQ(a.eff_halo, b.eff_halo);
  EXPECT_EQ(a.internal_arrays, b.internal_arrays);
  EXPECT_EQ(a.materialized_internals, b.materialized_internals);
  EXPECT_EQ(a.shmem_bytes_per_block, b.shmem_bytes_per_block);
  EXPECT_EQ(a.iterators, b.iterators);
  EXPECT_EQ(a.pressure.locals, b.pressure.locals);
  EXPECT_EQ(a.pressure.widest_reads, b.pressure.widest_reads);
  EXPECT_EQ(a.pressure.flops, b.pressure.flops);
}

/// A plan, or the PlanError message building it produced.
struct BuildOutcome {
  std::optional<KernelPlan> plan;
  std::string error;
};

template <typename Build>
BuildOutcome try_build(Build&& build) {
  BuildOutcome out;
  try {
    out.plan = build();
  } catch (const PlanError& e) {
    out.error = e.what();
  }
  return out;
}

/// One stage list to plan: its program, stages and build options.
struct PlanCase {
  std::string label;
  ir::Program prog;
  std::vector<ir::BoundStencil> stages;
  BuildOptions opts;
};

/// Every Table I stencil (first stencil step), a fused two-stage DAG, a
/// time-tiled iterative group, a foldable product and a global-memory
/// version.
std::vector<PlanCase> plan_cases() {
  std::vector<PlanCase> cases;
  for (const auto& spec : stencils::paper_benchmarks()) {
    PlanCase c;
    c.label = spec.name;
    c.prog = stencils::benchmark_program(spec.name, 24, 2);
    for (const auto& step : ir::flatten_steps(c.prog)) {
      if (step.kind == ir::ExecStep::Kind::Stencil) {
        c.stages.push_back(step.stencil);
        break;
      }
    }
    cases.push_back(std::move(c));
  }
  {
    PlanCase c;
    c.label = "dag-fused";
    c.prog = dsl::parse(kDagDsl);
    c.stages = transform::bind_all_calls(c.prog);
    cases.push_back(std::move(c));
  }
  {
    const ir::Program prog = stencils::benchmark_program("7pt-smoother", 24, 4);
    const ir::Step* iterate = nullptr;
    for (const auto& step : prog.steps) {
      if (step.kind == ir::Step::Kind::Iterate) iterate = &step;
    }
    PlanCase c;
    c.label = "7pt-time-tiled";
    auto tt = transform::time_tile_iterate(prog, *iterate, 3);
    c.prog = std::move(tt.augmented);
    c.stages = std::move(tt.stages);
    cases.push_back(std::move(c));
  }
  {
    // Point-wise products of a and b fold into one buffer (III-B4).
    PlanCase c;
    c.label = "fold-product";
    c.prog = dsl::parse(R"(
      parameter L=16, M=16, N=16;
      iterator k, j, i;
      double a[L,M,N], b[L,M,N], o[L,M,N];
      copyin a, b;
      stencil s (O, A, B) {
        O[k][j][i] = A[k][j][i]*B[k][j][i] + A[k][j][i+1]*B[k][j][i+1]
                   - A[k-1][j][i]*B[k-1][j][i];
      }
      s (o, a, b);
      copyout o;
    )");
    c.stages.push_back(ir::bind_call(c.prog, c.prog.steps[0].call));
    cases.push_back(std::move(c));
  }
  {
    PlanCase c;
    c.label = "hypterm-gmem";
    c.prog = stencils::benchmark_program("hypterm", 24);
    c.stages.push_back(ir::bind_call(c.prog, c.prog.steps[0].call));
    c.opts.use_shared_memory = false;
    cases.push_back(std::move(c));
  }
  return cases;
}

/// Configs spanning spatial, stream-serial and stream-concurrent tiling,
/// unrolling, retime, fold, occupancy rationing and infeasible launches.
std::vector<KernelConfig> template_configs(int dims) {
  std::vector<KernelConfig> out;
  const auto add = [&](auto&& tweak) {
    KernelConfig cfg;
    cfg.stream_axis = dims - 1;
    cfg.block = {16, 4, 4};
    tweak(cfg);
    out.push_back(cfg);
  };
  const auto stream = [&](KernelConfig& c, TilingScheme t) {
    c.tiling = t;
    c.block = {32, 8, 1};
    c.block[static_cast<std::size_t>(dims - 1)] = 1;
  };
  add([](KernelConfig&) {});
  add([](KernelConfig& c) { c.block = {32, 8, 2}; c.unroll = {2, 1, 1}; });
  add([](KernelConfig& c) { c.block = {8, 8, 8}; c.unroll = {1, 2, 2}; });
  add([&](KernelConfig& c) { stream(c, TilingScheme::StreamSerial); });
  add([&](KernelConfig& c) {
    stream(c, TilingScheme::StreamSerial);
    c.unroll = {2, 2, 1};
    c.prefetch = true;
    c.unroll_strategy = UnrollStrategy::Cyclic;
  });
  add([&](KernelConfig& c) {
    stream(c, TilingScheme::StreamConcurrent);
    c.stream_chunk = 32;
    c.perspective = Perspective::Mixed;
  });
  add([&](KernelConfig& c) {
    stream(c, TilingScheme::StreamSerial);
    c.retime = true;
  });
  add([&](KernelConfig& c) {  // stream along y: a second retime memo slot
    stream(c, TilingScheme::StreamSerial);
    c.block = {32, 1, 8};
    c.stream_axis = dims - 2;
    c.retime = true;
  });
  add([&](KernelConfig& c) {
    stream(c, TilingScheme::StreamConcurrent);
    c.retime = true;
  });
  add([](KernelConfig& c) { c.retime = true; });  // spatial: never retimed
  add([](KernelConfig& c) { c.fold = true; });
  add([&](KernelConfig& c) {
    stream(c, TilingScheme::StreamSerial);
    c.retime = true;
    c.fold = true;
  });
  // Occupancy rationing, with and without demotions.
  add([](KernelConfig& c) { c.block = {32, 8, 4}; c.target_occupancy = 1.0; });
  add([&](KernelConfig& c) {
    stream(c, TilingScheme::StreamSerial);
    c.block[0] = 64;
    c.unroll = {2, 4, 1};
    c.target_occupancy = 0.5;
  });
  // Over capacity without a target, and launches the device rejects.
  add([](KernelConfig& c) { c.block = {16, 16, 4}; c.unroll = {2, 2, 2}; });
  add([](KernelConfig& c) { c.block = {64, 32, 1}; });
  add([](KernelConfig& c) { c.block = {16, 0, 4}; });
  add([](KernelConfig& c) { c.unroll = {1, 0, 1}; });
  add([](KernelConfig& c) {
    c.tiling = TilingScheme::StreamSerial;
    c.stream_axis = 3;
  });
  add([](KernelConfig& c) { c.max_registers = 32; c.time_tile = 2; });
  return out;
}

TEST_F(PlanBuilderTest, InstantiatedTemplateMatchesOneShotBuild) {
  for (const PlanCase& pc : plan_cases()) {
    SCOPED_TRACE(pc.label);
    const PlanTemplate tmpl = prepare_plan(pc.prog, pc.stages, pc.opts);
    const auto configs =
        template_configs(static_cast<int>(pc.prog.iterators.size()));
    // Two passes, the second in reverse: the lazily memoized retime and
    // fold analyses must not depend on which config asked first, and no
    // instantiation may leak state into the next.
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < configs.size(); ++i) order.push_back(i);
    for (std::size_t i = configs.size(); i-- > 0;) order.push_back(i);
    int feasible = 0, infeasible = 0;
    for (const std::size_t i : order) {
      const KernelConfig& cfg = configs[i];
      SCOPED_TRACE(autotune::serialize_config(cfg));
      const BuildOutcome one_shot = try_build(
          [&] { return build_plan(pc.prog, pc.stages, cfg, dev_, pc.opts); });
      const BuildOutcome inst =
          try_build([&] { return build_plan(tmpl, cfg, dev_); });
      ASSERT_EQ(one_shot.plan.has_value(), inst.plan.has_value());
      EXPECT_EQ(one_shot.error, inst.error);
      if (!inst.plan) {
        ++infeasible;
        continue;
      }
      ++feasible;
      expect_same_plan(*one_shot.plan, *inst.plan);
      EXPECT_EQ(emit_cuda(pc.prog, *one_shot.plan).full(),
                emit_cuda(pc.prog, *inst.plan).full());
    }
    EXPECT_GT(feasible, 0);
    EXPECT_GT(infeasible, 0);
  }
}

TEST_F(PlanBuilderTest, TemplateInstantiatesConcurrently) {
  // The tuner instantiates one template from every worker: the first
  // requests of the memoized retime, fold and access analyses race.
  for (const PlanCase& pc : plan_cases()) {
    SCOPED_TRACE(pc.label);
    const auto configs =
        template_configs(static_cast<int>(pc.prog.iterators.size()));
    std::vector<std::string> expected;
    for (const KernelConfig& cfg : configs) {
      const BuildOutcome b = try_build(
          [&] { return build_plan(pc.prog, pc.stages, cfg, dev_, pc.opts); });
      expected.push_back(b.plan ? emit_cuda(pc.prog, *b.plan).full()
                                : b.error);
    }
    const PlanTemplate tmpl = prepare_plan(pc.prog, pc.stages, pc.opts);
    constexpr int kThreads = 4;
    std::vector<std::vector<std::string>> got(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (const KernelConfig& cfg : configs) {
          const BuildOutcome b =
              try_build([&] { return build_plan(tmpl, cfg, dev_); });
          got[static_cast<std::size_t>(t)].push_back(
              b.plan ? emit_cuda(pc.prog, *b.plan).full() : b.error);
        }
      });
    }
    for (auto& th : threads) th.join();
    for (const auto& g : got) EXPECT_EQ(g, expected);
  }
}

TEST_F(PlanBuilderTest, TemplateCoversRetimeFoldAndRationing) {
  // The config list exercises what it claims to on at least one case.
  bool retimed = false, folded = false, demoted = false;
  for (const PlanCase& pc : plan_cases()) {
    const PlanTemplate tmpl = prepare_plan(pc.prog, pc.stages, pc.opts);
    for (const KernelConfig& cfg :
         template_configs(static_cast<int>(pc.prog.iterators.size()))) {
      try {
        const KernelPlan plan = build_plan(tmpl, cfg, dev_);
        retimed |= plan.retimed;
        for (const auto& [name, pl] : plan.placement) {
          folded |= pl.fold_group >= 0;
          demoted |= tmpl.base.placement.at(name).space ==
                         ir::MemSpace::Shared &&
                     pl.space == ir::MemSpace::Global;
        }
      } catch (const PlanError&) {
      }
    }
  }
  EXPECT_TRUE(retimed);
  EXPECT_TRUE(folded);
  EXPECT_TRUE(demoted);
}

TEST_F(PlanBuilderTest, TemplateCountsMatchNaiveWalks) {
  // One statement walk yields the register pressure and the rationing
  // access counts; each must equal its straightforward definition.
  for (const PlanCase& pc : plan_cases()) {
    SCOPED_TRACE(pc.label);
    const PlanTemplate tmpl = prepare_plan(pc.prog, pc.stages, pc.opts);
    std::map<std::string, std::int64_t> accesses;
    std::set<std::string> locals;
    std::int64_t flops = 0, widest = 0;
    for (const auto& stage : pc.stages) {
      for (const auto& st : stage.stmts) {
        if (st.declares_local) locals.insert(st.lhs_name);
        if (!st.declares_local) ++accesses[st.lhs_name];
        std::int64_t reads = 0;
        ir::visit(*st.rhs, [&](const ir::Expr& e) {
          if (e.kind == ir::ExprKind::ArrayRef) {
            ++accesses[e.name];
            ++reads;
          }
        });
        widest = std::max(widest, reads);
        flops += ir::flop_count(*st.rhs);
      }
    }
    EXPECT_EQ(tmpl.accesses, accesses);
    EXPECT_EQ(tmpl.base.pressure.locals,
              static_cast<std::int64_t>(locals.size()));
    EXPECT_EQ(tmpl.base.pressure.widest_reads, widest);
    EXPECT_EQ(tmpl.base.pressure.flops, flops);
  }
}

TEST_F(PlanBuilderTest, TemplatePreparationErrorsMatchOneShot) {
  // A stage list that writes no array fails in preparation, with the
  // message the one-shot build reports for every config.
  const ir::Program prog = dsl::parse(kJacobiDsl);
  std::vector<ir::BoundStencil> stages = {
      ir::bind_call(prog, prog.steps[0].call)};
  for (auto& st : stages[0].stmts) st.declares_local = true;
  const BuildOutcome one_shot =
      try_build([&] { return build_plan(prog, stages, KernelConfig{}, dev_); });
  std::string prep_error;
  try {
    (void)prepare_plan(prog, stages);
  } catch (const PlanError& e) {
    prep_error = e.what();
  }
  EXPECT_FALSE(one_shot.plan.has_value());
  EXPECT_FALSE(prep_error.empty());
  EXPECT_EQ(one_shot.error, prep_error);
}

TEST_F(PlanBuilderTest, MaxRegistersOnlyChangesTheConfigField) {
  // Property: max_registers is a compiler budget, not a plan decision.
  // For random configs, every budget yields the same plan (or the same
  // PlanError) up to plan.config.max_registers; the tuner's single-build
  // register escalation relies on it.
  Rng rng(0x5eed);
  const auto pow2 = [&rng](int lo_exp, int hi_exp) {
    return 1 << rng.uniform_int(lo_exp, hi_exp);
  };
  for (const PlanCase& pc : plan_cases()) {
    SCOPED_TRACE(pc.label);
    const int dims = static_cast<int>(pc.prog.iterators.size());
    const PlanTemplate tmpl = prepare_plan(pc.prog, pc.stages, pc.opts);
    for (int trial = 0; trial < 12; ++trial) {
      KernelConfig cfg;
      cfg.tiling = static_cast<TilingScheme>(rng.uniform_int(0, 2));
      cfg.stream_axis = dims - 1;
      cfg.block = {pow2(2, 7), pow2(0, 5), pow2(0, 3)};
      if (cfg.tiling != TilingScheme::Spatial3D) {
        cfg.block[static_cast<std::size_t>(dims - 1)] = 1;
      }
      cfg.unroll = {pow2(0, 2), pow2(0, 1), pow2(0, 1)};
      cfg.retime = rng.coin();
      cfg.fold = rng.coin();
      cfg.prefetch = rng.coin();
      if (rng.coin()) cfg.target_occupancy = 0.5;
      SCOPED_TRACE(autotune::serialize_config(cfg));
      cfg.max_registers = 255;
      const BuildOutcome top =
          try_build([&] { return build_plan(tmpl, cfg, dev_); });
      for (const int budget : {32, 64, 128}) {
        KernelConfig c = cfg;
        c.max_registers = budget;
        BuildOutcome got = try_build([&] { return build_plan(tmpl, c, dev_); });
        ASSERT_EQ(got.plan.has_value(), top.plan.has_value());
        EXPECT_EQ(got.error, top.error);
        if (!got.plan) continue;
        EXPECT_EQ(got.plan->config.max_registers, budget);
        got.plan->config.max_registers = 255;
        expect_same_plan(*top.plan, *got.plan);
      }
    }
  }
}

}  // namespace
}  // namespace artemis::codegen
