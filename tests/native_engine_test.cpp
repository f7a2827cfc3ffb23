// Native compiled engine: lowering, C emission, the host-compiler cache,
// fallback, and equivalence properties that go beyond the differential
// sweeps in bytecode_sim_test. Every test also passes with no C compiler
// on PATH (tests/CMakeLists.txt registers that run): compiled-only checks
// then assert the fallback instead.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>

#include "artemis/codegen/plan_builder.hpp"
#include "artemis/common/str.hpp"
#include "artemis/dsl/parser.hpp"
#include "artemis/gpumodel/device.hpp"
#include "artemis/ir/analysis.hpp"
#include "artemis/robust/fault_injection.hpp"
#include "artemis/sim/executor.hpp"
#include "artemis/sim/native/native.hpp"
#include "artemis/sim/reference.hpp"
#include "artemis/telemetry/telemetry.hpp"
#include "artemis/verify/oracle.hpp"
#include "test_programs.hpp"

namespace artemis::sim {
namespace {

using codegen::KernelConfig;

/// Compile one bound call into the raw bytecode + view tables the native
/// layer consumes (the same binding executor.cpp performs, minus tiling).
struct RawStage {
  GridSet gs;
  SlotMap arrays;
  SlotMap scalars;
  CompiledStencil cs;
  std::vector<ArrayView> views;
  std::vector<std::uint8_t> is_scratch;
  std::vector<double> scalar_vals;
  BcRegion domain;

  explicit RawStage(const ir::Program& prog, std::uint64_t seed)
      : gs(GridSet::from_program(prog, seed)) {
    const ir::BoundStencil bound = ir::bind_call(prog, prog.steps[0].call);
    const ir::StencilInfo info = ir::analyze(prog, bound);
    for (const auto& [name, ai] : info.arrays) arrays.add(name);
    for (const auto& name : info.scalars_read) scalars.add(name);
    for (int s = 0; s < scalars.size(); ++s) {
      scalar_vals.push_back(gs.scalar(scalars.name(s)));
    }
    const int dims = static_cast<int>(prog.iterators.size());
    cs = compile_stmts(bound.stmts, dims, arrays, scalars);
    is_scratch.assign(static_cast<std::size_t>(arrays.size()), 0);

    views.resize(static_cast<std::size_t>(arrays.size()));
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
    const Extents e = gs.grid(info.outputs.front()).extents();
    domain.lo = {0, 0, 0};
    domain.hi = {e.z, e.y, e.x};
  }
};

/// Whether an executable `cc` is on PATH: compiled-only assertions hold
/// exactly when it is.
bool compiler_on_path() {
  const char* path = std::getenv("PATH");
  if (path == nullptr) return false;
  for (const auto& dir : split(path, ':')) {
    if (!dir.empty() && ::access((dir + "/cc").c_str(), X_OK) == 0) {
      return true;
    }
  }
  return false;
}

/// Counters of one engine run with telemetry on.
std::map<std::string, std::int64_t> counters_of(
    const std::function<void()>& run) {
  auto& col = telemetry::Collector::global();
  col.enable();
  col.clear();
  run();
  auto counters = col.counters();
  col.disable();
  return counters;
}

std::int64_t counter(const std::map<std::string, std::int64_t>& c,
                     const std::string& name) {
  const auto it = c.find(name);
  return it == c.end() ? 0 : it->second;
}

bool grids_bit_identical(const GridSet& a, const GridSet& b) {
  for (const auto& [name, ga] : a.grids()) {
    const Grid3D& gb = b.grid(name);
    if (std::memcmp(ga->raw().data(), gb.raw().data(),
                    ga->raw().size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// The first bit difference between two grid sets, "" when identical.
std::string first_difference(const GridSet& a, const GridSet& b) {
  for (const auto& [name, ga] : a.grids()) {
    const auto& va = ga->raw();
    const auto& vb = b.grid(name).raw();
    for (std::size_t i = 0; i < va.size(); ++i) {
      if (std::memcmp(&va[i], &vb[i], sizeof(double)) != 0) {
        return str_cat(name, "[", i, "]: ", va[i], " vs ", vb[i]);
      }
    }
  }
  return "";
}

// ---- lowering --------------------------------------------------------------

TEST(NativeEngine, JacobiLowers) {
  const ir::Program prog = dsl::parse(artemis::testing::kJacobiDsl);
  RawStage st(prog, 1);
  const auto r = native::lower_stencil(st.cs, st.is_scratch, false);
  ASSERT_TRUE(r.ok) << r.reason;
  EXPECT_EQ(r.prog.dims, 3);
  EXPECT_EQ(r.prog.stores.size(), 1u);
  // 7-point star: six +/-1 neighbors and the center, all distinct loads.
  EXPECT_EQ(r.prog.loads.size(), 7u);
  // The source reads the center twice (a*A[...] and A[...]*6.0): CSE
  // dedupes the load, but the per-point read count must stay at the
  // bytecode engine's 8 so analytic counters match it bit for bit.
  EXPECT_EQ(r.prog.greads_pp, 8);
  EXPECT_EQ(r.prog.flops_per_point, st.cs.flops_per_point);
}

TEST(NativeEngine, FastMathFusesMulAdd) {
  const ir::Program prog = dsl::parse(artemis::testing::kJacobiDsl);
  RawStage st(prog, 1);
  const auto strict = native::lower_stencil(st.cs, st.is_scratch, false);
  const auto fast = native::lower_stencil(st.cs, st.is_scratch, true);
  ASSERT_TRUE(strict.ok && fast.ok);
  const auto count_fused = [](const native::LinearProgram& lp) {
    int n = 0;
    for (const auto& in : lp.body) {
      if (in.op == native::NOp::Fmadd || in.op == native::NOp::Fmsub ||
          in.op == native::NOp::Fnmadd) {
        ++n;
      }
    }
    return n;
  };
  EXPECT_EQ(count_fused(strict.prog), 0);
  EXPECT_GT(count_fused(fast.prog), 0);
  // Fusing removes instructions but never changes per-point accounting.
  EXPECT_EQ(fast.prog.flops_per_point, strict.prog.flops_per_point);
  EXPECT_EQ(fast.prog.greads_pp, strict.prog.greads_pp);
}

TEST(NativeEngine, RefusesNonInjectiveStore) {
  // A store that drops iterator i maps every x to one element, so the
  // result depends on point order — the lowering must refuse, never
  // reorder. The DSL frontend cannot express this (outputs must write
  // the center point), so mutate the compiled store access directly.
  const ir::Program prog = dsl::parse(artemis::testing::kJacobiDsl);
  RawStage st(prog, 1);
  const int out_slot = st.arrays.slot("out");
  ASSERT_GE(out_slot, 0);
  for (auto& a : st.cs.accesses) {
    if (a.array == out_slot) {
      a.sel[2] = 3;  // x coordinate pinned to the constant 0
      a.off[2] = 0;
    }
  }
  const auto r = native::lower_stencil(st.cs, st.is_scratch, false);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.reason.find("does not address every iterator"),
            std::string::npos)
      << r.reason;
}

TEST(NativeEngine, RefusesPointDependentPendingAlias) {
  // Statement 2 reads B with a transposed selector after statement 1
  // wrote B: whether the read hits the pending buffer depends on the
  // point, which no static lowering can resolve.
  const ir::Program prog = dsl::parse(R"(
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
)");
  RawStage st(prog, 1);
  const auto r = native::lower_stencil(st.cs, st.is_scratch, false);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.reason.find("pending-write aliasing"), std::string::npos)
      << r.reason;
}

// ---- compiled interior -----------------------------------------------------

TEST(NativeEngine, CompiledInteriorBitIdenticalToBytecode) {
  // The compiled stage over the whole interior, rim on bytecode, must land
  // bit-for-bit on the bytecode result; the domain's x extent (16) is two
  // full vectors in the interior rows' middle and a scalar tail at 14.
  const ir::Program prog = dsl::parse(artemis::testing::kJacobiDsl);
  RawStage want(prog, 9);
  {
    BcCounters c;
    run_compiled_region(want.cs, want.views, want.scalar_vals.data(),
                        want.domain, want.domain, false, c);
  }
  RawStage got(prog, 9);
  const auto r = native::lower_stencil(got.cs, got.is_scratch, false);
  ASSERT_TRUE(r.ok) << r.reason;
  const native::StageBuild b = native::compile_stage(r.prog);
  if (b.stage.fn == nullptr) {
    EXPECT_FALSE(compiler_on_path()) << b.error;
    return;
  }
  BcCounters c;
  native::run_native_region(r.prog, b.stage, got.cs, got.views,
                            got.scalar_vals.data(), got.domain, got.domain,
                            false, c, nullptr);
  EXPECT_TRUE(grids_bit_identical(want.gs, got.gs));
}

TEST(NativeEngine, EmittedSourceIsAPureFunctionOfTheProgram) {
  // The compile cache is keyed by the source, so equal programs must emit
  // equal text, strict and fast-math programs must not, and the compiler
  // must never be allowed to contract.
  const ir::Program prog = dsl::parse(artemis::testing::kJacobiDsl);
  RawStage st(prog, 1);
  const auto strict = native::lower_stencil(st.cs, st.is_scratch, false);
  const auto fast = native::lower_stencil(st.cs, st.is_scratch, true);
  ASSERT_TRUE(strict.ok && fast.ok);
  const std::string src = native::emit_stage_source(strict.prog);
  EXPECT_EQ(src, native::emit_stage_source(strict.prog));
  EXPECT_NE(src, native::emit_stage_source(fast.prog));
  EXPECT_NE(src.find("void artemis_stage("), std::string::npos);
  const auto fma_calls = [](const std::string& text) {
    std::size_t n = 0;
    for (auto at = text.find("fma("); at != std::string::npos;
         at = text.find("fma(", at + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_GT(fma_calls(native::emit_stage_source(fast.prog)), fma_calls(src));
  const auto& cmd = native::compiler_command();
  EXPECT_EQ(cmd.front(), "cc");
  EXPECT_NE(std::find(cmd.begin(), cmd.end(), "-ffp-contract=off"),
            cmd.end());
  EXPECT_STREQ(native::tier_name(native::Tier::Scalar), "scalar");
  EXPECT_STREQ(native::tier_name(native::Tier::Avx2), "avx2");
  EXPECT_STREQ(native::tier_name(native::Tier::Avx512), "avx512");
}

/// Fill `a` and `b` (same shape) so that element n holds the pair
/// (specials[n % K], specials[n / K % K]): every ordered pair of IEEE
/// special values and ordinary numbers — NaN, ±0, ±inf, subnormals,
/// negative arguments — meets the libm calls and selects.
void fill_special(Grid3D& a, Grid3D& b) {
  const double specials[] = {
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      0.0,
      -0.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min(),
      -2.5,
      1.0 / 3.0,
      1e300,
      -1e-300,
      0.7,
      2.0,
      -1.0,
      // pow(x, 2.0) rounds differently from x*x here.
      -0x1.3522e660f66fep-1};
  constexpr std::size_t k = std::size(specials);
  for (std::size_t n = 0; n < a.raw().size(); ++n) {
    a.raw()[n] = specials[n % k];
    b.raw()[n] = specials[n / k % k];
  }
}

TEST(NativeEngine, StrictLibmAndSelectsBitIdenticalToBytecode) {
  // pow with constant exponents is what a compiler that recognizes pow
  // folds (x*x for 2.0, sqrt for 0.5 under relaxed math, x*x*x for 3.0);
  // min/max with NaN and ±0 operands are where a select and a minsd
  // disagree. Each result lands in its own grid so raw bits compare, and
  // no arithmetic op meets two NaNs: which payload such an op returns is
  // the compiler's choice in either engine (docs/CORRECTNESS.md). Rows
  // are 21 wide and one block spans them, so the interior x range 1..19
  // is two full vectors and a scalar tail, and every pair of values
  // (225 of them, repeating every 225 elements) reaches a vector lane.
  const ir::Program prog = dsl::parse(R"(
parameter L=6, M=5, N=21;
iterator k, j, i;
double a[L,M,N], b[L,M,N], p2[L,M,N], p05[L,M,N], p3[L,M,N], ex[L,M,N],
       lg[L,M,N], mn[L,M,N], mx[L,M,N], mnr[L,M,N], sq[L,M,N], ng[L,M,N];
copyin a, b;
stencil special (P2, P05, P3, EX, LG, MN, MX, MNR, SQ, NG, A, B) {
  P2[k][j][i] = pow(A[k][j][i], 2.0);
  P05[k][j][i] = pow(A[k][j][i+1], 0.5);
  P3[k][j][i] = pow(B[k][j][i], 3.0) * 0.5;
  EX[k][j][i] = exp(A[k][j][i]);
  LG[k][j][i] = log(B[k][j][i-1]);
  MN[k][j][i] = min(A[k][j][i], B[k][j][i]);
  MX[k][j][i] = max(A[k][j][i], B[k][j][i]);
  MNR[k][j][i] = min(B[k][j][i], A[k][j][i]);
  SQ[k][j][i] = sqrt(B[k][j][i]);
  NG[k][j][i] = -fabs(A[k][j][i]);
}
special (p2, p05, p3, ex, lg, mn, mx, mnr, sq, ng, a, b);
copyout p2, p05, p3, ex, lg, mn, mx, mnr, sq, ng;
)");
  const auto dev = gpumodel::p100();
  KernelConfig cfg;
  cfg.block = {32, 2, 2};
  const auto plan =
      codegen::build_plan_for_call(prog, prog.steps[0].call, cfg, dev);

  GridSet bc = GridSet::from_program(prog, 5);
  fill_special(bc.grid("a"), bc.grid("b"));
  GridSet nat = bc.clone();
  execute_plan(plan, bc);
  const auto counters = counters_of([&] {
    ExecOptions no;
    no.engine = SimEngine::Native;
    execute_plan(plan, nat, no);
  });
  EXPECT_EQ(first_difference(bc, nat), "");
  EXPECT_EQ(counter(counters, "sim.native_stages") > 0, compiler_on_path());
}

TEST(NativeEngine, InjectedCompileFailureFallsBackAndMatches) {
  // The "sim.native.compile" fault point fails the build: the stage runs
  // on bytecode, bit-identically, and counts as a fallback. The program's
  // constant (1.25) appears in no other test, so its stage is not cached.
  const ir::Program prog = dsl::parse(R"(
parameter L=8, M=8, N=8;
iterator k, j, i;
double in[L,M,N], out[L,M,N];
copyin in;
stencil scale (B, A) {
  B[k][j][i] = 1.25 * A[k][j][i] + A[k][j][i-1];
}
scale (out, in);
copyout out;
)");
  const auto dev = gpumodel::p100();
  KernelConfig cfg;
  cfg.block = {8, 4, 4};
  const auto plan =
      codegen::build_plan_for_call(prog, prog.steps[0].call, cfg, dev);

  GridSet bc = GridSet::from_program(prog, 3);
  GridSet nat = bc.clone();
  execute_plan(plan, bc);
  robust::FaultSpec spec;
  spec.crash_p = 1.0;
  spec.site = "sim.native.compile";
  robust::install_fault_plan(spec);
  ExecOptions no;
  no.engine = SimEngine::Native;
  const auto counters = counters_of([&] { execute_plan(plan, nat, no); });
  robust::clear_fault_plan();

  EXPECT_TRUE(grids_bit_identical(bc, nat));
  EXPECT_GT(counter(counters, "sim.native_fallbacks"), 0);
  EXPECT_EQ(counter(counters, "sim.native_stages"), 0);
  EXPECT_GT(counter(counters, "sim.native.compile_failures"), 0);

  // The injected failure is not remembered: with the fault plan gone the
  // same stage compiles (when a compiler exists).
  GridSet again = GridSet::from_program(prog, 3);
  const auto retry = counters_of([&] { execute_plan(plan, again, no); });
  EXPECT_TRUE(grids_bit_identical(bc, again));
  EXPECT_EQ(counter(retry, "sim.native_stages") > 0, compiler_on_path());
}

TEST(NativeEngine, MissingCompilerFallsBackAndMatches) {
  // With no compiler on PATH the build fails to start; the stage falls
  // back to bytecode and the failure is cached, so the next execution
  // neither retries nor changes its answer.
  const ir::Program prog = dsl::parse(R"(
parameter L=8, M=8, N=8;
iterator k, j, i;
double in[L,M,N], out[L,M,N];
copyin in;
stencil shift (B, A) {
  B[k][j][i] = A[k][j][i+1] - 0.375 * A[k][j][i];
}
shift (out, in);
copyout out;
)");
  const auto dev = gpumodel::p100();
  KernelConfig cfg;
  cfg.block = {8, 8, 2};
  const auto plan =
      codegen::build_plan_for_call(prog, prog.steps[0].call, cfg, dev);

  GridSet bc = GridSet::from_program(prog, 4);
  GridSet nat = bc.clone();
  execute_plan(plan, bc);
  const char* old = std::getenv("PATH");
  const std::string saved = old != nullptr ? old : "";
  ::setenv("PATH", "/nonexistent", 1);
  ExecOptions no;
  no.engine = SimEngine::Native;
  const auto first = counters_of([&] { execute_plan(plan, nat, no); });
  ::setenv("PATH", saved.c_str(), 1);
  const auto second = counters_of([&] { execute_plan(plan, nat, no); });

  EXPECT_TRUE(grids_bit_identical(bc, nat));
  EXPECT_GT(counter(first, "sim.native.compile_failures"), 0);
  EXPECT_GT(counter(first, "sim.native_fallbacks"), 0);
  EXPECT_EQ(counter(second, "sim.native.compiles"), 0);
  EXPECT_GT(counter(second, "sim.native.compile_hits"), 0);
  EXPECT_GT(counter(second, "sim.native_fallbacks"), 0);
}

TEST(NativeEngine, CompileLeavesNoFilesBehind) {
  // The build directory, source, object and log are gone once the stage
  // is loaded; a fresh TMPDIR must be empty again after a compiling run.
  const auto dir = std::filesystem::temp_directory_path() /
                   str_cat("artemis-native-test-", ::getpid());
  std::filesystem::create_directories(dir);
  const char* old = std::getenv("TMPDIR");
  const std::string saved = old != nullptr ? old : "";
  ::setenv("TMPDIR", dir.c_str(), 1);
  const ir::Program prog = dsl::parse(R"(
parameter L=8, M=8, N=8;
iterator k, j, i;
double in[L,M,N], out[L,M,N];
copyin in;
stencil tidy (B, A) {
  B[k][j][i] = A[k][j][i] * 0.8125 + A[k][j-1][i];
}
tidy (out, in);
copyout out;
)");
  const auto dev = gpumodel::p100();
  KernelConfig cfg;
  cfg.block = {8, 8, 8};
  const auto plan =
      codegen::build_plan_for_call(prog, prog.steps[0].call, cfg, dev);
  GridSet gs = GridSet::from_program(prog, 6);
  ExecOptions no;
  no.engine = SimEngine::Native;
  const auto counters = counters_of([&] { execute_plan(plan, gs, no); });
  if (saved.empty()) {
    ::unsetenv("TMPDIR");
  } else {
    ::setenv("TMPDIR", saved.c_str(), 1);
  }
  EXPECT_EQ(counter(counters, "sim.native.compiles"), 1);
  EXPECT_TRUE(std::filesystem::is_empty(dir));
  std::filesystem::remove_all(dir);
}

// ---- engine plumbing -------------------------------------------------------

TEST(NativeEngine, EngineNamesRoundTrip) {
  EXPECT_EQ(engine_by_name("tree"), SimEngine::TreeWalk);
  EXPECT_EQ(engine_by_name("treewalk"), SimEngine::TreeWalk);
  EXPECT_EQ(engine_by_name("bytecode"), SimEngine::Bytecode);
  EXPECT_EQ(engine_by_name("native"), SimEngine::Native);
  for (const auto e :
       {SimEngine::TreeWalk, SimEngine::Bytecode, SimEngine::Native}) {
    EXPECT_EQ(engine_by_name(engine_name(e)), e);
  }
  EXPECT_THROW(engine_by_name("cuda"), Error);
}

TEST(NativeEngine, RefusedStageFallsBackAndStillMatches) {
  // A plan whose stage cannot lower must silently run on the bytecode
  // engine and stay bit-identical — the refusal is a performance event,
  // not a semantic one (observable via the sim.native_fallbacks counter).
  // The transposed pending-write read below is the pending-alias refusal.
  const ir::Program prog = dsl::parse(R"(
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
)");
  const auto dev = gpumodel::p100();
  KernelConfig cfg;
  cfg.block = {4, 4, 4};
  const auto plan =
      codegen::build_plan_for_call(prog, prog.steps[0].call, cfg, dev);

  telemetry::Collector::global().enable();
  telemetry::Collector::global().clear();
  GridSet bc = GridSet::from_program(prog, 17);
  GridSet nat = bc.clone();
  execute_plan(plan, bc);
  ExecOptions no;
  no.engine = SimEngine::Native;
  execute_plan(plan, nat, no);
  const auto counters = telemetry::Collector::global().counters();
  telemetry::Collector::global().disable();

  EXPECT_TRUE(grids_bit_identical(bc, nat));
  const auto it = counters.find("sim.native_fallbacks");
  ASSERT_NE(it, counters.end());
  EXPECT_GT(it->second, 0);
}

TEST(NativeEngine, CompileCacheDedupesIdenticalStages) {
  // Two executions of one plan compile the statement list once; the
  // second hits the content-addressed cache.
  const ir::Program prog = dsl::parse(artemis::testing::kJacobiDsl);
  const auto dev = gpumodel::p100();
  KernelConfig cfg;
  cfg.block = {8, 8, 8};
  const auto plan =
      codegen::build_plan_for_call(prog, prog.steps[0].call, cfg, dev);

  telemetry::Collector::global().enable();
  telemetry::Collector::global().clear();
  GridSet a = GridSet::from_program(prog, 2);
  GridSet b = GridSet::from_program(prog, 2);
  execute_plan(plan, a);
  execute_plan(plan, b);
  const auto counters = telemetry::Collector::global().counters();
  telemetry::Collector::global().disable();

  const auto hit = counters.find("sim.compile_hits");
  ASSERT_NE(hit, counters.end());
  EXPECT_GE(hit->second, 1);
}

// ---- fast-math -------------------------------------------------------------

TEST(NativeEngine, FastMathIsUlpBoundedAndJobsDeterministic) {
  const ir::Program prog = dsl::parse(artemis::testing::kJacobiDsl);
  KernelConfig cfg;
  cfg.block = {8, 4, 2};
  const auto oracle = verify::run_program_plans(
      prog, cfg, false, 31, SimEngine::Bytecode, 1, false);
  const auto fm1 = verify::run_program_plans(
      prog, cfg, false, 31, SimEngine::Native, 1, false,
      /*native_fast_math=*/true);
  EXPECT_EQ(verify::grids_ulp_diff(oracle.gs, fm1.gs, 64), "");
  EXPECT_EQ(verify::counters_diff(oracle.totals, fm1.totals), "");
  const auto fm4 = verify::run_program_plans(
      prog, cfg, false, 31, SimEngine::Native, 4, false,
      /*native_fast_math=*/true);
  EXPECT_TRUE(grids_bit_identical(fm1.gs, fm4.gs));
}

}  // namespace
}  // namespace artemis::sim
