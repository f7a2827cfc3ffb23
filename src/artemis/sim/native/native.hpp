#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "artemis/sim/bytecode.hpp"

namespace artemis::sim::native {

/// --- native compiled interior -----------------------------------------------
///
/// The bytecode engine interprets every interior point through a switch
/// loop and a value stack. This engine lowers a CompiledStencil once into
/// a register program — virtual registers instead of the stack, same-point
/// forwarding resolved statically, repeated loads CSE'd — emits it as one
/// C function per stage (emit.cpp), builds that with the host C compiler
/// and keeps the loaded object in a content-addressed cache (jit.cpp). The
/// function sweeps guard-free interior boxes 8 points at a time along x.
///
/// The boundary rim, hooked runs, refused stages and stages that fail to
/// build stay on the bytecode engine, the semantics oracle. Strict mode
/// (the default) is bit-identical to it in grids, counters and
/// counting-mode traces (docs/CORRECTNESS.md lists the emitter's rules);
/// fast-math mode fuses mul+add/sub into fma() calls, deterministic but
/// only ULP-bounded against the oracle.

/// Register-program opcodes. Load pulls through loads[aux]; everything
/// else is regs[dst] = op(regs[a], regs[b], regs[c]).
enum class NOp : std::uint8_t {
  Load,
  Neg,
  Fabs,
  Sqrt,
  Exp,
  Log,
  Add,
  Sub,
  Mul,
  Div,
  Min,
  Max,
  Pow,
  Fmadd,   ///< dst = fma(a, b, c) — fast-math only
  Fmsub,   ///< dst = fma(a, b, -c) — fast-math only
  Fnmadd,  ///< dst = fma(-a, b, c) — fast-math only
};

struct NInstr {
  NOp op = NOp::Add;
  std::uint16_t dst = 0;
  std::uint16_t a = 0;
  std::uint16_t b = 0;
  std::uint16_t c = 0;
  std::int32_t aux = 0;  ///< loads[] index for NOp::Load
};

/// One lowered access: BcAccess with the scratch flag resolved.
struct NAccess {
  std::int32_t view = 0;
  std::array<std::uint8_t, 3> sel = {3, 3, 3};
  std::array<std::int64_t, 3> off = {0, 0, 0};
  bool scratch = false;
};

struct NStore {
  NAccess acc;
  std::uint16_t src = 0;  ///< register holding the stored value
};

/// The lowered form of one CompiledStencil. Immutable after lowering;
/// safe to share between threads.
struct LinearProgram {
  int dims = 3;
  int n_regs = 0;

  /// Set once per box: regs[const_reg[i]] = setup_consts[i],
  /// regs[scalar_reg[i]] = scalars[setup_scalars[i]].
  std::vector<double> setup_consts;
  std::vector<std::uint16_t> const_reg;
  std::vector<std::int32_t> setup_scalars;
  std::vector<std::uint16_t> scalar_reg;

  std::vector<NInstr> body;
  std::vector<NAccess> loads;
  std::vector<NStore> stores;

  /// Counting-mode replay: loads[] indices of every external memory read
  /// one point performs, in bytecode execution order (CSE'd loads appear
  /// once per original read). External stores replay from stores[] in
  /// statement order, after all reads — exactly the bytecode's commit
  /// loop.
  std::vector<std::int32_t> replay_reads;

  /// Static per-point element counts (interior points never veto and
  /// pending-write forwarding is resolved at lowering time, so these are
  /// exact): counters for a box are these times its volume, plus the
  /// per-store committed volume for gwrites.
  std::int64_t greads_pp = 0;
  std::int64_t sreads_pp = 0;
  std::int64_t swrites_pp = 0;
  std::int64_t flops_per_point = 0;
};

/// Lowering outcome. !ok carries the refusal reason; the caller falls
/// back to the bytecode engine for the whole stage.
struct LowerResult {
  bool ok = false;
  std::string reason;
  LinearProgram prog;
};

/// Lower a compiled stencil. `is_scratch[slot]` marks plan-internal array
/// slots (block-local scratch at execution time). Refuses — never
/// miscompiles — whatever analyze_forwarding (forwarding.hpp) refuses
/// with scratch as the in-place slots (globals arrive snapshotted unless
/// every access is the canonical center), and stores that do not
/// address every iterator. All canonical-index paper kernels lower.
LowerResult lower_stencil(const CompiledStencil& cs,
                          const std::vector<std::uint8_t>& is_scratch,
                          bool fast_math);

/// Host SIMD instruction sets, widest last. The compiled interior is built
/// with -march=native, so this only reports what the host offers.
enum class Tier { Scalar, Avx2, Avx512 };

const char* tier_name(Tier tier);

/// The host's widest tier, cpuid-detected once per process.
Tier active_tier();

/// Entry point of one compiled stage: execute the lowered program over
/// every point of `box` (all points interior: in-bounds by construction,
/// no veto possible). `views` and `scalars` are the tables
/// run_compiled_region binds. `box` is {lo z, y, x, hi z, y, x}, and
/// `ranges` holds one such box per store: the points whose write
/// commits. Scratch stores always land and set their written flags.
extern "C" {
typedef void (*RunBoxFn)(const ArrayView* views, const double* scalars,
                         const std::int64_t* box,
                         const std::int64_t* ranges);
}

/// C source of one stage's interior, entry point `artemis_stage`. A pure
/// function of the program (and of ArrayView's layout): the compile
/// cache is keyed by it.
std::string emit_stage_source(const LinearProgram& lp);

/// The host compiler invocation, minus output and input names: `cc` found
/// on PATH, then the flags. Part of every cache key.
const std::vector<std::string>& compiler_command();

/// A loaded stage: the shared object (unloaded when the last copy drops)
/// and its entry point, null when the build failed.
struct CompiledStage {
  std::shared_ptr<void> object;
  RunBoxFn fn = nullptr;

  /// Run `lp` (the program this stage was compiled from) over `box`.
  void run_box(const LinearProgram& lp, const ArrayView* views,
               const double* scalars, const BcRegion& box,
               const BcRegion& commit, bool drop_outside_commit) const;
};

/// What compile_stage produced: a stage, or why there is none.
struct StageBuild {
  CompiledStage stage;
  std::string error;
};

/// The compiled form of `lp`, from the process-wide cache or built on
/// first use: emit, run the host compiler in a private temporary
/// directory, dlopen, delete the files. Each distinct source compiles
/// once, even when many threads ask at the same time; failures (no
/// compiler, a compile error, the "sim.native.compile" fault point) come
/// back as an error for the caller to fall back on. Counts
/// sim.native.compiles, sim.native.compile_hits and
/// sim.native.compile_failures.
StageBuild compile_stage(const LinearProgram& lp);

/// Counting-mode bookkeeping for a native-executed interior box: the O(1)
/// analytic form of what per-point bytecode counting would accumulate.
void add_interior_counters(const LinearProgram& lp, const BcRegion& box,
                           const BcRegion& commit, bool drop_outside_commit,
                           BcCounters& c);

/// Execute one stage over `region` with run_compiled_region's full
/// contract — identical grids, counters, and (when `trace` is non-null)
/// counting-mode line streams — using the compiled stage for the
/// guard-free interior and the bytecode engine for the boundary rim.
/// `stage` must be the compiled form of `lp`, the successful lowering of
/// `cs`.
void run_native_region(const LinearProgram& lp, const CompiledStage& stage,
                       const CompiledStencil& cs,
                       const std::vector<ArrayView>& views,
                       const double* scalars, const BcRegion& region,
                       const BcRegion& commit, bool drop_outside_commit,
                       BcCounters& counters, StageTrace* trace);

}  // namespace artemis::sim::native
