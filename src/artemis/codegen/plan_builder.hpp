#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "artemis/codegen/plan.hpp"
#include "artemis/gpumodel/device.hpp"
#include "artemis/ir/analysis.hpp"

namespace artemis::codegen {

/// Knobs that select a code *version* rather than tuned parameters; the
/// paper's "global" / "global-stream" / "sh+reg" variants differ here.
struct BuildOptions {
  bool use_shared_memory = true;  ///< stage reusable arrays in shmem
  /// Treat stage outputs consumed by later stages as kernel-internal
  /// buffers (fused execution). Always true for multi-stage plans.
  bool fuse_internal = true;
};

/// The configuration-independent half of plan construction: everything
/// that follows from the program, the stage list and the BuildOptions
/// alone. Prepare it once per stage list, then instantiate it for each
/// candidate config with build_plan(const PlanTemplate&, ...).
struct PlanTemplate {
  /// A plan with every config-independent field resolved: merged
  /// analysis, radii, stage expansions and effective halos, the output
  /// domain, internal and materialized arrays, the default residency
  /// (user pins, then the naive heuristic) and the register pressure. Its
  /// config-dependent fields are left at their defaults.
  KernelPlan base;
  /// Syntactic reads + writes per array across all stages. The rationing
  /// loop demotes the least-accessed shared buffer first (Section II-B2:
  /// "choose a shared memory buffer with minimum number of accesses, and
  /// demote its storage to global memory").
  std::map<std::string, std::int64_t> accesses;

  /// Whether every stage retimes along program iterator `stream_iter`.
  bool retime_legal(int stream_iter) const;
  /// Foldable buffer groups over all stages' statements.
  const std::vector<std::vector<std::string>>& fold_groups() const;

  /// The two analyses above, each computed on first request and then
  /// memoized (thread-safe). Only configs that request retiming or
  /// folding need them, and they cost more than the rest of the template
  /// together.
  struct Lazy {
    std::array<std::once_flag, 3> retime_once;
    std::array<bool, 3> retime_ok = {false, false, false};
    std::once_flag fold_once;
    std::vector<std::vector<std::string>> fold_groups;
  };
  std::unique_ptr<Lazy> lazy = std::make_unique<Lazy>();
};

/// Merge per-stage analysis into combined info, halo radii and domain,
/// find the arrays internal to a fused plan, and resolve the default
/// residency: user `#assign` pins are honored verbatim, remaining arrays
/// follow the default heuristic (everything reusable into shared memory
/// when enabled — deliberately naive, the profiler and the expert
/// override refine it). Throws PlanError when the stages write no array.
PlanTemplate prepare_plan(const ir::Program& prog,
                          std::vector<ir::BoundStencil> stages,
                          const BuildOptions& opts = {});

/// Instantiate a template for one config (Sections II-B, III, VI):
///  - check the launch against the device;
///  - apply storage folding and retiming when requested and legal;
///  - compute shared memory per block and run the resource-rationing loop:
///    while the target occupancy (or device capacity) is not achievable,
///    demote the shared array with the fewest accesses to global memory.
///
/// Throws PlanError for launches the device can never run (block too big,
/// zero-sized tiles). Safe to call concurrently on one template.
KernelPlan build_plan(const PlanTemplate& tmpl, const KernelConfig& config,
                      const gpumodel::DeviceSpec& dev);

/// Construct a fully-resolved KernelPlan for a (possibly fused) sequence
/// of bound stencils: prepare_plan followed by one instantiation.
KernelPlan build_plan(const ir::Program& prog,
                      std::vector<ir::BoundStencil> stages,
                      const KernelConfig& config,
                      const gpumodel::DeviceSpec& dev,
                      const BuildOptions& opts = {});

/// Convenience: plan a single call step of `prog` (no fusion).
KernelPlan build_plan_for_call(const ir::Program& prog,
                               const ir::StencilCall& call,
                               const KernelConfig& config,
                               const gpumodel::DeviceSpec& dev,
                               const BuildOptions& opts = {});

/// Derive an initial KernelConfig from the stencil's `#pragma` guidance
/// (stream dimension, block size, unroll factors, occupancy target),
/// falling back to the paper's baseline defaults.
KernelConfig config_from_pragma(const ir::Program& prog,
                                const ir::PragmaInfo& pragma, int dims);

}  // namespace artemis::codegen
