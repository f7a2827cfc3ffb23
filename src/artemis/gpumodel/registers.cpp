#include "artemis/gpumodel/registers.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "artemis/common/check.hpp"

namespace artemis::gpumodel {

namespace {

/// Shared per-point terms: locals + operand + scheduling pressure.
void per_point_terms(const ir::StmtPressure& p, RegisterEstimate& est) {
  est.locals = static_cast<int>(std::min<std::int64_t>(p.locals, 96));
  est.operands = static_cast<int>(
      std::min<std::int64_t>((p.widest_reads + 1) / 2, 48));
  est.scheduling = static_cast<int>(std::min<std::int64_t>(p.flops / 8, 320));
}

}  // namespace

int estimate_registers_for_stmts(const std::vector<ir::Stmt>& stmts) {
  RegisterEstimate est;
  est.base = 20;
  per_point_terms(ir::stmt_pressure({&stmts}), est);
  return est.base + est.locals + est.operands + est.scheduling;
}

RegisterEstimate estimate_registers(const codegen::KernelPlan& plan) {
  using codegen::TilingScheme;
  using codegen::UnrollStrategy;

  RegisterEstimate est;
  est.base = 20;

  // Live scalar temporaries: all locals may be live simultaneously in the
  // worst case (SW4-style kernels compute dozens of mu/la combinations
  // before the accumulation statements consume them). The statement
  // shape is fixed by the stage list, so the plan builder measures it
  // once per plan template.
  per_point_terms(plan.pressure, est);

  const bool streaming = plan.config.tiling != TilingScheme::Spatial3D;
  const std::int64_t uprod = plan.config.unroll_product();
  const std::int64_t u_xy =
      static_cast<std::int64_t>(plan.config.unroll[0]) *
      plan.config.unroll[1];

  if (streaming && plan.dims == 3) {
    if (plan.retimed) {
      // Retiming replaces input register planes with per-output
      // accumulators spanning the stream window (Section III-B2).
      const int rz = plan.radius[2];
      est.accumulators = static_cast<int>(
          static_cast<std::int64_t>(plan.info.outputs.size()) *
          (2 * rz + 1) * u_xy);
    } else {
      // One register per +/- stream plane per streamed shared array
      // (Listing 2's in_reg_m1 / in_reg_p1), per unrolled output column.
      std::set<int> counted_groups;
      for (const auto& [name, pl] : plan.placement) {
        if (pl.space != ir::MemSpace::Shared && pl.space != ir::MemSpace::Reg) continue;
        if (pl.fold_group >= 0) {
          if (counted_groups.count(pl.fold_group)) continue;
          counted_groups.insert(pl.fold_group);
        }
        // Streaming pipelines fused stages, so each array needs register
        // planes only for its own sweep radius.
        const auto it = plan.info.arrays.find(name);
        const int rz =
            it != plan.info.arrays.end() ? it->second.radius[0] : 0;
        est.stream_planes += static_cast<int>(2 * rz * u_xy);
      }
    }
    if (plan.config.prefetch) {
      int shared_arrays = 0;
      for (const auto& [name, pl] : plan.placement) {
        if (pl.space == ir::MemSpace::Shared) ++shared_arrays;
      }
      est.prefetch = static_cast<int>(shared_arrays * u_xy);
    }
  }

  // Folding removes one live operand per folded-away buffer.
  for (const auto& group : plan.fold_groups) {
    est.fold_savings += static_cast<int>(group.size()) - 1;
  }

  // Unrolling multiplies the per-point working set. Blocked distribution
  // shares overlapping neighbor loads between adjacent outputs; cyclic
  // keeps fully disjoint working sets.
  est.unroll_scale =
      plan.config.unroll_strategy == UnrollStrategy::Blocked
          ? 1.0 + 0.55 * static_cast<double>(uprod - 1)
          : static_cast<double>(uprod);

  const double per_point =
      static_cast<double>(est.locals + est.operands + est.scheduling -
                          est.fold_savings);
  double total = est.base + per_point * est.unroll_scale +
                 est.stream_planes + est.accumulators + est.prefetch;
  total = std::clamp(total, 16.0, 1024.0);
  est.total = static_cast<int>(std::lround(total));
  return est;
}

}  // namespace artemis::gpumodel
