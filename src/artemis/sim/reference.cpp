#include "artemis/sim/reference.hpp"

#include "artemis/common/check.hpp"
#include "artemis/common/parallel.hpp"
#include "artemis/sim/bytecode.hpp"

namespace artemis::sim {

void run_stencil_reference(const ir::Program& prog,
                           const ir::BoundStencil& bound, GridSet& gs) {
  const ir::StencilInfo info = ir::analyze(prog, bound);
  const int dims = static_cast<int>(prog.iterators.size());

  // Snapshot arrays whose reads could observe another point's write
  // (kernel semantics: every point sees pre-kernel values); arrays read
  // and written only at the canonical center skip the copy.
  std::map<std::string, Grid3D> snapshots;
  for (const auto& [name, ai] : info.arrays) {
    if (needs_snapshot(ai, dims)) {
      snapshots.emplace(name, gs.grid(name));
    }
  }

  ARTEMIS_CHECK_MSG(!info.outputs.empty(),
                    "stencil '" << bound.name << "' writes nothing");
  const Extents dom = gs.grid(info.outputs.front()).extents();
  for (const auto& out : info.outputs) {
    ARTEMIS_CHECK_MSG(gs.grid(out).extents() == dom,
                      "outputs of '" << bound.name
                                     << "' have mismatched extents");
  }

  // Slot-resolve every name once per run: the statement list compiles to
  // bytecode against dense array/scalar tables instead of rebuilding
  // string-keyed maps at every point.
  SlotMap arrays;
  for (const auto& [name, ai] : info.arrays) arrays.add(name);
  SlotMap scalar_slots;
  std::vector<double> scalar_vals;
  for (const auto& name : info.scalars_read) {
    scalar_slots.add(name);
    scalar_vals.push_back(gs.scalar(name));
  }
  const CompiledStencil cs =
      compile_stmts(bound.stmts, dims, arrays, scalar_slots);

  std::vector<ArrayView> views(static_cast<std::size_t>(arrays.size()));
  for (int slot = 0; slot < arrays.size(); ++slot) {
    const std::string& name = arrays.name(slot);
    ArrayView& v = views[static_cast<std::size_t>(slot)];
    v.name = &arrays.name(slot);
    Grid3D& g = gs.grid(name);
    const Extents e = g.extents();
    v.ez = e.z;
    v.ey = e.y;
    v.ex = e.x;
    v.wz = e.z;
    v.wy = e.y;
    v.wx = e.x;
    v.write = g.data();
    const auto snap = snapshots.find(name);
    v.read = snap != snapshots.end() ? snap->second.data() : g.data();
  }

  // Parallelize over the outermost axis: points are independent
  // (snapshotted reads) and every write targets a distinct coordinate.
  parallel_for(dom.z, [&](std::int64_t z) {
    BcRegion slab;
    slab.lo = {z, 0, 0};
    slab.hi = {z + 1, dom.y, dom.x};
    BcCounters c;  // the reference reports no counters
    run_compiled_region(cs, views, scalar_vals.data(), slab, BcRegion{},
                        /*drop_outside_commit=*/false, c);
  });
}

void run_program_reference(const ir::Program& prog, GridSet& gs) {
  for (const auto& step : ir::flatten_steps(prog)) {
    switch (step.kind) {
      case ir::ExecStep::Kind::Stencil:
        run_stencil_reference(prog, step.stencil, gs);
        break;
      case ir::ExecStep::Kind::Swap:
        gs.swap(step.swap.a, step.swap.b);
        break;
    }
  }
}

}  // namespace artemis::sim
