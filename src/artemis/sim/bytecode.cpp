#include "artemis/sim/bytecode.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <set>

#include "artemis/common/check.hpp"
#include "artemis/common/str.hpp"
#include "artemis/sim/forwarding.hpp"

namespace artemis::sim {

int SlotMap::add(const std::string& name) {
  const auto [it, inserted] =
      index_.try_emplace(name, static_cast<int>(names_.size()));
  if (inserted) names_.push_back(name);
  return it->second;
}

int SlotMap::slot(const std::string& name) const {
  const auto it = index_.find(name);
  return it == index_.end() ? -1 : it->second;
}

const std::string& SlotMap::name(int slot) const {
  return names_.at(static_cast<std::size_t>(slot));
}

namespace {

/// Emission state: tracks stack depth, declared locals (with positional
/// shadowing of program scalars, exactly like the tree walk's locals map),
/// and which arrays already have a pending store.
struct Emitter {
  CompiledStencil out;
  const SlotMap* arrays = nullptr;
  const SlotMap* scalars = nullptr;
  std::map<std::string, int> local_slots;  ///< declared so far
  std::set<std::int32_t> stored_arrays;    ///< arrays with an earlier Store
  int depth = 0;

  void emit(BcOp op, std::int32_t a = 0) {
    out.code.push_back({op, a});
    switch (op) {
      case BcOp::PushConst:
      case BcOp::PushScalar:
      case BcOp::PushLocal:
      case BcOp::Load:
        ++depth;
        break;
      case BcOp::Add:
      case BcOp::Sub:
      case BcOp::Mul:
      case BcOp::Div:
      case BcOp::Min:
      case BcOp::Max:
      case BcOp::Pow:
      case BcOp::StoreLocal:
      case BcOp::Store:
      case BcOp::StoreAccum:
        --depth;
        break;
      default:
        break;  // unary: depth unchanged
    }
    out.max_stack = std::max(out.max_stack, depth);
    // ir::flop_count's convention: one FLOP per Unary/Binary/Call node
    // plus one per `+=` read-through accumulate.
    switch (op) {
      case BcOp::Neg:
      case BcOp::Add:
      case BcOp::Sub:
      case BcOp::Mul:
      case BcOp::Div:
      case BcOp::Sqrt:
      case BcOp::Fabs:
      case BcOp::Exp:
      case BcOp::Log:
      case BcOp::Min:
      case BcOp::Max:
      case BcOp::Pow:
      case BcOp::StoreAccum:
        ++out.flops_per_point;
        break;
      default:
        break;
    }
  }

  std::int32_t make_access(const std::string& array,
                           const std::vector<ir::IndexExpr>& indices) {
    const int slot = arrays->slot(array);
    ARTEMIS_CHECK_MSG(slot >= 0, "unbound array '" << array << "'");
    const std::size_t nd = indices.size();
    ARTEMIS_CHECK(nd >= 1 && nd <= 3);
    BcAccess a;
    a.array = slot;
    for (std::size_t d = 0; d < nd; ++d) {
      const auto& ix = indices[d];
      const std::size_t zyx = 3 - nd + d;  // trailing-axis mapping
      a.off[zyx] = ix.offset;
      if (!ix.is_const()) {
        ARTEMIS_CHECK(ix.iter >= 0 && ix.iter < out.dims);
        // Iterator i (outermost first) drives point coordinate
        // {z,y,x}[3 - dims + i].
        a.sel[zyx] = static_cast<std::uint8_t>(3 - out.dims + ix.iter);
      }
    }
    a.scan_pending = stored_arrays.count(slot) > 0;
    out.accesses.push_back(a);
    return static_cast<std::int32_t>(out.accesses.size() - 1);
  }

  void emit_expr(const ir::Expr& e) {
    using ir::ExprKind;
    switch (e.kind) {
      case ExprKind::Number: {
        out.consts.push_back(e.number);
        emit(BcOp::PushConst,
             static_cast<std::int32_t>(out.consts.size() - 1));
        return;
      }
      case ExprKind::ScalarRef: {
        if (const auto it = local_slots.find(e.name);
            it != local_slots.end()) {
          emit(BcOp::PushLocal, it->second);
          return;
        }
        const int slot = scalars->slot(e.name);
        ARTEMIS_CHECK_MSG(slot >= 0, "unbound scalar '" << e.name << "'");
        emit(BcOp::PushScalar, slot);
        return;
      }
      case ExprKind::ArrayRef:
        emit(BcOp::Load, make_access(e.name, e.indices));
        return;
      case ExprKind::Unary:
        emit_expr(*e.args[0]);
        emit(BcOp::Neg);
        return;
      case ExprKind::Binary:
        emit_expr(*e.args[0]);
        emit_expr(*e.args[1]);
        switch (e.bop) {
          case ir::BinOp::Add: emit(BcOp::Add); return;
          case ir::BinOp::Sub: emit(BcOp::Sub); return;
          case ir::BinOp::Mul: emit(BcOp::Mul); return;
          case ir::BinOp::Div: emit(BcOp::Div); return;
        }
        return;
      case ExprKind::Call: {
        for (const auto& a : e.args) emit_expr(*a);
        const auto unary = [&](BcOp op) {
          ARTEMIS_CHECK_MSG(e.args.size() == 1,
                            "intrinsic '" << e.name << "' takes 1 argument");
          emit(op);
        };
        const auto binary = [&](BcOp op) {
          ARTEMIS_CHECK_MSG(e.args.size() == 2,
                            "intrinsic '" << e.name << "' takes 2 arguments");
          emit(op);
        };
        if (e.name == "sqrt") return unary(BcOp::Sqrt);
        if (e.name == "fabs") return unary(BcOp::Fabs);
        if (e.name == "exp") return unary(BcOp::Exp);
        if (e.name == "log") return unary(BcOp::Log);
        if (e.name == "min") return binary(BcOp::Min);
        if (e.name == "max") return binary(BcOp::Max);
        if (e.name == "pow") return binary(BcOp::Pow);
        throw Error(str_cat("unknown intrinsic '", e.name, "'"));
      }
    }
  }
};

}  // namespace

CompiledStencil compile_stmts(const std::vector<ir::Stmt>& stmts, int dims,
                              const SlotMap& arrays, const SlotMap& scalars) {
  ARTEMIS_CHECK(dims >= 1 && dims <= 3);
  Emitter em;
  em.out.dims = dims;
  em.arrays = &arrays;
  em.scalars = &scalars;

  for (const auto& st : stmts) {
    em.emit_expr(*st.rhs);
    if (st.declares_local) {
      const auto [it, inserted] =
          em.local_slots.try_emplace(st.lhs_name, em.out.n_locals);
      if (inserted) ++em.out.n_locals;
      em.emit(BcOp::StoreLocal, it->second);
      continue;
    }
    const std::int32_t access = em.make_access(st.lhs_name, st.lhs_indices);
    em.emit(st.accumulate ? BcOp::StoreAccum : BcOp::Store, access);
    em.stored_arrays.insert(em.out.accesses[static_cast<std::size_t>(access)]
                                .array);
    ++em.out.n_stores;
  }
  ARTEMIS_CHECK(em.depth == 0);
  return em.out;
}

namespace {

struct PendingWrite {
  std::int32_t array;
  std::int64_t z, y, x;
  double v;
};

/// Per-sweep mutable state, reused across points (no per-point allocation).
struct ExecScratch {
  std::vector<double> stack;
  std::vector<double> locals;
  std::vector<PendingWrite> pending;

  explicit ExecScratch(const CompiledStencil& cs)
      : stack(static_cast<std::size_t>(std::max(1, cs.max_stack))),
        locals(static_cast<std::size_t>(std::max(1, cs.n_locals))),
        pending(static_cast<std::size_t>(std::max(1, cs.n_stores))) {}
};

inline std::size_t view_index(const ArrayView& v, std::int64_t z,
                              std::int64_t y, std::int64_t x) {
  return static_cast<std::size_t>(
      ((z - v.lo_z) * v.wy + (y - v.lo_y)) * v.wx + (x - v.lo_x));
}

inline bool in_window(const ArrayView& v, std::int64_t z, std::int64_t y,
                      std::int64_t x) {
  return z >= v.lo_z && z < v.lo_z + v.wz && y >= v.lo_y &&
         y < v.lo_y + v.wy && x >= v.lo_x && x < v.lo_x + v.wx;
}

inline bool in_box(const BcRegion& b, std::int64_t z, std::int64_t y,
                   std::int64_t x) {
  return z >= b.lo[0] && z < b.hi[0] && y >= b.lo[1] && y < b.hi[1] &&
         x >= b.lo[2] && x < b.hi[2];
}

/// Apply the compiled statement list at one point. Returns false when the
/// point is vetoed by an out-of-bounds read (nothing is written, exactly
/// like apply_stmts_at_point). kChecked=false is the interior fast path:
/// bounds are provably satisfied, so guards compile away; counters are
/// still maintained per element because pending-buffer hits (which do not
/// count as reads) are data-dependent.
template <bool kChecked, bool kHooked, bool kCounted = false>
bool exec_point(const CompiledStencil& cs, const ArrayView* views,
                const double* scalars, ExecScratch& st, std::int64_t z,
                std::int64_t y, std::int64_t x, const BcRegion& commit,
                bool drop_outside_commit, BcCounters& c,
                const GlobalAccessHook* hook, StageTrace* trace = nullptr) {
  double* sp = st.stack.data();
  double* locals = st.locals.data();
  PendingWrite* pending = st.pending.data();
  int n_pending = 0;
  const std::int64_t base[4] = {z, y, x, 0};
  const double* consts = cs.consts.data();
  const BcAccess* accesses = cs.accesses.data();

  // Read one element through the pending-write buffer; false = veto.
  const auto read_at = [&](const BcAccess& a, double& value) -> bool {
    const std::int64_t cz = base[a.sel[0]] + a.off[0];
    const std::int64_t cy = base[a.sel[1]] + a.off[1];
    const std::int64_t cx = base[a.sel[2]] + a.off[2];
    if (a.scan_pending) {
      for (int p = n_pending - 1; p >= 0; --p) {
        const PendingWrite& w = pending[p];
        if (w.array == a.array && w.z == cz && w.y == cy && w.x == cx) {
          value = w.v;
          return true;
        }
      }
    }
    const ArrayView& v = views[a.array];
    if constexpr (kChecked) {
      if (cz < 0 || cz >= v.ez || cy < 0 || cy >= v.ey || cx < 0 ||
          cx >= v.ex) {
        return false;  // vetoes the point; not counted, not hooked
      }
      if (v.scratch) {
        ARTEMIS_CHECK_MSG(in_window(v, cz, cy, cx),
                          "internal read of '"
                              << *v.name << "' at (" << cz << "," << cy << ","
                              << cx
                              << ") escapes its scratch region: plan halo "
                                 "geometry is wrong");
      }
    }
    const std::size_t idx = view_index(v, cz, cy, cx);
    value = v.read[idx];
    if (v.scratch) {
      ++c.sreads;
    } else {
      ++c.greads;
      if constexpr (kHooked) (*hook)(*v.name, cz, cy, cx, false);
      if constexpr (kCounted) {
        trace->record(v.elem_base + idx * sizeof(double), /*is_write=*/false);
      }
    }
    return true;
  };

  for (const BcInstr& ins : cs.code) {
    switch (ins.op) {
      case BcOp::PushConst:
        *sp++ = consts[ins.a];
        break;
      case BcOp::PushScalar:
        *sp++ = scalars[ins.a];
        break;
      case BcOp::PushLocal:
        *sp++ = locals[ins.a];
        break;
      case BcOp::Load: {
        double v;
        if (!read_at(accesses[ins.a], v)) return false;
        *sp++ = v;
        break;
      }
      case BcOp::Neg:
        sp[-1] = -sp[-1];
        break;
      case BcOp::Add:
        sp[-2] = sp[-2] + sp[-1];
        --sp;
        break;
      case BcOp::Sub:
        sp[-2] = sp[-2] - sp[-1];
        --sp;
        break;
      case BcOp::Mul:
        sp[-2] = sp[-2] * sp[-1];
        --sp;
        break;
      case BcOp::Div:
        sp[-2] = sp[-2] / sp[-1];
        --sp;
        break;
      case BcOp::Sqrt:
        sp[-1] = std::sqrt(sp[-1]);
        break;
      case BcOp::Fabs:
        sp[-1] = std::fabs(sp[-1]);
        break;
      case BcOp::Exp:
        sp[-1] = std::exp(sp[-1]);
        break;
      case BcOp::Log:
        sp[-1] = std::log(sp[-1]);
        break;
      case BcOp::Min:
        sp[-2] = std::min(sp[-2], sp[-1]);
        --sp;
        break;
      case BcOp::Max:
        sp[-2] = std::max(sp[-2], sp[-1]);
        --sp;
        break;
      case BcOp::Pow:
        sp[-2] = std::pow(sp[-2], sp[-1]);
        --sp;
        break;
      case BcOp::StoreLocal:
        locals[ins.a] = *--sp;
        break;
      case BcOp::Store: {
        const BcAccess& a = accesses[ins.a];
        pending[n_pending++] = {a.array, base[a.sel[0]] + a.off[0],
                                base[a.sel[1]] + a.off[1],
                                base[a.sel[2]] + a.off[2], *--sp};
        break;
      }
      case BcOp::StoreAccum: {
        const BcAccess& a = accesses[ins.a];
        double cur;
        if (!read_at(a, cur)) return false;
        pending[n_pending++] = {a.array, base[a.sel[0]] + a.off[0],
                                base[a.sel[1]] + a.off[1],
                                base[a.sel[2]] + a.off[2], *--sp + cur};
        break;
      }
    }
  }

  // Atomic buffered commit: every read was in bounds, so all writes land,
  // in statement order.
  for (int p = 0; p < n_pending; ++p) {
    const PendingWrite& w = pending[p];
    const ArrayView& v = views[w.array];
    if (v.scratch) {
      if constexpr (kChecked) {
        ARTEMIS_CHECK_MSG(in_window(v, w.z, w.y, w.x),
                          "internal write of '" << *v.name
                                                << "' escapes scratch");
      }
      const std::size_t i = view_index(v, w.z, w.y, w.x);
      v.write[i] = w.v;
      v.written[i] = 1;
      ++c.swrites;
      continue;
    }
    if (drop_outside_commit && !in_box(commit, w.z, w.y, w.x)) continue;
    // Committed external writes are always window-checked (Grid3D::at does
    // the same); stores are few per point, so this stays off the hot reads.
    ARTEMIS_CHECK_MSG(in_window(v, w.z, w.y, w.x),
                      "grid access (" << w.z << "," << w.y << "," << w.x
                                      << ") out of bounds");
    const std::size_t i = view_index(v, w.z, w.y, w.x);
    v.write[i] = w.v;
    ++c.gwrites;
    if constexpr (kHooked) (*hook)(*v.name, w.z, w.y, w.x, true);
    if constexpr (kCounted) {
      trace->record(v.elem_base + i * sizeof(double), /*is_write=*/true);
    }
  }
  return true;
}

/// Per-sweep state of the row-batched interior: one kRow-wide column per
/// stack slot (plus one for StoreAccum's read), local slot and store slot,
/// and each access's flat-index stride along x under the sweep's views.
struct RowScratch {
  std::vector<double> stack;
  std::vector<double> locals;
  std::vector<double> stores;
  std::vector<std::int64_t> x_stride;       ///< per access
  std::vector<const BcAccess*> store_acc;   ///< per store ordinal
  std::int64_t greads_pp = 0;               ///< memory reads per point
  std::int64_t sreads_pp = 0;

  RowScratch(const CompiledStencil& cs, const Forwarding& fwd,
             const ArrayView* views)
      : stack(static_cast<std::size_t>((cs.max_stack + 1) * kRow)),
        locals(static_cast<std::size_t>(std::max(1, cs.n_locals) * kRow)),
        stores(static_cast<std::size_t>(std::max(1, cs.n_stores) * kRow)) {
    for (const BcAccess& a : cs.accesses) {
      const ArrayView& v = views[a.array];
      const std::int64_t per_dim[3] = {v.wy * v.wx, v.wx, 1};
      std::int64_t stride = 0;
      for (std::size_t d = 0; d < 3; ++d) {
        if (a.sel[d] == 2) stride += per_dim[d];
      }
      x_stride.push_back(stride);
    }
    for (std::size_t pc = 0; pc < cs.code.size(); ++pc) {
      const BcInstr& ins = cs.code[pc];
      if (ins.op == BcOp::Store || ins.op == BcOp::StoreAccum) {
        store_acc.push_back(&cs.accesses[static_cast<std::size_t>(ins.a)]);
      }
      if ((ins.op == BcOp::Load || ins.op == BcOp::StoreAccum) &&
          fwd.source[pc] < 0) {
        ++(views[cs.accesses[static_cast<std::size_t>(ins.a)].array].scratch
               ? sreads_pp
               : greads_pp);
      }
    }
  }
};

/// Execute points [x0, x0 + n) of interior row (z, y), n <= kRow, one
/// instruction at a time over a column of values. Same-point forwarding
/// was resolved statically (`fwd`), so every read either copies a store
/// column or streams memory at a fixed x stride. Stores then commit per
/// point in statement order, exactly exec_point's commit loop, so the
/// last-writer order, the window check and the scratch flags are those of
/// the per-point engine. Results are bit-identical to exec_point: each
/// lane performs the same IEEE operations in the same order.
void exec_row(const CompiledStencil& cs, const Forwarding& fwd,
              const ArrayView* views, const double* scalars, RowScratch& rs,
              std::int64_t z, std::int64_t y, std::int64_t x0, std::int64_t n,
              const BcRegion& commit, bool drop_outside_commit,
              BcCounters& c) {
  double* sp = rs.stack.data();  // next free column
  double* const locals = rs.locals.data();
  double* const stores = rs.stores.data();
  std::int32_t n_stored = 0;
  const std::int64_t base[4] = {z, y, x0, 0};

  // Column of the value accesses[ai] reads at the row's points: a store
  // column when forwarded, else memory at the access's x stride.
  const auto read_col = [&](std::size_t pc, std::int32_t ai, double* out) {
    if (const std::int32_t s = fwd.source[pc]; s >= 0) {
      std::copy_n(stores + s * kRow, n, out);
      return;
    }
    const BcAccess& a = cs.accesses[static_cast<std::size_t>(ai)];
    const ArrayView& v = views[a.array];
    const double* src =
        v.read + view_index(v, base[a.sel[0]] + a.off[0],
                            base[a.sel[1]] + a.off[1],
                            base[a.sel[2]] + a.off[2]);
    const std::int64_t stride = rs.x_stride[static_cast<std::size_t>(ai)];
    if (stride == 1) {
      std::copy_n(src, n, out);
    } else {
      for (std::int64_t k = 0; k < n; ++k) out[k] = src[k * stride];
    }
  };
  const auto fill = [&](double v) {
    std::fill_n(sp, n, v);
    sp += kRow;
  };
  const auto unary = [&](auto op) {
    double* __restrict a = sp - kRow;
    for (std::int64_t k = 0; k < n; ++k) a[k] = op(a[k]);
  };
  const auto binary = [&](auto op) {
    double* __restrict a = sp - 2 * kRow;
    const double* __restrict b = sp - kRow;
    for (std::int64_t k = 0; k < n; ++k) a[k] = op(a[k], b[k]);
    sp -= kRow;
  };

  for (std::size_t pc = 0; pc < cs.code.size(); ++pc) {
    const BcInstr& ins = cs.code[pc];
    switch (ins.op) {
      case BcOp::PushConst:
        fill(cs.consts[static_cast<std::size_t>(ins.a)]);
        break;
      case BcOp::PushScalar:
        fill(scalars[ins.a]);
        break;
      case BcOp::PushLocal:
        std::copy_n(locals + ins.a * kRow, n, sp);
        sp += kRow;
        break;
      case BcOp::Load:
        read_col(pc, ins.a, sp);
        sp += kRow;
        break;
      case BcOp::Neg:
        unary([](double a) { return -a; });
        break;
      case BcOp::Add:
        binary([](double a, double b) { return a + b; });
        break;
      case BcOp::Sub:
        binary([](double a, double b) { return a - b; });
        break;
      case BcOp::Mul:
        binary([](double a, double b) { return a * b; });
        break;
      case BcOp::Div:
        binary([](double a, double b) { return a / b; });
        break;
      case BcOp::Sqrt:
        unary([](double a) { return std::sqrt(a); });
        break;
      case BcOp::Fabs:
        unary([](double a) { return std::fabs(a); });
        break;
      case BcOp::Exp:
        unary([](double a) { return std::exp(a); });
        break;
      case BcOp::Log:
        unary([](double a) { return std::log(a); });
        break;
      case BcOp::Min:
        binary([](double a, double b) { return std::min(a, b); });
        break;
      case BcOp::Max:
        binary([](double a, double b) { return std::max(a, b); });
        break;
      case BcOp::Pow:
        binary([](double a, double b) { return std::pow(a, b); });
        break;
      case BcOp::StoreLocal:
        sp -= kRow;
        std::copy_n(sp, n, locals + ins.a * kRow);
        break;
      case BcOp::Store:
        sp -= kRow;
        std::copy_n(sp, n, stores + n_stored++ * kRow);
        break;
      case BcOp::StoreAccum: {
        // `*--sp + cur`: the read lands in the free column above the top.
        read_col(pc, ins.a, sp);
        const double* __restrict cur = sp;
        sp -= kRow;
        const double* __restrict val = sp;
        double* __restrict dst = stores + n_stored++ * kRow;
        for (std::int64_t k = 0; k < n; ++k) dst[k] = val[k] + cur[k];
        break;
      }
    }
  }

  for (std::int64_t k = 0; k < n; ++k) {
    const std::int64_t pt[4] = {z, y, x0 + k, 0};
    for (std::int32_t s = 0; s < n_stored; ++s) {
      const BcAccess& a = *rs.store_acc[static_cast<std::size_t>(s)];
      const ArrayView& v = views[a.array];
      const std::int64_t cz = pt[a.sel[0]] + a.off[0];
      const std::int64_t cy = pt[a.sel[1]] + a.off[1];
      const std::int64_t cx = pt[a.sel[2]] + a.off[2];
      const double val = stores[s * kRow + k];
      if (v.scratch) {
        const std::size_t i = view_index(v, cz, cy, cx);
        v.write[i] = val;
        v.written[i] = 1;
        ++c.swrites;
        continue;
      }
      if (drop_outside_commit && !in_box(commit, cz, cy, cx)) continue;
      ARTEMIS_CHECK_MSG(in_window(v, cz, cy, cx),
                        "grid access (" << cz << "," << cy << "," << cx
                                        << ") out of bounds");
      v.write[view_index(v, cz, cy, cx)] = val;
      ++c.gwrites;
    }
  }
  c.greads += rs.greads_pp * n;
  c.sreads += rs.sreads_pp * n;
}

}  // namespace

BcRegion interior_region(const CompiledStencil& cs,
                         const std::vector<ArrayView>& views,
                         const BcRegion& region, bool drop_outside_commit,
                         const BcRegion& commit) {
  BcRegion r = region;
  const auto clamp_empty = [&r] {
    r.hi = r.lo;  // canonical empty box
  };

  // Constrain the point coordinate driving access dimension d so that the
  // coordinate stays inside [lo_b, hi_b).
  const auto apply = [&](std::uint8_t sel, std::int64_t off,
                         std::int64_t lo_b, std::int64_t hi_b) {
    if (sel == 3) {
      if (off < lo_b || off >= hi_b) clamp_empty();
      return;
    }
    r.lo[sel] = std::max(r.lo[sel], lo_b - off);
    r.hi[sel] = std::min(r.hi[sel], hi_b - off);
  };

  const auto constrain_read = [&](const BcAccess& a) {
    const ArrayView& v = views[static_cast<std::size_t>(a.array)];
    const std::int64_t e[3] = {v.ez, v.ey, v.ex};
    const std::int64_t wlo[3] = {v.lo_z, v.lo_y, v.lo_x};
    const std::int64_t wext[3] = {v.wz, v.wy, v.wx};
    for (std::size_t d = 0; d < 3; ++d) {
      std::int64_t lo_b = 0, hi_b = e[d];
      if (v.scratch) {  // the rim's escape CHECK must be unreachable here
        lo_b = std::max(lo_b, wlo[d]);
        hi_b = std::min(hi_b, wlo[d] + wext[d]);
      }
      apply(a.sel[d], a.off[d], lo_b, hi_b);
    }
  };

  const auto constrain_store = [&](const BcAccess& a) {
    const ArrayView& v = views[static_cast<std::size_t>(a.array)];
    // External stores window-check at commit time on every path (they are
    // rare per point), so only scratch stores shrink the interior.
    if (!v.scratch) return;
    const std::int64_t wlo[3] = {v.lo_z, v.lo_y, v.lo_x};
    const std::int64_t wext[3] = {v.wz, v.wy, v.wx};
    for (std::size_t d = 0; d < 3; ++d) {
      apply(a.sel[d], a.off[d], wlo[d], wlo[d] + wext[d]);
    }
  };

  for (const BcInstr& ins : cs.code) {
    switch (ins.op) {
      case BcOp::Load:
        constrain_read(cs.accesses[static_cast<std::size_t>(ins.a)]);
        break;
      case BcOp::StoreAccum:
        constrain_read(cs.accesses[static_cast<std::size_t>(ins.a)]);
        constrain_store(cs.accesses[static_cast<std::size_t>(ins.a)]);
        break;
      case BcOp::Store:
        constrain_store(cs.accesses[static_cast<std::size_t>(ins.a)]);
        break;
      default:
        break;
    }
    if (r.empty()) break;
  }
  if (r.empty()) clamp_empty();
  (void)drop_outside_commit;
  (void)commit;
  return r;
}

namespace {

/// The interior/rim split sweep shared by the plain and counting paths.
/// Interior accesses charge `ci`, rim accesses `cr` — the plain path
/// aliases both to the caller's counter so the split is free; the
/// counting path keeps them apart for per-block-class metrics.
template <bool kCounted>
void run_split_region(const CompiledStencil& cs,
                      const std::vector<ArrayView>& views,
                      const double* scalars, const BcRegion& region,
                      const BcRegion& commit, bool drop_outside_commit,
                      ExecScratch& st, BcCounters& ci, BcCounters& cr,
                      StageTrace* trace) {
  const ArrayView* vp = views.data();
  const BcRegion in =
      interior_region(cs, views, region, drop_outside_commit, commit);

  // The plain interior runs row-batched wherever same-point forwarding is
  // static; counting mode keeps the per-point order its line stream
  // records, and refused stages keep exec_point.
  std::optional<Forwarding> fwd;
  std::optional<RowScratch> rows;
  if constexpr (!kCounted) {
    if (!in.empty()) {
      fwd = analyze_forwarding(cs, views);
      if (fwd->ok()) rows.emplace(cs, *fwd, vp);
    }
  }

  const auto rim_run = [&](std::int64_t z, std::int64_t y, std::int64_t x0,
                           std::int64_t x1) {
    for (std::int64_t x = x0; x < x1; ++x) {
      if (exec_point<true, false, kCounted>(cs, vp, scalars, st, z, y, x,
                                            commit, drop_outside_commit, cr,
                                            nullptr, trace)) {
        ++cr.computed;
      } else {
        ++cr.skipped;
      }
    }
  };

  for (std::int64_t z = region.lo[0]; z < region.hi[0]; ++z) {
    const bool z_in = z >= in.lo[0] && z < in.hi[0];
    for (std::int64_t y = region.lo[1]; y < region.hi[1]; ++y) {
      if (!z_in || y < in.lo[1] || y >= in.hi[1]) {
        rim_run(z, y, region.lo[2], region.hi[2]);
        continue;
      }
      rim_run(z, y, region.lo[2], in.lo[2]);
      if (rows) {
        for (std::int64_t x = in.lo[2]; x < in.hi[2]; x += kRow) {
          exec_row(cs, *fwd, vp, scalars, *rows, z, y, x,
                   std::min(kRow, in.hi[2] - x), commit, drop_outside_commit,
                   ci);
        }
      } else {
        for (std::int64_t x = in.lo[2]; x < in.hi[2]; ++x) {
          exec_point<false, false, kCounted>(cs, vp, scalars, st, z, y, x,
                                             commit, drop_outside_commit, ci,
                                             nullptr, trace);
        }
      }
      ci.computed += in.hi[2] - in.lo[2];  // interior points never veto
      rim_run(z, y, in.hi[2], region.hi[2]);
    }
  }
}

}  // namespace

void run_compiled_region(const CompiledStencil& cs,
                         const std::vector<ArrayView>& views,
                         const double* scalars, const BcRegion& region,
                         const BcRegion& commit, bool drop_outside_commit,
                         BcCounters& c, const GlobalAccessHook* hook,
                         StageTrace* trace) {
  if (region.empty()) return;
  ExecScratch st(cs);
  const ArrayView* vp = views.data();

  if (hook) {
    ARTEMIS_CHECK_MSG(trace == nullptr,
                      "counting mode and the global-access hook are "
                      "mutually exclusive");
    // Trace mode: every point fully checked and hooked, in row-major
    // order, matching the tree walk's deterministic access stream.
    for (std::int64_t z = region.lo[0]; z < region.hi[0]; ++z) {
      for (std::int64_t y = region.lo[1]; y < region.hi[1]; ++y) {
        for (std::int64_t x = region.lo[2]; x < region.hi[2]; ++x) {
          if (exec_point<true, true>(cs, vp, scalars, st, z, y, x, commit,
                                     drop_outside_commit, c, hook)) {
            ++c.computed;
          } else {
            ++c.skipped;
          }
        }
      }
    }
    return;
  }

  if (trace != nullptr) {
    // Counting mode: identical execution, with interior/rim accesses
    // accumulated apart and the global line stream recorded. The caller's
    // counter receives the exact same totals as a plain run.
    trace->flops_per_point = cs.flops_per_point;
    // Pre-size the line stream: one entry per load plus a write per point
    // is a tight upper bound (merging only shrinks it), and it keeps the
    // hot push_back from ever reallocating mid-sweep.
    const std::int64_t pts = (region.hi[0] - region.lo[0]) *
                             (region.hi[1] - region.lo[1]) *
                             (region.hi[2] - region.lo[2]);
    trace->lines.reserve(trace->lines.size() +
                         static_cast<std::size_t>(pts) *
                             (cs.accesses.size() + 1));
    BcCounters ci, cr;
    run_split_region<true>(cs, views, scalars, region, commit,
                           drop_outside_commit, st, ci, cr, trace);
    trace->interior += ci;
    trace->rim += cr;
    c += ci;
    c += cr;
    return;
  }

  run_split_region<false>(cs, views, scalars, region, commit,
                          drop_outside_commit, st, c, c, nullptr);
}

struct RimRunner::Impl {
  const CompiledStencil& cs;
  const std::vector<ArrayView>& views;
  const double* scalars;
  BcRegion commit;
  bool drop;
  ExecScratch st;

  Impl(const CompiledStencil& c, const std::vector<ArrayView>& v,
       const double* s, const BcRegion& cb, bool d)
      : cs(c), views(v), scalars(s), commit(cb), drop(d), st(c) {}
};

RimRunner::RimRunner(const CompiledStencil& cs,
                     const std::vector<ArrayView>& views,
                     const double* scalars, const BcRegion& commit,
                     bool drop_outside_commit)
    : impl_(std::make_unique<Impl>(cs, views, scalars, commit,
                                   drop_outside_commit)) {}

RimRunner::~RimRunner() = default;

void RimRunner::run(std::int64_t z, std::int64_t y, std::int64_t x0,
                    std::int64_t x1, BcCounters& c, StageTrace* trace) {
  Impl& im = *impl_;
  const ArrayView* vp = im.views.data();
  if (trace != nullptr) {
    for (std::int64_t x = x0; x < x1; ++x) {
      if (exec_point<true, false, true>(im.cs, vp, im.scalars, im.st, z, y,
                                        x, im.commit, im.drop, c, nullptr,
                                        trace)) {
        ++c.computed;
      } else {
        ++c.skipped;
      }
    }
    return;
  }
  for (std::int64_t x = x0; x < x1; ++x) {
    if (exec_point<true, false, false>(im.cs, vp, im.scalars, im.st, z, y, x,
                                       im.commit, im.drop, c, nullptr)) {
      ++c.computed;
    } else {
      ++c.skipped;
    }
  }
}

bool needs_snapshot(const ir::ArrayAccessInfo& ai, int dims) {
  if (!ai.read || !ai.written) return false;
  // The canonical center (index d driven by iterator d at offset 0, full
  // coverage) touches only the executing point's own element, whose write
  // commits after that point's reads. Any other index vector — an offset,
  // a constant, a permuted or a dropped iterator — reaches elements that
  // other points write.
  const auto center = [dims](const std::vector<ir::IndexExpr>& ix) {
    if (static_cast<int>(ix.size()) != dims) return false;
    for (int d = 0; d < dims; ++d) {
      const ir::IndexExpr& e = ix[static_cast<std::size_t>(d)];
      if (e.iter != d || e.offset != 0) return false;
    }
    return true;
  };
  return !std::all_of(ai.read_offsets.begin(), ai.read_offsets.end(),
                      center) ||
         !std::all_of(ai.write_offsets.begin(), ai.write_offsets.end(),
                      center);
}

}  // namespace artemis::sim
