#include <algorithm>
#include <cstring>
#include <map>
#include <utility>

#include "artemis/common/check.hpp"
#include "artemis/common/str.hpp"
#include "artemis/sim/forwarding.hpp"
#include "artemis/sim/native/native.hpp"

namespace artemis::sim::native {

namespace {

/// (array slot, selectors, offsets): the static identity of one access.
/// Equal keys touch the same element at every point; keys that agree on
/// selectors but differ in some offset touch provably distinct elements
/// at every point.
struct AccessKey {
  std::int32_t array;
  std::array<std::uint8_t, 3> sel;
  std::array<std::int64_t, 3> off;
  auto operator<=>(const AccessKey&) const = default;
};

AccessKey key_of(const BcAccess& a) { return {a.array, a.sel, a.off}; }

/// Virtual registers are uint16; a postfix program allocates at most one
/// register per instruction, so bounding the code bounds the file.
constexpr std::size_t kMaxCode = 4096;

struct Lowerer {
  const CompiledStencil& cs;
  const std::vector<std::uint8_t>& is_scratch;
  const bool fast_math;

  LinearProgram out;
  std::string reason;

  std::vector<std::uint16_t> stack;
  std::vector<std::uint16_t> local_reg;
  /// Pinned registers hold values live to the end of the point (consts,
  /// scalars, locals, CSE'd loads, store operands); unpinned registers
  /// are pure temporaries, consumed exactly once.
  std::vector<bool> pinned;
  std::vector<std::uint16_t> free_regs;
  /// body index that defined each register, -1 when dead / not a temp.
  std::vector<std::int32_t> def_instr;
  std::map<std::uint64_t, std::uint16_t> const_regs;  ///< keyed by raw bits
  std::map<std::int32_t, std::uint16_t> scalar_regs;
  std::map<AccessKey, std::uint16_t> load_cse;
  std::map<std::uint16_t, std::int32_t> reg_load;  ///< CSE reg -> loads[] id

  /// Same-point forwarding, resolved by the shared sim analysis.
  const Forwarding& fwd;
  std::vector<std::uint16_t> store_regs;  ///< stored value per store ordinal

  Lowerer(const CompiledStencil& cs_in,
          const std::vector<std::uint8_t>& scratch_in, bool fm,
          const Forwarding& fwd_in)
      : cs(cs_in), is_scratch(scratch_in), fast_math(fm), fwd(fwd_in) {}

  std::uint16_t alloc(bool pin) {
    std::uint16_t r;
    if (!pin && !free_regs.empty()) {
      r = free_regs.back();
      free_regs.pop_back();
    } else {
      r = static_cast<std::uint16_t>(out.n_regs++);
      pinned.push_back(false);
      def_instr.push_back(-1);
    }
    pinned[r] = pin;
    return r;
  }

  void push(std::uint16_t r) { stack.push_back(r); }
  std::uint16_t pop() {
    const std::uint16_t r = stack.back();
    stack.pop_back();
    return r;
  }

  void free_if_temp(std::uint16_t r) {
    if (!pinned[r]) {
      free_regs.push_back(r);
      def_instr[r] = -1;
    }
  }

  void emit(NOp op, std::uint16_t a, std::uint16_t b, std::uint16_t c) {
    const std::uint16_t d = alloc(/*pin=*/false);
    NInstr i;
    i.op = op;
    i.dst = d;
    i.a = a;
    i.b = b;
    i.c = c;
    out.body.push_back(i);
    def_instr[d] = static_cast<std::int32_t>(out.body.size()) - 1;
    push(d);
  }

  std::uint16_t const_reg_for(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    if (const auto it = const_regs.find(bits); it != const_regs.end()) {
      return it->second;
    }
    const std::uint16_t r = alloc(/*pin=*/true);
    out.setup_consts.push_back(v);
    out.const_reg.push_back(r);
    const_regs.emplace(bits, r);
    return r;
  }

  std::uint16_t scalar_reg_for(std::int32_t slot) {
    if (const auto it = scalar_regs.find(slot); it != scalar_regs.end()) {
      return it->second;
    }
    const std::uint16_t r = alloc(/*pin=*/true);
    out.setup_scalars.push_back(slot);
    out.scalar_reg.push_back(r);
    scalar_regs.emplace(slot, r);
    return r;
  }

  bool refuse(std::string why) {
    reason = std::move(why);
    return false;
  }

  /// Read one element through the pending-write buffer, statically. The
  /// result register is pinned (it may be read again via CSE). Mirrors
  /// exec_point's read_at: a forwarded read reuses the stored register and
  /// touches no memory and no counters; a memory read counts once per
  /// original read op (CSE shares the register, not the count).
  void read_access(std::size_t pc, const BcAccess& a, std::uint16_t& result) {
    if (const std::int32_t s = fwd.source[pc]; s >= 0) {
      result = store_regs[static_cast<std::size_t>(s)];
      return;
    }
    const AccessKey k = key_of(a);
    const bool scratch = is_scratch[static_cast<std::size_t>(a.array)] != 0;
    if (scratch) {
      ++out.sreads_pp;
    } else {
      ++out.greads_pp;
    }
    std::int32_t load_idx;
    if (const auto it = load_cse.find(k); it != load_cse.end()) {
      result = it->second;
      load_idx = reg_load.at(result);
    } else {
      load_idx = static_cast<std::int32_t>(out.loads.size());
      NAccess na;
      na.view = a.array;
      na.sel = a.sel;
      na.off = a.off;
      na.scratch = scratch;
      out.loads.push_back(na);
      result = alloc(/*pin=*/true);
      NInstr li;
      li.op = NOp::Load;
      li.dst = result;
      li.aux = load_idx;
      out.body.push_back(li);
      load_cse.emplace(k, result);
      reg_load.emplace(result, load_idx);
    }
    if (!scratch) out.replay_reads.push_back(load_idx);
  }

  void unary(NOp op) {
    const std::uint16_t a = pop();
    free_if_temp(a);
    emit(op, a, 0, 0);
  }

  /// True when r is the unpinned result of the immediately preceding Mul
  /// — the fast-math FMA contraction candidate; nothing else can ever
  /// read r, and no instruction after the Mul has touched the file.
  bool fresh_product(std::uint16_t r) const {
    return fast_math && !pinned[r] && def_instr[r] >= 0 &&
           def_instr[r] == static_cast<std::int32_t>(out.body.size()) - 1 &&
           out.body.back().op == NOp::Mul;
  }

  /// Replace {m = a*b; d = combine(m, addend)} with one fused op. The
  /// Mul's operands are still live: registers freed since its emission
  /// can only have been reallocated by another emission, and the Mul is
  /// the last one.
  void fuse(std::uint16_t prod, std::uint16_t addend, NOp fused) {
    const NInstr mi = out.body.back();
    out.body.pop_back();
    def_instr[prod] = -1;
    free_regs.push_back(prod);
    free_if_temp(addend);
    emit(fused, mi.a, mi.b, addend);
  }

  void binary(NOp op) {
    const std::uint16_t b = pop();
    const std::uint16_t a = pop();
    if (op == NOp::Add) {
      if (fresh_product(b)) return fuse(b, a, NOp::Fmadd);
      if (fresh_product(a)) return fuse(a, b, NOp::Fmadd);
    } else if (op == NOp::Sub) {
      if (fresh_product(b)) return fuse(b, a, NOp::Fnmadd);  // a - m1*m2
      if (fresh_product(a)) return fuse(a, b, NOp::Fmsub);   // m1*m2 - b
    }
    free_if_temp(a);
    free_if_temp(b);
    emit(op, a, b, 0);
  }

  bool add_store(const BcAccess& a, std::uint16_t v) {
    // A store that does not consume every iterator maps many points onto
    // one element; the element's final value is then defined by the
    // bytecode's row-major point order, which the native interior does
    // not preserve. Refuse; injective stores are order-free (each
    // element has exactly one writer).
    if (!addresses_every_iterator(a, cs.dims)) {
      return refuse(str_cat("store on array slot ", a.array,
                            " does not address every iterator"));
    }
    NStore s;
    s.acc.view = a.array;
    s.acc.sel = a.sel;
    s.acc.off = a.off;
    s.acc.scratch = is_scratch[static_cast<std::size_t>(a.array)] != 0;
    s.src = v;
    out.stores.push_back(s);
    store_regs.push_back(v);
    if (s.acc.scratch) ++out.swrites_pp;
    // External stores contribute to gwrites by committed volume, not per
    // point — accounted analytically in add_interior_counters.
    return true;
  }

  bool run() {
    stack.reserve(static_cast<std::size_t>(std::max(1, cs.max_stack)));
    local_reg.assign(static_cast<std::size_t>(std::max(1, cs.n_locals)), 0);
    for (std::size_t pc = 0; pc < cs.code.size(); ++pc) {
      const BcInstr& ins = cs.code[pc];
      switch (ins.op) {
        case BcOp::PushConst:
          push(const_reg_for(cs.consts[static_cast<std::size_t>(ins.a)]));
          break;
        case BcOp::PushScalar:
          push(scalar_reg_for(ins.a));
          break;
        case BcOp::PushLocal:
          push(local_reg[static_cast<std::size_t>(ins.a)]);
          break;
        case BcOp::Load: {
          std::uint16_t r;
          read_access(pc, cs.accesses[static_cast<std::size_t>(ins.a)], r);
          push(r);
          break;
        }
        case BcOp::Neg:
          unary(NOp::Neg);
          break;
        case BcOp::Sqrt:
          unary(NOp::Sqrt);
          break;
        case BcOp::Fabs:
          unary(NOp::Fabs);
          break;
        case BcOp::Exp:
          unary(NOp::Exp);
          break;
        case BcOp::Log:
          unary(NOp::Log);
          break;
        case BcOp::Add:
          binary(NOp::Add);
          break;
        case BcOp::Sub:
          binary(NOp::Sub);
          break;
        case BcOp::Mul:
          binary(NOp::Mul);
          break;
        case BcOp::Div:
          binary(NOp::Div);
          break;
        case BcOp::Min:
          binary(NOp::Min);
          break;
        case BcOp::Max:
          binary(NOp::Max);
          break;
        case BcOp::Pow:
          binary(NOp::Pow);
          break;
        case BcOp::StoreLocal: {
          const std::uint16_t v = pop();
          pinned[v] = true;  // locals may be read any number of times
          local_reg[static_cast<std::size_t>(ins.a)] = v;
          break;
        }
        case BcOp::Store: {
          const std::uint16_t v = pop();
          pinned[v] = true;
          if (!add_store(cs.accesses[static_cast<std::size_t>(ins.a)], v)) {
            return false;
          }
          break;
        }
        case BcOp::StoreAccum: {
          // `*--sp + cur`: read through the pending buffer, add in the
          // bytecode's operand order, store the sum.
          const BcAccess& a = cs.accesses[static_cast<std::size_t>(ins.a)];
          std::uint16_t cur;
          read_access(pc, a, cur);
          push(cur);
          binary(NOp::Add);
          const std::uint16_t v = pop();
          pinned[v] = true;
          if (!add_store(a, v)) return false;
          break;
        }
      }
    }
    ARTEMIS_CHECK(stack.empty());
    out.flops_per_point = cs.flops_per_point;
    return true;
  }
};

}  // namespace

LowerResult lower_stencil(const CompiledStencil& cs,
                          const std::vector<std::uint8_t>& is_scratch,
                          bool fast_math) {
  LowerResult res;
  if (cs.code.size() >= kMaxCode) {
    res.reason = "statement list exceeds the virtual register budget";
    return res;
  }
  // Globals reach the native tier snapshotted unless every access is the
  // canonical center (needs_snapshot), so only scratch reads see the
  // stage's own stores.
  const Forwarding fwd = analyze_forwarding(cs, is_scratch);
  if (!fwd.ok()) {
    res.reason = fwd.refusal;
    return res;
  }
  Lowerer lw(cs, is_scratch, fast_math, fwd);
  lw.out.dims = cs.dims;
  if (!lw.run()) {
    res.reason = lw.reason;
    return res;
  }
  res.ok = true;
  res.prog = std::move(lw.out);
  return res;
}

}  // namespace artemis::sim::native
