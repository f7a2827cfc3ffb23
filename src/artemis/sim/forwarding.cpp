#include "artemis/sim/forwarding.hpp"

#include "artemis/common/str.hpp"

namespace artemis::sim {

bool addresses_every_iterator(const BcAccess& a, int dims) {
  for (int iter = 3 - dims; iter < 3; ++iter) {
    if (a.sel[0] != iter && a.sel[1] != iter && a.sel[2] != iter) {
      return false;
    }
  }
  return true;
}

Forwarding analyze_forwarding(const CompiledStencil& cs,
                              const std::vector<std::uint8_t>& in_place) {
  Forwarding f;
  f.source.assign(cs.code.size(), -1);
  std::vector<const BcAccess*> stores;  // by ordinal, statement order
  std::vector<const BcAccess*> memory_reads;

  // Equal (selectors, offsets) touch the same element at every point;
  // equal selectors with some differing offset never touch the same one.
  const auto resolve = [&](std::size_t pc, const BcAccess& a) {
    for (auto s = static_cast<std::int32_t>(stores.size()) - 1; s >= 0;
         --s) {
      const BcAccess& w = *stores[static_cast<std::size_t>(s)];
      if (w.array != a.array) continue;
      if (w.sel != a.sel) {
        f.refusal = str_cat("pending-write aliasing on array slot ", a.array,
                            " is point-dependent");
        return false;
      }
      if (w.off == a.off) {
        f.source[pc] = s;
        return true;
      }
    }
    memory_reads.push_back(&a);
    return true;
  };

  for (std::size_t pc = 0; pc < cs.code.size(); ++pc) {
    const BcInstr& ins = cs.code[pc];
    if (ins.op != BcOp::Load && ins.op != BcOp::Store &&
        ins.op != BcOp::StoreAccum) {
      continue;
    }
    const BcAccess& a = cs.accesses[static_cast<std::size_t>(ins.a)];
    if (ins.op != BcOp::Store && !resolve(pc, a)) return f;
    if (ins.op != BcOp::Load) stores.push_back(&a);
  }

  for (const BcAccess* r : memory_reads) {
    if (!in_place[static_cast<std::size_t>(r->array)]) continue;
    for (const BcAccess* w : stores) {
      if (w->array != r->array) continue;
      if (w->sel != r->sel || w->off != r->off ||
          !addresses_every_iterator(*w, cs.dims)) {
        f.refusal = str_cat("array slot ", r->array,
                            " may read another point's same-stage store");
        return f;
      }
    }
  }
  return f;
}

Forwarding analyze_forwarding(const CompiledStencil& cs,
                              const std::vector<ArrayView>& views) {
  std::vector<std::uint8_t> in_place(views.size());
  for (std::size_t s = 0; s < views.size(); ++s) {
    in_place[s] = views[s].scratch || views[s].read == views[s].write;
  }
  return analyze_forwarding(cs, in_place);
}

}  // namespace artemis::sim
