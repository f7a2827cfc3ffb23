#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "artemis/sim/bytecode.hpp"

namespace artemis::sim {

/// --- static same-point forwarding ---------------------------------------
///
/// exec_point resolves a read of an array the stage already stored to by
/// scanning the point's pending-write buffer at run time. Engines that run
/// many points per instruction (the bytecode row interior, the native SIMD
/// tier) need that resolution decided once, for every point, before the
/// sweep. This is the one analysis both consume.
///
/// For every read (Load, and the read half of StoreAccum) it returns either
/// the store it forwards from or "read memory". It refuses when:
///  - a read and an earlier store to the same array are driven by different
///    coordinate selectors, so whether they alias depends on the point
///    ("pending-write aliasing on array slot N is point-dependent");
///  - a memory read of an in-place array could observe another point's
///    store from the same stage, making the result depend on point order
///    ("array slot N may read another point's same-stage store"). It is
///    accepted only when the array has exactly one store key, that key
///    addresses every iterator (each element has one writer) and every
///    memory read of the array uses that same key.
struct Forwarding {
  /// Empty when forwarding is static; otherwise why it is not.
  std::string refusal;
  /// Per code index: the store ordinal (0-based, statement order over
  /// Store/StoreAccum) a Load or StoreAccum read forwards from, or -1 when
  /// the read goes to memory. -1 for every other opcode.
  std::vector<std::int32_t> source;

  bool ok() const { return refusal.empty(); }
};

/// True when some coordinate selector of `a` reads each of the `dims`
/// point iterators, so distinct points address distinct elements.
bool addresses_every_iterator(const BcAccess& a, int dims);

/// `in_place` has one entry per array slot, set where the slot's memory
/// reads see the storage the stage's own stores write: block scratch, and
/// any global grid the caller did not snapshot.
Forwarding analyze_forwarding(const CompiledStencil& cs,
                              const std::vector<std::uint8_t>& in_place);

/// The row interior's view of the same analysis: a slot is in place when
/// it is scratch or its read and write storage coincide.
Forwarding analyze_forwarding(const CompiledStencil& cs,
                              const std::vector<ArrayView>& views);

}  // namespace artemis::sim
