// C emission of a lowered stage. The generated function sweeps an interior
// box row by row, 8 points per step along x with GCC vector extensions and
// a scalar loop for the row's tail. Strict-mode bit identity with the
// bytecode engine rests on these rules (docs/CORRECTNESS.md):
//
//  - every body op is one C operation in the register program's order,
//    which is the bytecode's post-order; the compiler runs with
//    -ffp-contract=off and no fast-math, so it may only make exact
//    rewrites;
//  - exp/log/pow are called through aliases of the libm symbols, so the
//    compiler does not know them and cannot fold pow(x, 2.0) into x*x or
//    evaluate them at compile time;
//  - min(a, b) is `b < a ? b : a` and max(a, b) is `a < b ? b : a` (lane
//    selects in the vector body), std::min/std::max's NaN and ±0 results;
//  - constants are rebuilt from their bit patterns and broadcasts never
//    add, so -0.0 and NaN payloads survive;
//  - all loads of a point precede its stores, which commit in statement
//    order, lanes ascending, within per-store point ranges the caller
//    derives from the drop-outside-commit box; scratch stores set their
//    written flags;
//  - `restrict` marks a view only when the stage does not both read it
//    from memory and store it: lowering has proven (analyze_forwarding)
//    that such a view's reads and writes never meet across points, but
//    its read and write storage may coincide.

#include <charconv>
#include <concepts>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "artemis/sim/native/native.hpp"

namespace artemis::sim::native {

namespace {

constexpr int kLanes = 8;

const char* const kPrelude = R"(typedef double vd __attribute__((vector_size(64)));
typedef double vdu __attribute__((vector_size(64), aligned(8), may_alias));
typedef long long vl __attribute__((vector_size(64)));
typedef unsigned long long u64u __attribute__((aligned(1), may_alias));
extern double artemis_exp(double) __asm__("exp");
extern double artemis_log(double) __asm__("log");
extern double artemis_pow(double, double) __asm__("pow");
static inline double bits(unsigned long long u) {
  union { unsigned long long u; double d; } c = {u};
  return c.d;
}
static inline vd vbc(double s) { return (vd){s, s, s, s, s, s, s, s}; }
static inline vd vgather(const double* p, long long s) {
  return (vd){p[0], p[s], p[2 * s], p[3 * s], p[4 * s], p[5 * s], p[6 * s],
              p[7 * s]};
}
static inline double smin(double a, double b) { return b < a ? b : a; }
static inline double smax(double a, double b) { return a < b ? b : a; }
static inline vd vmin(vd a, vd b) {
  const vl m = (vl)(b < a);
  return (vd)(((vl)b & m) | ((vl)a & ~m));
}
static inline vd vmax(vd a, vd b) {
  const vl m = (vl)(a < b);
  return (vd)(((vl)b & m) | ((vl)a & ~m));
}
static inline vd vabs(vd a) { return (vd)((vl)a & 0x7fffffffffffffffLL); }
#define LANEWISE(name, f) \
  static inline vd name(vd a) { \
    for (int l = 0; l < 8; ++l) a[l] = f(a[l]); \
    return a; \
  }
LANEWISE(vsqrt, __builtin_sqrt)
LANEWISE(vexp, artemis_exp)
LANEWISE(vlog, artemis_log)
static inline vd vpow(vd a, vd b) {
  for (int l = 0; l < 8; ++l) a[l] = artemis_pow(a[l], b[l]);
  return a;
}
static inline vd vfma(vd a, vd b, vd c) {
  for (int l = 0; l < 8; ++l) a[l] = __builtin_fma(a[l], b[l], c[l]);
  return a;
}
static inline void vcommit(double* p, long long s, vd v, long long lo,
                           long long hi) {
  if (s == 1 && lo <= 0 && hi >= 8) {
    *(vdu*)p = v;
    return;
  }
  for (int l = 0; l < 8; ++l) {
    if (l >= lo && l < hi) p[l * s] = v[l];
  }
}
static inline void vscratch(double* p, unsigned char* f, long long s, vd v) {
  if (s == 1) {
    *(vdu*)p = v;
    *(u64u*)f = 0x0101010101010101ULL;
    return;
  }
  for (int l = 0; l < 8; ++l) {
    p[l * s] = v[l];
    f[l * s] = 1;
  }
}
)";

/// C form of each NOp but Load, in the vector body and in the scalar
/// tail; $a, $b and $c stand for the operand registers.
const char* const kForms[][2] = {
    {"", ""},  // Load
    {"-$a", "-$a"},
    {"vabs($a)", "__builtin_fabs($a)"},
    {"vsqrt($a)", "__builtin_sqrt($a)"},
    {"vexp($a)", "artemis_exp($a)"},
    {"vlog($a)", "artemis_log($a)"},
    {"$a + $b", "$a + $b"},
    {"$a - $b", "$a - $b"},
    {"$a * $b", "$a * $b"},
    {"$a / $b", "$a / $b"},
    {"vmin($a, $b)", "smin($a, $b)"},
    {"vmax($a, $b)", "smax($a, $b)"},
    {"vpow($a, $b)", "artemis_pow($a, $b)"},
    {"vfma($a, $b, $c)", "__builtin_fma($a, $b, $c)"},
    {"vfma($a, $b, -$c)", "__builtin_fma($a, $b, -$c)"},
    {"vfma(-$a, $b, $c)", "__builtin_fma(-$a, $b, $c)"},
};
static_assert(std::size(kForms) == static_cast<std::size_t>(NOp::Fnmadd) + 1);

/// How an access's address moves with x: not at all, unit stride, or a
/// runtime stride (permuted selectors).
enum class XStride { Zero, Unit, General };

struct Shape {
  std::int32_t view;
  std::array<std::uint8_t, 3> sel;
  auto operator<=>(const Shape&) const = default;
};

void put(std::string& out, const std::string& s) { out += s; }
void put(std::string& out, const char* s) { out += s; }
template <std::integral T>
void put(std::string& out, T v) {
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, r.ptr);
}

/// str_cat without a stream: emission builds hundreds of kilobytes.
template <typename... Args>
std::string cat(const Args&... args) {
  std::string s;
  (put(s, args), ...);
  return s;
}

struct Emitter {
  const LinearProgram& lp;
  std::string out;
  std::map<Shape, int> shapes;

  explicit Emitter(const LinearProgram& p) : lp(p) {}

  template <typename... Args>
  void line(const Args&... args) {
    (put(out, args), ...);
    out += '\n';
  }

  static XStride x_stride(const NAccess& a) {
    int n = 0;
    bool unit = false;
    for (std::size_t d = 0; d < 3; ++d) {
      if (a.sel[d] == 2) {
        ++n;
        unit = d == 2;
      }
    }
    if (n == 0) return XStride::Zero;
    return n == 1 && unit ? XStride::Unit : XStride::General;
  }

  int shape_of(const NAccess& a) { return shapes.at({a.view, a.sel}); }

  /// Element offset of the access at point (0, 0, 0) in its view.
  std::string offset_expr(const NAccess& a) const {
    const std::int32_t v = a.view;
    return cat("((", a.off[0], "LL - lz", v, ") * wy", v, " + (",
                   a.off[1], "LL - ly", v, ")) * wx", v, " + (", a.off[2],
                   "LL - lx", v, ")");
  }

  /// Address of access `a` (offset variable `k`) at the current row and x.
  std::string address(const NAccess& a, const std::string& k) {
    const int s = shape_of(a);
    switch (x_stride(a)) {
      case XStride::Zero:
        return cat(k, " + ro", s);
      case XStride::Unit:
        return cat(k, " + ro", s, " + x");
      case XStride::General:
        break;
    }
    return cat(k, " + ro", s, " + x * xs", s);
  }

  void declare_views() {
    std::set<std::int32_t> loaded, stored, scratch_stored;
    for (const NAccess& a : lp.loads) loaded.insert(a.view);
    for (const NStore& s : lp.stores) {
      stored.insert(s.acc.view);
      if (s.acc.scratch) scratch_stored.insert(s.acc.view);
    }
    std::set<std::int32_t> used = loaded;
    used.insert(stored.begin(), stored.end());
    const auto field = [&](const char* type, std::int32_t v,
                           std::size_t off) {
      return cat("*(", type, " const*)(vb + ", v, " * ", sizeof(ArrayView),
                 "ULL + ", off, "ULL)");
    };
    const std::pair<const char*, std::size_t> geometry[] = {
        {"lz", offsetof(ArrayView, lo_z)}, {"ly", offsetof(ArrayView, lo_y)},
        {"lx", offsetof(ArrayView, lo_x)}, {"wy", offsetof(ArrayView, wy)},
        {"wx", offsetof(ArrayView, wx)}};
    for (const std::int32_t v : used) {
      for (const auto& [var, off] : geometry) {
        line("  const long long ", var, v, " = ", field("long long", v, off),
             ";");
      }
      const char* restrict_kw =
          loaded.count(v) && stored.count(v) ? "" : " restrict";
      if (loaded.count(v)) {
        line("  const double*", restrict_kw, " r", v, " = ",
             field("double*", v, offsetof(ArrayView, read)), ";");
      }
      if (stored.count(v)) {
        line("  double*", restrict_kw, " w", v, " = ",
             field("double*", v, offsetof(ArrayView, write)), ";");
      }
      if (scratch_stored.count(v)) {
        line("  unsigned char* restrict f", v, " = ",
             field("unsigned char*", v, offsetof(ArrayView, written)), ";");
      }
    }
  }

  /// Per (view, selectors) shape: the element stride of each point axis.
  void declare_shapes() {
    for (const NAccess& a : lp.loads) shapes.emplace(Shape{a.view, a.sel}, 0);
    for (const NStore& s : lp.stores) {
      shapes.emplace(Shape{s.acc.view, s.acc.sel}, 0);
    }
    int next = 0;
    for (auto& [shape, id] : shapes) {
      id = next++;
      const std::int32_t v = shape.view;
      const std::string dim_stride[3] = {cat("wy", v, " * wx", v),
                                         cat("wx", v), "1LL"};
      const char* axis_name[3] = {"zs", "ys", "xs"};
      for (std::uint8_t axis = 0; axis < 3; ++axis) {
        std::string sum;
        for (std::size_t d = 0; d < 3; ++d) {
          if (shape.sel[d] != axis) continue;
          sum += sum.empty() ? "" : " + ";
          sum += dim_stride[d];
        }
        line("  const long long ", axis_name[axis], id, " = ",
             sum.empty() ? "0LL" : sum, ";");
      }
    }
  }

  void declare_accesses() {
    for (std::size_t i = 0; i < lp.loads.size(); ++i) {
      line("  const long long kl", i, " = ", offset_expr(lp.loads[i]), ";");
    }
    for (std::size_t j = 0; j < lp.stores.size(); ++j) {
      line("  const long long ks", j, " = ", offset_expr(lp.stores[j].acc),
           ";");
    }
  }

  void declare_constants() {
    for (std::size_t i = 0; i < lp.setup_consts.size(); ++i) {
      std::uint64_t b;
      std::memcpy(&b, &lp.setup_consts[i], sizeof b);
      char hex[17];
      std::snprintf(hex, sizeof hex, "%016llx",
                    static_cast<unsigned long long>(b));
      line("  const double C", i, " = bits(0x", hex, "ULL);");
      line("  const vd VC", i, " = vbc(C", i, ");");
    }
    for (std::size_t i = 0; i < lp.setup_scalars.size(); ++i) {
      line("  const double S", i, " = sc[", lp.setup_scalars[i], "];");
      line("  const vd VS", i, " = vbc(S", i, ");");
    }
  }

  /// One load: an unaligned vector, a broadcast, a gather, or one value.
  std::string load(const NAccess& acc, std::int32_t id, bool vec) {
    const std::string addr = address(acc, cat("kl", id));
    if (!vec) return cat("r", acc.view, "[", addr, "]");
    switch (x_stride(acc)) {
      case XStride::Unit:
        return cat("*(const vdu*)(r", acc.view, " + ", addr, ")");
      case XStride::Zero:
        return cat("vbc(r", acc.view, "[", addr, "])");
      case XStride::General:
        break;
    }
    return cat("vgather(r", acc.view, " + ", addr, ", xs", shape_of(acc),
               ")");
  }

  /// The register program over one vector (8 lanes) or one point.
  void body(bool vec) {
    const std::string ind = "        ";
    const char* type = vec ? "vd" : "double";
    std::vector<std::string> name(static_cast<std::size_t>(lp.n_regs));
    for (std::size_t i = 0; i < lp.const_reg.size(); ++i) {
      name[lp.const_reg[i]] = cat(vec ? "VC" : "C", i);
    }
    for (std::size_t i = 0; i < lp.scalar_reg.size(); ++i) {
      name[lp.scalar_reg[i]] = cat(vec ? "VS" : "S", i);
    }
    for (std::size_t n = 0; n < lp.body.size(); ++n) {
      const NInstr& I = lp.body[n];
      std::string rhs;
      if (I.op == NOp::Load) {
        rhs = load(lp.loads[static_cast<std::size_t>(I.aux)], I.aux, vec);
      } else {
        for (const char* f = kForms[static_cast<int>(I.op)][vec ? 0 : 1];
             *f != '\0'; ++f) {
          if (*f != '$') {
            rhs += *f;
            continue;
          }
          ++f;
          rhs += name[*f == 'a' ? I.a : *f == 'b' ? I.b : I.c];
        }
      }
      name[I.dst] = cat("t", n);
      line(ind, "const ", type, " t", n, " = ", rhs, ";");
    }
    stores(vec, name);
  }

  /// Commit in statement order, lanes ascending.
  void stores(bool vec, const std::vector<std::string>& name) {
    const std::string ind = "        ";
    for (std::size_t j = 0; j < lp.stores.size(); ++j) {
      const NAccess& a = lp.stores[j].acc;
      const std::string& v = name[lp.stores[j].src];
      const std::string addr = address(a, cat("ks", j));
      const std::string xs = x_stride(a) == XStride::Unit
                                 ? std::string("1")
                                 : cat("xs", shape_of(a));
      const std::int32_t w = a.view;
      if (a.scratch && vec) {
        line(ind, "vscratch(w", w, " + ", addr, ", f", w, " + ", addr, ", ",
             xs, ", ", v, ");");
      } else if (a.scratch) {
        line(ind, "w", w, "[", addr, "] = ", v, "; f", w, "[", addr,
             "] = 1;");
      } else if (vec) {
        line(ind, "if (rc", j, ") vcommit(w", w, " + ", addr, ", ", xs, ", ",
             v, ", cr[", 6 * j + 2, "] - x, cr[", 6 * j + 5, "] - x);");
      } else {
        line(ind, "if (rc", j, " && x >= cr[", 6 * j + 2, "] && x < cr[",
             6 * j + 5, "]) w", w, "[", addr, "] = ", v, ";");
      }
    }
  }

  std::string run() {
    out.reserve(4096 + 160 * lp.body.size());
    out += kPrelude;
    line("void artemis_stage(const void* views, const double* sc,");
    line("                   const long long* box, const long long* cr) {");
    line("  const char* vb = (const char*)views;");
    declare_views();
    declare_shapes();
    declare_accesses();
    declare_constants();
    line("  for (long long z = box[0]; z < box[3]; ++z) {");
    line("    for (long long y = box[1]; y < box[4]; ++y) {");
    for (const auto& [shape, id] : shapes) {
      line("      const long long ro", id, " = z * zs", id, " + y * ys", id,
           ";");
    }
    for (std::size_t j = 0; j < lp.stores.size(); ++j) {
      if (lp.stores[j].acc.scratch) continue;
      const std::size_t c = 6 * j;
      line("      const int rc", j, " = z >= cr[", c, "] && z < cr[", c + 3,
           "] && y >= cr[", c + 1, "] && y < cr[", c + 4, "];");
    }
    line("      long long x = box[2];");
    line("      for (; x + ", kLanes, " <= box[5]; x += ", kLanes, ") {");
    body(/*vec=*/true);
    line("      }");
    line("      for (; x < box[5]; ++x) {");
    body(/*vec=*/false);
    line("      }");
    line("    }");
    line("  }");
    line("}");
    return std::move(out);
  }
};

}  // namespace

std::string emit_stage_source(const LinearProgram& lp) {
  return Emitter(lp).run();
}

}  // namespace artemis::sim::native
