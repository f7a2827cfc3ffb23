#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace artemis::ir {

/// Binary arithmetic operators of the restricted C subset the DSL accepts.
enum class BinOp { Add, Sub, Mul, Div };

/// One dimension of an array index: `iterator + offset`, or a plain
/// constant when `iter < 0`. The DSL only admits affine indices of this
/// shape (iterator plus integer literal), which is what makes stencil-order
/// and halo analysis decidable.
struct IndexExpr {
  int iter = -1;            ///< position in Program::iterators, -1 = constant
  std::int64_t offset = 0;  ///< additive constant

  bool is_const() const { return iter < 0; }
  auto operator<=>(const IndexExpr&) const = default;
};

enum class ExprKind {
  Number,     ///< double literal
  ScalarRef,  ///< named scalar (program scalar, formal param, or local temp)
  ArrayRef,   ///< array element access with affine indices
  Unary,      ///< negation
  Binary,     ///< + - * /
  Call,       ///< math intrinsic: sqrt, fabs, exp, min, max, ...
};

struct Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// Immutable expression node. Nodes are shared freely across statements and
/// transformed programs; all rewrites build new nodes (persistent tree).
struct Expr {
  ExprKind kind = ExprKind::Number;

  double number = 0.0;              ///< Number
  std::string name;                 ///< ScalarRef / ArrayRef array / Call fn
  std::vector<IndexExpr> indices;   ///< ArrayRef, outermost first
  BinOp bop = BinOp::Add;           ///< Binary
  std::vector<ExprPtr> args;        ///< Unary(1) / Binary(2) / Call(n)
};

// --- factory helpers -------------------------------------------------------

ExprPtr number(double v);
ExprPtr scalar_ref(std::string name);
ExprPtr array_ref(std::string array, std::vector<IndexExpr> indices);
ExprPtr unary_neg(ExprPtr a);
ExprPtr binary(BinOp op, ExprPtr a, ExprPtr b);
ExprPtr call(std::string fn, std::vector<ExprPtr> args);

inline ExprPtr add(ExprPtr a, ExprPtr b) {
  return binary(BinOp::Add, std::move(a), std::move(b));
}
inline ExprPtr sub(ExprPtr a, ExprPtr b) {
  return binary(BinOp::Sub, std::move(a), std::move(b));
}
inline ExprPtr mul(ExprPtr a, ExprPtr b) {
  return binary(BinOp::Mul, std::move(a), std::move(b));
}
inline ExprPtr div(ExprPtr a, ExprPtr b) {
  return binary(BinOp::Div, std::move(a), std::move(b));
}

// --- queries ---------------------------------------------------------------

/// Render as C-like source using the given iterator names (for indices).
std::string to_string(const Expr& e, const std::vector<std::string>& iters);

/// Structural equality (deep).
bool equal(const Expr& a, const Expr& b);

/// Whether a node of this kind is one floating-point operation: each
/// binary op, unary negation, and intrinsic call is (the convention used
/// to reproduce the paper's Table I FLOP column).
constexpr bool is_flop(ExprKind kind) {
  return kind == ExprKind::Unary || kind == ExprKind::Binary ||
         kind == ExprKind::Call;
}

/// Count of floating-point operations in the tree (nodes whose kind
/// is_flop).
std::int64_t flop_count(const Expr& e);

/// Visit every node in the tree (pre-order).
void visit(const Expr& e, const std::function<void(const Expr&)>& fn);

/// Rewrite the tree bottom-up: `fn` maps each (already-rewritten) node to
/// its replacement; returning nullptr keeps the reconstructed node.
ExprPtr rewrite(const ExprPtr& e,
                const std::function<ExprPtr(const ExprPtr&)>& fn);

const char* bin_op_token(BinOp op);

}  // namespace artemis::ir
