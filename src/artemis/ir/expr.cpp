#include "artemis/ir/expr.hpp"

#include "artemis/common/check.hpp"
#include "artemis/common/str.hpp"

namespace artemis::ir {

ExprPtr number(double v) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::Number;
  e->number = v;
  return e;
}

ExprPtr scalar_ref(std::string name) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::ScalarRef;
  e->name = std::move(name);
  return e;
}

ExprPtr array_ref(std::string array, std::vector<IndexExpr> indices) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::ArrayRef;
  e->name = std::move(array);
  e->indices = std::move(indices);
  return e;
}

ExprPtr unary_neg(ExprPtr a) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::Unary;
  e->args = {std::move(a)};
  return e;
}

ExprPtr binary(BinOp op, ExprPtr a, ExprPtr b) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::Binary;
  e->bop = op;
  e->args = {std::move(a), std::move(b)};
  return e;
}

ExprPtr call(std::string fn, std::vector<ExprPtr> args) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::Call;
  e->name = std::move(fn);
  e->args = std::move(args);
  return e;
}

const char* bin_op_token(BinOp op) {
  switch (op) {
    case BinOp::Add: return "+";
    case BinOp::Sub: return "-";
    case BinOp::Mul: return "*";
    case BinOp::Div: return "/";
  }
  return "?";
}

namespace {

int precedence(const Expr& e) {
  switch (e.kind) {
    case ExprKind::Binary:
      return (e.bop == BinOp::Add || e.bop == BinOp::Sub) ? 1 : 2;
    case ExprKind::Unary:
      return 3;
    default:
      return 4;
  }
}

std::string index_to_string(const IndexExpr& ix,
                            const std::vector<std::string>& iters) {
  if (ix.is_const()) return std::to_string(ix.offset);
  ARTEMIS_CHECK(ix.iter < static_cast<int>(iters.size()));
  std::string s = iters[static_cast<std::size_t>(ix.iter)];
  if (ix.offset > 0) s += "+" + std::to_string(ix.offset);
  if (ix.offset < 0) s += std::to_string(ix.offset);
  return s;
}

std::string to_string_impl(const Expr& e, const std::vector<std::string>& iters,
                           int parent_prec) {
  std::string out;
  switch (e.kind) {
    case ExprKind::Number:
      out = format_double(e.number, 17);
      if (out.find('.') == std::string::npos &&
          out.find('e') == std::string::npos &&
          out.find("inf") == std::string::npos) {
        out += ".0";
      }
      break;
    case ExprKind::ScalarRef:
      out = e.name;
      break;
    case ExprKind::ArrayRef: {
      out = e.name;
      for (const auto& ix : e.indices) {
        out += "[" + index_to_string(ix, iters) + "]";
      }
      break;
    }
    case ExprKind::Unary:
      out = "-" + to_string_impl(*e.args[0], iters, precedence(e));
      break;
    case ExprKind::Binary: {
      const int prec = precedence(e);
      // Right operand of - and / needs parens at equal precedence.
      out = to_string_impl(*e.args[0], iters, prec) + " " +
            bin_op_token(e.bop) + " " +
            to_string_impl(*e.args[1], iters, prec + 1);
      break;
    }
    case ExprKind::Call: {
      std::vector<std::string> parts;
      parts.reserve(e.args.size());
      for (const auto& a : e.args) parts.push_back(to_string_impl(*a, iters, 0));
      out = e.name + "(" + join(parts, ", ") + ")";
      return out;  // calls never need parens
    }
  }
  if (precedence(e) < parent_prec) out = "(" + out + ")";
  return out;
}

}  // namespace

std::string to_string(const Expr& e, const std::vector<std::string>& iters) {
  return to_string_impl(e, iters, 0);
}

bool equal(const Expr& a, const Expr& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case ExprKind::Number:
      return a.number == b.number;
    case ExprKind::ScalarRef:
      return a.name == b.name;
    case ExprKind::ArrayRef:
      return a.name == b.name && a.indices == b.indices;
    case ExprKind::Unary:
      return equal(*a.args[0], *b.args[0]);
    case ExprKind::Binary:
      return a.bop == b.bop && equal(*a.args[0], *b.args[0]) &&
             equal(*a.args[1], *b.args[1]);
    case ExprKind::Call: {
      if (a.name != b.name || a.args.size() != b.args.size()) return false;
      for (std::size_t i = 0; i < a.args.size(); ++i) {
        if (!equal(*a.args[i], *b.args[i])) return false;
      }
      return true;
    }
  }
  return false;
}

std::int64_t flop_count(const Expr& e) {
  std::int64_t flops = 0;
  visit(e, [&flops](const Expr& n) {
    if (is_flop(n.kind)) ++flops;
  });
  return flops;
}

void visit(const Expr& e, const std::function<void(const Expr&)>& fn) {
  fn(e);
  for (const auto& a : e.args) visit(*a, fn);
}

ExprPtr rewrite(const ExprPtr& e,
                const std::function<ExprPtr(const ExprPtr&)>& fn) {
  ExprPtr reconstructed = e;
  if (!e->args.empty()) {
    std::vector<ExprPtr> new_args;
    new_args.reserve(e->args.size());
    bool changed = false;
    for (const auto& a : e->args) {
      ExprPtr na = rewrite(a, fn);
      changed |= (na != a);
      new_args.push_back(std::move(na));
    }
    if (changed) {
      auto copy = std::make_shared<Expr>(*e);
      copy->args = std::move(new_args);
      reconstructed = copy;
    }
  }
  if (ExprPtr replaced = fn(reconstructed)) return replaced;
  return reconstructed;
}

}  // namespace artemis::ir
