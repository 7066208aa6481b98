#include "algebra/expr.hpp"

#include <limits>
#include <sstream>

#include "common/error.hpp"

namespace cq::alg {

using rel::Value;
using rel::ValueType;

const char* to_string(CmpOp op) noexcept {
  switch (op) {
    case CmpOp::kEq: return "=";
    case CmpOp::kNe: return "<>";
    case CmpOp::kLt: return "<";
    case CmpOp::kLe: return "<=";
    case CmpOp::kGt: return ">";
    case CmpOp::kGe: return ">=";
  }
  return "?";
}

const char* to_string(ArithOp op) noexcept {
  switch (op) {
    case ArithOp::kAdd: return "+";
    case ArithOp::kSub: return "-";
    case ArithOp::kMul: return "*";
    case ArithOp::kDiv: return "/";
  }
  return "?";
}

std::shared_ptr<Expr> Expr::make_node() { return std::shared_ptr<Expr>(new Expr()); }

ExprPtr Expr::lit(Value v) {
  auto e = make_node();
  e->kind_ = Kind::kLiteral;
  e->literal_ = std::move(v);
  return e;
}

ExprPtr Expr::col(std::string name) {
  auto e = make_node();
  if (name.empty()) throw common::InvalidArgument("Expr::col: empty column name");
  e->kind_ = Kind::kColumn;
  e->column_ = std::move(name);
  return e;
}

ExprPtr Expr::cmp(CmpOp op, ExprPtr lhs, ExprPtr rhs) {
  if (!lhs || !rhs) throw common::InvalidArgument("Expr::cmp: null child");
  auto e = make_node();
  e->kind_ = Kind::kCompare;
  e->cmp_ = op;
  e->children_ = {std::move(lhs), std::move(rhs)};
  return e;
}

ExprPtr Expr::arith(ArithOp op, ExprPtr lhs, ExprPtr rhs) {
  if (!lhs || !rhs) throw common::InvalidArgument("Expr::arith: null child");
  auto e = make_node();
  e->kind_ = Kind::kArith;
  e->arith_ = op;
  e->children_ = {std::move(lhs), std::move(rhs)};
  return e;
}

ExprPtr Expr::logical_and(ExprPtr lhs, ExprPtr rhs) {
  if (!lhs || !rhs) throw common::InvalidArgument("Expr::logical_and: null child");
  auto e = make_node();
  e->kind_ = Kind::kLogical;
  e->logic_ = BoolOp::kAnd;
  e->children_ = {std::move(lhs), std::move(rhs)};
  return e;
}

ExprPtr Expr::logical_or(ExprPtr lhs, ExprPtr rhs) {
  if (!lhs || !rhs) throw common::InvalidArgument("Expr::logical_or: null child");
  auto e = make_node();
  e->kind_ = Kind::kLogical;
  e->logic_ = BoolOp::kOr;
  e->children_ = {std::move(lhs), std::move(rhs)};
  return e;
}

ExprPtr Expr::logical_not(ExprPtr child) {
  if (!child) throw common::InvalidArgument("Expr::logical_not: null child");
  auto e = make_node();
  e->kind_ = Kind::kLogical;
  e->logic_ = BoolOp::kNot;
  e->children_ = {std::move(child)};
  return e;
}

ExprPtr Expr::is_null(ExprPtr child, bool negated) {
  if (!child) throw common::InvalidArgument("Expr::is_null: null child");
  auto e = make_node();
  e->kind_ = Kind::kIsNull;
  e->negated_ = negated;
  e->children_ = {std::move(child)};
  return e;
}

ExprPtr Expr::in_list(ExprPtr child, std::vector<Value> values, bool negated) {
  if (!child) throw common::InvalidArgument("Expr::in_list: null child");
  auto e = make_node();
  e->kind_ = Kind::kIn;
  e->negated_ = negated;
  e->children_ = {std::move(child)};
  e->values_ = std::move(values);
  return e;
}

ExprPtr Expr::between(ExprPtr child, Value lo, Value hi) {
  if (!child) throw common::InvalidArgument("Expr::between: null child");
  auto e = make_node();
  e->kind_ = Kind::kBetween;
  e->children_ = {std::move(child)};
  e->values_ = {std::move(lo), std::move(hi)};
  return e;
}

ExprPtr Expr::like_prefix(ExprPtr child, std::string prefix) {
  if (!child) throw common::InvalidArgument("Expr::like_prefix: null child");
  auto e = make_node();
  e->kind_ = Kind::kLike;
  e->children_ = {std::move(child)};
  e->prefix_ = std::move(prefix);
  return e;
}

ExprPtr Expr::always_true() { return lit(Value(true)); }

namespace {
bool compare_values(CmpOp op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return false;  // two-valued logic
  const auto c = a.compare(b);
  switch (op) {
    case CmpOp::kEq: return c == std::strong_ordering::equal;
    case CmpOp::kNe: return c != std::strong_ordering::equal;
    case CmpOp::kLt: return c == std::strong_ordering::less;
    case CmpOp::kLe: return c != std::strong_ordering::greater;
    case CmpOp::kGt: return c == std::strong_ordering::greater;
    case CmpOp::kGe: return c != std::strong_ordering::less;
  }
  return false;
}

Value arith_values(ArithOp op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::null();
  if (a.type() == ValueType::kInt && b.type() == ValueType::kInt) {
    const auto x = a.as_int();
    const auto y = b.as_int();
    // INT64 overflow yields NULL, the same undefined-arithmetic result as
    // x/0. A thrown error here would break DRA ≡ recompute equivalence:
    // the full re-evaluation oracle touches every base row while the DRA
    // only touches deltas, so an overflowing row outside the delta zone
    // would crash one side and not the other. NULL keeps evaluation a
    // total, per-tuple-deterministic function (and UBSan-clean).
    std::int64_t r = 0;
    switch (op) {
      case ArithOp::kAdd:
        if (__builtin_add_overflow(x, y, &r)) return Value::null();
        return Value(r);
      case ArithOp::kSub:
        if (__builtin_sub_overflow(x, y, &r)) return Value::null();
        return Value(r);
      case ArithOp::kMul:
        if (__builtin_mul_overflow(x, y, &r)) return Value::null();
        return Value(r);
      case ArithOp::kDiv:
        if (y == 0) return Value::null();
        if (x == std::numeric_limits<std::int64_t>::min() && y == -1) {
          return Value::null();  // the one overflowing division
        }
        return Value(x / y);
    }
  }
  const double x = a.numeric();
  const double y = b.numeric();
  switch (op) {
    case ArithOp::kAdd: return Value(x + y);
    case ArithOp::kSub: return Value(x - y);
    case ArithOp::kMul: return Value(x * y);
    case ArithOp::kDiv:
      if (y == 0.0) return Value::null();
      return Value(x / y);
  }
  return Value::null();
}
}  // namespace

Value Expr::eval(const rel::Tuple& tuple, const rel::Schema& schema) const {
  return BoundExpr(*this, schema).eval(tuple);
}

bool Expr::eval_bool(const rel::Tuple& tuple, const rel::Schema& schema) const {
  return BoundExpr(*this, schema).eval_bool(tuple);
}

BoundExpr::BoundExpr(const Expr& expr, const rel::Schema& schema) {
  (void)bind(expr, schema, 0);
}

std::uint32_t BoundExpr::bind(const Expr& expr, const rel::Schema& schema,
                              std::size_t depth) {
  const auto at = static_cast<std::uint32_t>(nodes_.size());
  nodes_.push_back(Node{.expr = &expr});
  if (depth >= Expr::kMaxEvalDepth) {
    nodes_[at].slot = Slot::kTooDeep;  // never descend: the walk stops here
    return at;
  }
  if (expr.kind() == Expr::Kind::kColumn) {
    if (const auto position = schema.find(expr.column())) {
      nodes_[at].index = static_cast<std::uint32_t>(*position);
    } else {
      // Keep index_of's exact message (missing vs ambiguous) for the
      // evaluation that reaches this column, if any.
      try {
        (void)schema.index_of(expr.column());
      } catch (const common::NotFound& e) {
        nodes_[at].slot = Slot::kUnresolved;
        nodes_[at].index = static_cast<std::uint32_t>(errors_.size());
        errors_.emplace_back(e.what());
      }
    }
  }
  const auto& children = expr.children();
  for (std::size_t c = 0; c < children.size() && c < 2; ++c) {
    const std::uint32_t child = bind(*children[c], schema, depth + 1);  // may grow nodes_
    nodes_[at].child[c] = child;
  }
  return at;
}

Value BoundExpr::eval(const rel::Tuple& row) const {
  Value out;
  const Value& v = eval_ref(0, row, out);
  return &v == &out ? std::move(out) : v;
}

bool BoundExpr::eval_bool(const rel::Tuple& row) const { return truth(0, row); }

bool BoundExpr::truth(std::uint32_t i, const rel::Tuple& row) const {
  Value out;
  const Value& v = eval_ref(i, row, out);
  return v.type() == ValueType::kBool && v.as_bool();
}

const Value& BoundExpr::eval_ref(std::uint32_t i, const rel::Tuple& row,
                                 Value& out) const {
  const Node& node = nodes_[i];
  if (node.slot == Slot::kTooDeep) {
    throw common::InvalidArgument("Expr::eval: expression nesting too deep");
  }
  const Expr& e = *node.expr;
  switch (e.kind()) {
    case Expr::Kind::kLiteral:
      return e.literal();
    case Expr::Kind::kColumn:
      if (node.slot == Slot::kUnresolved) throw common::NotFound(errors_[node.index]);
      return row.at(node.index);
    case Expr::Kind::kCompare: {
      Value lhs_out;
      Value rhs_out;
      const Value& lhs = eval_ref(node.child[0], row, lhs_out);
      const Value& rhs = eval_ref(node.child[1], row, rhs_out);
      out = Value(compare_values(e.cmp_op(), lhs, rhs));
      return out;
    }
    case Expr::Kind::kArith: {
      Value lhs_out;
      Value rhs_out;
      const Value& lhs = eval_ref(node.child[0], row, lhs_out);
      const Value& rhs = eval_ref(node.child[1], row, rhs_out);
      out = arith_values(e.arith_op(), lhs, rhs);
      return out;
    }
    case Expr::Kind::kLogical:
      switch (e.bool_op()) {
        case BoolOp::kAnd:
          out = Value(truth(node.child[0], row) && truth(node.child[1], row));
          return out;
        case BoolOp::kOr:
          out = Value(truth(node.child[0], row) || truth(node.child[1], row));
          return out;
        case BoolOp::kNot:
          out = Value(!truth(node.child[0], row));
          return out;
      }
      out = Value(false);
      return out;
    case Expr::Kind::kIsNull: {
      const bool null = eval_ref(node.child[0], row, out).is_null();
      out = Value(e.negated() ? !null : null);
      return out;
    }
    case Expr::Kind::kIn: {
      Value operand_out;
      const Value& v = eval_ref(node.child[0], row, operand_out);
      if (v.is_null()) {
        out = Value(false);
        return out;
      }
      bool found = false;
      for (const auto& candidate : e.values()) {
        if (v == candidate) {
          found = true;
          break;
        }
      }
      out = Value(e.negated() ? !found : found);
      return out;
    }
    case Expr::Kind::kBetween: {
      Value operand_out;
      const Value& v = eval_ref(node.child[0], row, operand_out);
      out = Value(compare_values(CmpOp::kGe, v, e.values()[0]) &&
                  compare_values(CmpOp::kLe, v, e.values()[1]));
      return out;
    }
    case Expr::Kind::kLike: {
      Value operand_out;
      const Value& v = eval_ref(node.child[0], row, operand_out);
      bool match = false;
      if (v.type() == ValueType::kString) {
        const auto& s = v.as_string();
        const auto& prefix = e.prefix();
        match = s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
      }
      out = Value(match);
      return out;
    }
  }
  out = Value::null();
  return out;
}

void Expr::collect_columns(std::vector<std::string>& out) const {
  if (kind_ == Kind::kColumn) out.push_back(column_);
  for (const auto& c : children_) c->collect_columns(out);
}

std::vector<std::string> Expr::columns() const {
  std::vector<std::string> all;
  collect_columns(all);
  std::vector<std::string> unique;
  for (auto& name : all) {
    bool seen = false;
    for (const auto& u : unique) {
      if (u == name) {
        seen = true;
        break;
      }
    }
    if (!seen) unique.push_back(std::move(name));
  }
  return unique;
}

bool Expr::resolves_in(const rel::Schema& schema) const {
  for (const auto& c : columns()) {
    if (!schema.contains(c)) return false;
  }
  return true;
}

ExprPtr Expr::rewrite_impl(
    const std::function<std::string(const std::string&)>& rename) const {
  auto e = make_node();
  e->kind_ = kind_;
  e->literal_ = literal_;
  e->column_ = kind_ == Kind::kColumn ? rename(column_) : column_;
  e->cmp_ = cmp_;
  e->arith_ = arith_;
  e->logic_ = logic_;
  e->negated_ = negated_;
  e->values_ = values_;
  e->prefix_ = prefix_;
  e->children_.reserve(children_.size());
  for (const auto& c : children_) e->children_.push_back(c->rewrite_impl(rename));
  return e;
}

std::string Expr::to_string() const {
  std::ostringstream os;
  switch (kind_) {
    case Kind::kLiteral:
      os << literal_.to_string();
      break;
    case Kind::kColumn:
      os << column_;
      break;
    case Kind::kCompare:
      os << "(" << children_[0]->to_string() << " " << alg::to_string(cmp_) << " "
         << children_[1]->to_string() << ")";
      break;
    case Kind::kArith:
      os << "(" << children_[0]->to_string() << " " << alg::to_string(arith_) << " "
         << children_[1]->to_string() << ")";
      break;
    case Kind::kLogical:
      if (logic_ == BoolOp::kNot) {
        os << "NOT " << children_[0]->to_string();
      } else {
        os << "(" << children_[0]->to_string()
           << (logic_ == BoolOp::kAnd ? " AND " : " OR ") << children_[1]->to_string()
           << ")";
      }
      break;
    case Kind::kIsNull:
      os << children_[0]->to_string() << (negated_ ? " IS NOT NULL" : " IS NULL");
      break;
    case Kind::kIn: {
      os << children_[0]->to_string() << (negated_ ? " NOT IN (" : " IN (");
      for (std::size_t i = 0; i < values_.size(); ++i) {
        if (i > 0) os << ", ";
        os << values_[i].to_string();
      }
      os << ")";
      break;
    }
    case Kind::kBetween:
      os << children_[0]->to_string() << " BETWEEN " << values_[0].to_string() << " AND "
         << values_[1].to_string();
      break;
    case Kind::kLike: {
      os << children_[0]->to_string() << " LIKE ";
      // Render through Value quoting so embedded quotes re-parse (the parser
      // re-validates the prefix-only shape on the way back in).
      std::string pattern = Value(prefix_ + "%").to_string();
      os << pattern;
      break;
    }
  }
  return os.str();
}

ExprPtr conjoin(const std::vector<ExprPtr>& conjuncts) {
  ExprPtr acc;
  for (const auto& c : conjuncts) {
    if (!c) continue;
    acc = acc ? Expr::logical_and(acc, c) : c;
  }
  return acc ? acc : Expr::always_true();
}

}  // namespace cq::alg
