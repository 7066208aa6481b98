// Expression-evaluator target: decode the input bytes into (a) a tuple of
// adversarial scalar Values — NULLs, INT64 extremes, arbitrary double bit
// patterns including NaN/Inf, strings with quotes — and (b) a random
// expression tree over those columns, then evaluate.
//
// Oracles:
//   1. eval/eval_bool either return a Value or throw a typed error
//      (NotFound for bad columns, InvalidArgument past kMaxEvalDepth);
//      signed-overflow UB or stack overflow is a crash the sanitizers flag.
//   2. Evaluation is deterministic: the same tree over the same tuple
//      yields the same Value twice.
//   3. Integer arithmetic that would overflow yields NULL, never a wrong
//      wrapped value (checked against __int128 ground truth for the
//      top-level node when both operands are INT).
//   4. The position-bound evaluator (BoundExpr, behind eval/eval_bool)
//      equals by-name evaluation on every tree: the same Value, or the
//      same exception type and message. Checked over the full schema, over
//      one where a bare column is ambiguous and others are missing, and
//      with an unresolvable column placed behind AND/OR short-circuits.
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "algebra/expr.hpp"
#include "common/error.hpp"
#include "fuzz_entry.hpp"
#include "relation/schema.hpp"
#include "relation/tuple.hpp"
#include "testing/fuzz_input.hpp"

namespace cq::fuzz {

namespace {

using alg::Expr;
using alg::ExprPtr;
using rel::Value;
using testing::ByteReader;

const char* const kColumns[] = {"b", "i", "j", "d", "s"};

Value random_value(ByteReader& in) {
  switch (in.index(8)) {
    case 0: return Value::null();
    case 1: return Value(in.flip());
    case 2: return Value(in.i64());  // full range, INT64_MIN included
    case 3: return Value(static_cast<std::int64_t>(in.range(-8, 8)));
    case 4: {
      std::uint64_t bits = static_cast<std::uint64_t>(in.i64());
      double d = 0;
      std::memcpy(&d, &bits, sizeof(d));  // NaN, Inf, denormals — all fair
      return Value(d);
    }
    case 5: return Value(in.str(12));
    case 6: return Value(std::string("a'b\"c\\"));  // quoting stress
    default: return Value(static_cast<std::int64_t>(in.range(0, 100)));
  }
}

ExprPtr random_expr(ByteReader& in, std::size_t depth) {
  if (depth == 0 || in.index(3) == 0) {
    return in.flip() ? Expr::col(kColumns[in.index(std::size(kColumns))])
                     : Expr::lit(random_value(in));
  }
  switch (in.index(7)) {
    case 0: {
      static constexpr alg::CmpOp kOps[] = {alg::CmpOp::kEq, alg::CmpOp::kNe,
                                            alg::CmpOp::kLt, alg::CmpOp::kLe,
                                            alg::CmpOp::kGt, alg::CmpOp::kGe};
      return Expr::cmp(kOps[in.index(std::size(kOps))], random_expr(in, depth - 1),
                       random_expr(in, depth - 1));
    }
    case 1: {
      static constexpr alg::ArithOp kOps[] = {alg::ArithOp::kAdd, alg::ArithOp::kSub,
                                              alg::ArithOp::kMul, alg::ArithOp::kDiv};
      return Expr::arith(kOps[in.index(std::size(kOps))], random_expr(in, depth - 1),
                         random_expr(in, depth - 1));
    }
    case 2:
      return in.flip() ? Expr::logical_and(random_expr(in, depth - 1),
                                           random_expr(in, depth - 1))
                       : Expr::logical_or(random_expr(in, depth - 1),
                                          random_expr(in, depth - 1));
    case 3: return Expr::logical_not(random_expr(in, depth - 1));
    case 4: return Expr::is_null(random_expr(in, depth - 1), in.flip());
    case 5: {
      std::vector<Value> list;
      const std::size_t n = in.index(4);
      for (std::size_t i = 0; i < n; ++i) list.push_back(random_value(in));
      return Expr::in_list(random_expr(in, depth - 1), std::move(list), in.flip());
    }
    default:
      return in.flip()
                 ? Expr::between(random_expr(in, depth - 1), random_value(in),
                                 random_value(in))
                 : Expr::like_prefix(random_expr(in, depth - 1), in.str(6));
  }
}

/// A pathological linear chain: depth comes straight from the input so the
/// fuzzer can push past Expr::kMaxEvalDepth and hit the typed ceiling.
ExprPtr deep_chain(ByteReader& in) {
  const std::size_t depth = in.u32() % (2 * Expr::kMaxEvalDepth);
  ExprPtr e = Expr::col("i");
  for (std::size_t i = 0; i < depth; ++i) {
    e = in.flip() ? Expr::arith(alg::ArithOp::kAdd, std::move(e), Expr::lit(Value(1)))
                  : Expr::logical_not(std::move(e));
  }
  return e;
}

/// By-name reference for oracle 4: a plain walk that looks every column up
/// by name when reached, left operand first. Leaf operator semantics
/// (comparison, NULL-propagating arithmetic) come from the library through
/// literal nodes; what this pins is resolution, walk order, short-circuits
/// and the depth ceiling.
Value by_name(const Expr& e, const rel::Tuple& t, const rel::Schema& s, std::size_t depth);

bool by_name_truth(const Expr& e, const rel::Tuple& t, const rel::Schema& s,
                   std::size_t depth) {
  const Value v = by_name(e, t, s, depth);
  return v.type() == rel::ValueType::kBool && v.as_bool();
}

Value by_name(const Expr& e, const rel::Tuple& t, const rel::Schema& s, std::size_t depth) {
  if (depth >= Expr::kMaxEvalDepth) {
    throw common::InvalidArgument("Expr::eval: expression nesting too deep");
  }
  static const rel::Schema kNoColumns;
  static const rel::Tuple kNoRow;
  const auto& kids = e.children();
  switch (e.kind()) {
    case Expr::Kind::kLiteral:
      return e.literal();
    case Expr::Kind::kColumn:
      return t.at(s.index_of(e.column()));
    case Expr::Kind::kCompare: {
      Value lhs = by_name(*kids[0], t, s, depth + 1);
      Value rhs = by_name(*kids[1], t, s, depth + 1);
      return Expr::cmp(e.cmp_op(), Expr::lit(std::move(lhs)), Expr::lit(std::move(rhs)))
          ->eval(kNoRow, kNoColumns);
    }
    case Expr::Kind::kArith: {
      Value lhs = by_name(*kids[0], t, s, depth + 1);
      Value rhs = by_name(*kids[1], t, s, depth + 1);
      return Expr::arith(e.arith_op(), Expr::lit(std::move(lhs)), Expr::lit(std::move(rhs)))
          ->eval(kNoRow, kNoColumns);
    }
    case Expr::Kind::kLogical:
      switch (e.bool_op()) {
        case alg::BoolOp::kAnd:
          return Value(by_name_truth(*kids[0], t, s, depth + 1) &&
                       by_name_truth(*kids[1], t, s, depth + 1));
        case alg::BoolOp::kOr:
          return Value(by_name_truth(*kids[0], t, s, depth + 1) ||
                       by_name_truth(*kids[1], t, s, depth + 1));
        case alg::BoolOp::kNot:
          return Value(!by_name_truth(*kids[0], t, s, depth + 1));
      }
      return Value(false);
    case Expr::Kind::kIsNull: {
      const bool null = by_name(*kids[0], t, s, depth + 1).is_null();
      return Value(e.negated() ? !null : null);
    }
    case Expr::Kind::kIn: {
      const Value v = by_name(*kids[0], t, s, depth + 1);
      if (v.is_null()) return Value(false);
      bool found = false;
      for (const auto& candidate : e.values()) found = found || v == candidate;
      return Value(e.negated() ? !found : found);
    }
    case Expr::Kind::kBetween:
      return Expr::between(Expr::lit(by_name(*kids[0], t, s, depth + 1)), e.values()[0],
                           e.values()[1])
          ->eval(kNoRow, kNoColumns);
    case Expr::Kind::kLike:
      return Expr::like_prefix(Expr::lit(by_name(*kids[0], t, s, depth + 1)), e.prefix())
          ->eval(kNoRow, kNoColumns);
  }
  return Value::null();
}

/// What one evaluation did: a value, or which typed error it threw.
struct Outcome {
  enum class Kind { kValue, kNotFound, kInvalidArgument, kOtherError } kind = Kind::kValue;
  Value value;
  std::string message;

  bool operator==(const Outcome& o) const {
    return kind == o.kind && message == o.message && (kind != Kind::kValue || value == o.value);
  }
};

template <typename Fn>
Outcome outcome_of(Fn&& fn) {
  Outcome out;
  try {
    out.value = fn();
  } catch (const common::NotFound& e) {
    out = {Outcome::Kind::kNotFound, Value::null(), e.what()};
  } catch (const common::InvalidArgument& e) {
    out = {Outcome::Kind::kInvalidArgument, Value::null(), e.what()};
  } catch (const common::Error& e) {
    out = {Outcome::Kind::kOtherError, Value::null(), e.what()};
  }
  return out;
}

/// Oracle 4 for one (tree, row, schema): Value and predicate form.
void check_bound_matches_by_name(const Expr& e, const rel::Tuple& t, const rel::Schema& s) {
  std::optional<alg::BoundExpr> bound;
  try {
    bound.emplace(e, s);
  } catch (const common::Error&) {
    violation("expr_eval", "binding threw; errors belong to evaluation", e.to_string().c_str());
    return;
  }
  if (!(outcome_of([&] { return bound->eval(t); }) ==
        outcome_of([&] { return by_name(e, t, s, 0); }))) {
    violation("expr_eval", "bound eval differs from by-name eval", e.to_string().c_str());
  }
  if (!(outcome_of([&] { return Value(bound->eval_bool(t)); }) ==
        outcome_of([&] { return Value(by_name_truth(e, t, s, 0)); }))) {
    violation("expr_eval", "bound eval_bool differs from by-name eval_bool",
              e.to_string().c_str());
  }
}

}  // namespace

int expr_eval_target(const std::uint8_t* data, std::size_t size) {
  ByteReader in(data, size);
  const auto schema = rel::Schema::of({{"b", rel::ValueType::kBool},
                                       {"i", rel::ValueType::kInt},
                                       {"j", rel::ValueType::kInt},
                                       {"d", rel::ValueType::kDouble},
                                       {"s", rel::ValueType::kString}});
  std::vector<Value> values;
  values.reserve(schema.size());
  values.push_back(in.flip() ? Value(in.flip()) : Value::null());
  values.push_back(Value(in.i64()));
  values.push_back(Value(in.i64()));
  values.push_back(random_value(in));
  values.push_back(Value(in.str(8)));
  const rel::Tuple tuple(values);

  const ExprPtr expr = in.index(8) == 0 ? deep_chain(in) : random_expr(in, 5);

  Value first;
  bool threw = false;
  try {
    first = expr->eval(tuple, schema);
  } catch (const common::Error&) {
    threw = true;  // typed rejection (depth ceiling etc.): fine
  }
  try {
    const Value second = expr->eval(tuple, schema);
    if (threw) {
      violation("expr_eval", "eval threw once then succeeded",
                expr->to_string().c_str());
    }
    if (!(first == second)) {
      violation("expr_eval", "eval is nondeterministic", expr->to_string().c_str());
    }
  } catch (const common::Error&) {
    if (!threw) {
      violation("expr_eval", "eval succeeded once then threw",
                expr->to_string().c_str());
    }
  }

  // Ground-truth overflow check on a fresh top-level arith node.
  const std::int64_t lhs = values[1].as_int();
  const std::int64_t rhs = values[2].as_int();
  const auto node = Expr::arith(alg::ArithOp::kAdd, Expr::col("i"), Expr::col("j"));
  const Value sum = node->eval(tuple, schema);
  const __int128 wide = static_cast<__int128>(lhs) + static_cast<__int128>(rhs);
  if (wide >= INT64_MIN && wide <= INT64_MAX) {
    if (sum.is_null() || sum.as_int() != static_cast<std::int64_t>(wide)) {
      violation("expr_eval", "in-range INT addition wrong", node->to_string().c_str());
    }
  } else if (!sum.is_null()) {
    violation("expr_eval", "overflowing INT addition did not yield NULL",
              node->to_string().c_str());
  }

  try {
    (void)expr->eval_bool(tuple, schema);
  } catch (const common::Error&) {
  }

  // Oracle 4. The narrow schema drops "j" and "s" and qualifies the rest so
  // that bare "i" is ambiguous; "b" and "d" still resolve by suffix.
  const auto narrow = rel::Schema::of({{"t.b", rel::ValueType::kBool},
                                       {"t.i", rel::ValueType::kInt},
                                       {"u.i", rel::ValueType::kInt},
                                       {"t.d", rel::ValueType::kDouble}});
  const rel::Tuple narrow_tuple({values[0], values[1], values[2], values[3]});
  const ExprPtr missing = Expr::col_cmp("missing", alg::CmpOp::kEq, Value(1));
  const ExprPtr trees[] = {expr, Expr::logical_and(expr, missing),
                           Expr::logical_or(expr, missing),
                           Expr::logical_and(Expr::logical_not(expr), missing)};
  for (const auto& tree : trees) {
    check_bound_matches_by_name(*tree, tuple, schema);
    check_bound_matches_by_name(*tree, narrow_tuple, narrow);
  }
  return 0;
}

}  // namespace cq::fuzz

CQ_FUZZ_ENTRY(cq::fuzz::expr_eval_target)
