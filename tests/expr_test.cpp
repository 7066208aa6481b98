#include "algebra/expr.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "algebra/predicate.hpp"
#include "common/error.hpp"

namespace cq::alg {
namespace {

using rel::Schema;
using rel::Tuple;
using rel::Value;
using rel::ValueType;

const Schema kSchema = Schema::of(
    {{"name", ValueType::kString}, {"price", ValueType::kInt}, {"qty", ValueType::kInt}});
const Tuple kRow({Value("DEC"), Value(150), Value(10)});

TEST(Expr, LiteralAndColumn) {
  EXPECT_EQ(Expr::lit(Value(5))->eval(kRow, kSchema), Value(5));
  EXPECT_EQ(Expr::col("price")->eval(kRow, kSchema), Value(150));
  EXPECT_THROW(Expr::col("missing")->eval(kRow, kSchema), common::NotFound);
  EXPECT_THROW(Expr::col(""), common::InvalidArgument);
}

TEST(Expr, Comparisons) {
  EXPECT_TRUE(Expr::col_cmp("price", CmpOp::kGt, Value(120))->eval_bool(kRow, kSchema));
  EXPECT_FALSE(Expr::col_cmp("price", CmpOp::kLt, Value(120))->eval_bool(kRow, kSchema));
  EXPECT_TRUE(Expr::col_cmp("price", CmpOp::kEq, Value(150))->eval_bool(kRow, kSchema));
  EXPECT_TRUE(Expr::col_cmp("price", CmpOp::kNe, Value(151))->eval_bool(kRow, kSchema));
  EXPECT_TRUE(Expr::col_cmp("price", CmpOp::kGe, Value(150))->eval_bool(kRow, kSchema));
  EXPECT_TRUE(Expr::col_cmp("price", CmpOp::kLe, Value(150))->eval_bool(kRow, kSchema));
  EXPECT_TRUE(Expr::col_cmp("name", CmpOp::kEq, Value("DEC"))->eval_bool(kRow, kSchema));
}

TEST(Expr, ComparisonWithNullIsFalse) {
  const Tuple with_null({Value("DEC"), Value::null(), Value(10)});
  EXPECT_FALSE(Expr::col_cmp("price", CmpOp::kGt, Value(0))->eval_bool(with_null, kSchema));
  EXPECT_FALSE(Expr::col_cmp("price", CmpOp::kEq, Value::null())->eval_bool(kRow, kSchema));
}

TEST(Expr, Arithmetic) {
  const auto sum = Expr::arith(ArithOp::kAdd, Expr::col("price"), Expr::col("qty"));
  EXPECT_EQ(sum->eval(kRow, kSchema), Value(160));
  const auto product = Expr::arith(ArithOp::kMul, Expr::col("qty"), Expr::lit(Value(3)));
  EXPECT_EQ(product->eval(kRow, kSchema), Value(30));
  const auto mixed = Expr::arith(ArithOp::kDiv, Expr::col("price"), Expr::lit(Value(4.0)));
  EXPECT_EQ(mixed->eval(kRow, kSchema), Value(37.5));
}

TEST(Expr, DivisionByZeroIsNull) {
  const auto div = Expr::arith(ArithOp::kDiv, Expr::col("price"), Expr::lit(Value(0)));
  EXPECT_TRUE(div->eval(kRow, kSchema).is_null());
}

TEST(Expr, ArithmeticWithNullIsNull) {
  const auto e = Expr::arith(ArithOp::kAdd, Expr::col("price"), Expr::lit(Value::null()));
  EXPECT_TRUE(e->eval(kRow, kSchema).is_null());
}

TEST(Expr, Logical) {
  const auto t = Expr::always_true();
  const auto f = Expr::lit(Value(false));
  EXPECT_TRUE(Expr::logical_and(t, t)->eval_bool(kRow, kSchema));
  EXPECT_FALSE(Expr::logical_and(t, f)->eval_bool(kRow, kSchema));
  EXPECT_TRUE(Expr::logical_or(f, t)->eval_bool(kRow, kSchema));
  EXPECT_FALSE(Expr::logical_or(f, f)->eval_bool(kRow, kSchema));
  EXPECT_TRUE(Expr::logical_not(f)->eval_bool(kRow, kSchema));
}

TEST(Expr, IsNull) {
  const Tuple with_null({Value::null(), Value(1), Value(2)});
  EXPECT_TRUE(Expr::is_null(Expr::col("name"))->eval_bool(with_null, kSchema));
  EXPECT_FALSE(Expr::is_null(Expr::col("name"))->eval_bool(kRow, kSchema));
  EXPECT_TRUE(Expr::is_null(Expr::col("name"), true)->eval_bool(kRow, kSchema));
}

TEST(Expr, InList) {
  const auto in = Expr::in_list(Expr::col("name"), {Value("IBM"), Value("DEC")});
  EXPECT_TRUE(in->eval_bool(kRow, kSchema));
  const auto not_in =
      Expr::in_list(Expr::col("name"), {Value("IBM")}, /*negated=*/true);
  EXPECT_TRUE(not_in->eval_bool(kRow, kSchema));
}

TEST(Expr, Between) {
  EXPECT_TRUE(Expr::between(Expr::col("price"), Value(100), Value(200))
                  ->eval_bool(kRow, kSchema));
  EXPECT_TRUE(Expr::between(Expr::col("price"), Value(150), Value(150))
                  ->eval_bool(kRow, kSchema));
  EXPECT_FALSE(Expr::between(Expr::col("price"), Value(151), Value(200))
                   ->eval_bool(kRow, kSchema));
}

TEST(Expr, LikePrefix) {
  EXPECT_TRUE(Expr::like_prefix(Expr::col("name"), "DE")->eval_bool(kRow, kSchema));
  EXPECT_FALSE(Expr::like_prefix(Expr::col("name"), "EC")->eval_bool(kRow, kSchema));
  EXPECT_TRUE(Expr::like_prefix(Expr::col("name"), "")->eval_bool(kRow, kSchema));
  // Non-string input never matches.
  EXPECT_FALSE(Expr::like_prefix(Expr::col("price"), "1")->eval_bool(kRow, kSchema));
}

TEST(Expr, CollectColumnsDeduplicated) {
  const auto e = Expr::logical_and(Expr::col_cmp("price", CmpOp::kGt, Value(1)),
                                   Expr::col_cmp("price", CmpOp::kLt, Value(9)));
  EXPECT_EQ(e->columns(), std::vector<std::string>{"price"});
}

TEST(Expr, ResolvesIn) {
  const auto e = Expr::col_cmp("price", CmpOp::kGt, Value(1));
  EXPECT_TRUE(e->resolves_in(kSchema));
  EXPECT_FALSE(e->resolves_in(rel::Schema::of({{"other", ValueType::kInt}})));
}

TEST(Expr, RewriteColumns) {
  // The DRA's old/new substitution: price -> price_old.
  const auto e = Expr::logical_and(Expr::col_cmp("price", CmpOp::kGt, Value(120)),
                                   Expr::col_cmp("name", CmpOp::kEq, Value("DEC")));
  const auto rewritten =
      e->rewrite_columns([](const std::string& c) { return c + "_old"; });
  const auto cols = rewritten->columns();
  EXPECT_EQ(cols.size(), 2u);
  EXPECT_EQ(cols[0], "price_old");
  EXPECT_EQ(cols[1], "name_old");
  // Original untouched.
  EXPECT_EQ(e->columns()[0], "price");
}

TEST(Expr, ToStringRoundTripShape) {
  const auto e = Expr::logical_and(Expr::col_cmp("price", CmpOp::kGt, Value(120)),
                                   Expr::like_prefix(Expr::col("name"), "DE"));
  EXPECT_EQ(e->to_string(), "((price > 120) AND name LIKE 'DE%')");
}

TEST(Conjoin, EmptyIsTrue) {
  EXPECT_TRUE(is_always_true(conjoin({})));
  EXPECT_TRUE(is_always_true(conjoin({nullptr, nullptr})));
}

TEST(Conjoin, SingleIsIdentity) {
  const auto e = Expr::col_cmp("price", CmpOp::kGt, Value(1));
  EXPECT_EQ(conjoin({e}), e);
}

// The bound evaluator resolves columns once but keeps the by-name error
// timing: binding never throws, evaluation throws only on reaching the
// offending node.

TEST(BoundExpr, AmbiguousBareColumnThrowsNotFoundWhenReached) {
  const Schema joined = Schema::of({{"S.price", ValueType::kInt},
                                    {"T.price", ValueType::kInt}});
  const Tuple row({Value(1), Value(2)});
  const auto bare = Expr::col("price");
  std::optional<BoundExpr> bound;
  ASSERT_NO_THROW(bound.emplace(*bare, joined));
  EXPECT_THROW((void)bound->eval(row), common::NotFound);
  EXPECT_THROW((void)bare->eval(row, joined), common::NotFound);
  // The qualified names resolve to their own positions.
  EXPECT_EQ(BoundExpr(*Expr::col("T.price"), joined).eval(row), Value(2));
}

TEST(BoundExpr, ShortCircuitSkipsUnresolvedColumn) {
  const auto missing = Expr::col_cmp("missing", CmpOp::kEq, Value(1));
  const auto guarded_and = Expr::logical_and(Expr::lit(Value(false)), missing);
  const auto guarded_or = Expr::logical_or(Expr::lit(Value(true)), missing);
  std::optional<BoundExpr> bound;
  ASSERT_NO_THROW(bound.emplace(*guarded_and, kSchema));
  EXPECT_FALSE(bound->eval_bool(kRow));
  EXPECT_EQ(bound->eval(kRow), Value(false));
  EXPECT_TRUE(BoundExpr(*guarded_or, kSchema).eval_bool(kRow));
  // Once evaluation reaches the column, it throws.
  const auto reached = Expr::logical_and(Expr::lit(Value(true)), missing);
  EXPECT_THROW((void)BoundExpr(*reached, kSchema).eval_bool(kRow), common::NotFound);
}

TEST(BoundExpr, TreePastMaxDepthThrowsInvalidArgumentWhenReached) {
  ExprPtr deep = Expr::col("price");
  for (std::size_t i = 0; i < Expr::kMaxEvalDepth + 8; ++i) {
    deep = Expr::arith(ArithOp::kAdd, deep, Expr::lit(Value(1)));
  }
  std::optional<BoundExpr> bound;
  ASSERT_NO_THROW(bound.emplace(*deep, kSchema));
  EXPECT_THROW((void)bound->eval(kRow), common::InvalidArgument);
  EXPECT_THROW((void)deep->eval(kRow, kSchema), common::InvalidArgument);
  // Behind a short-circuit the depth ceiling is never reached.
  const auto guarded = Expr::logical_and(
      Expr::lit(Value(false)), Expr::cmp(CmpOp::kGt, deep, Expr::lit(Value(0))));
  EXPECT_FALSE(BoundExpr(*guarded, kSchema).eval_bool(kRow));
  // A chain just inside the ceiling still evaluates.
  ExprPtr shallow = Expr::col("price");
  for (std::size_t i = 0; i + 1 < Expr::kMaxEvalDepth; ++i) {
    shallow = Expr::arith(ArithOp::kAdd, shallow, Expr::lit(Value(1)));
  }
  EXPECT_EQ(shallow->eval(kRow, kSchema),
            Value(static_cast<std::int64_t>(150 + Expr::kMaxEvalDepth - 1)));
}

TEST(BoundExpr, BindsOnceForManyRows) {
  const auto pred = Expr::logical_and(Expr::col_cmp("price", CmpOp::kGt, Value(100)),
                                      Expr::like_prefix(Expr::col("name"), "D"));
  const BoundExpr bound(*pred, kSchema);
  EXPECT_TRUE(bound.eval_bool(kRow));
  EXPECT_FALSE(bound.eval_bool(Tuple({Value("DEC"), Value(99), Value(1)})));
  EXPECT_FALSE(bound.eval_bool(Tuple({Value("IBM"), Value(150), Value(1)})));
  EXPECT_FALSE(bound.eval_bool(Tuple({Value::null(), Value(150), Value(1)})));
}

TEST(Expr, NullChildrenRejected) {
  EXPECT_THROW(Expr::cmp(CmpOp::kEq, nullptr, Expr::lit(Value(1))),
               common::InvalidArgument);
  EXPECT_THROW(Expr::logical_not(nullptr), common::InvalidArgument);
}

}  // namespace
}  // namespace cq::alg
