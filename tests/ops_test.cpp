#include "algebra/ops.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "common/error.hpp"

namespace cq::alg {
namespace {

using common::Metrics;
using rel::Relation;
using rel::Schema;
using rel::Tuple;
using rel::Value;
using rel::ValueType;

Relation people() {
  Relation r = Relation::keyed_table(
      Schema::of({{"p.name", ValueType::kString}, {"p.dept", ValueType::kInt}}));
  r.insert_values({Value("ann"), Value(1)});
  r.insert_values({Value("bob"), Value(2)});
  r.insert_values({Value("cat"), Value(1)});
  return r;
}

Relation depts() {
  Relation r = Relation::keyed_table(
      Schema::of({{"d.id", ValueType::kInt}, {"d.label", ValueType::kString}}));
  r.insert_values({Value(1), Value("eng")});
  r.insert_values({Value(2), Value("ops")});
  r.insert_values({Value(3), Value("hr")});
  return r;
}

TEST(Select, FiltersAndKeepsTids) {
  const Relation r = people();
  const Relation out = select(r, *Expr::col_cmp("p.dept", CmpOp::kEq, Value(1)));
  EXPECT_EQ(out.size(), 2u);
  for (const auto& row : out.rows()) EXPECT_TRUE(row.tid().valid());
}

TEST(Select, CountsMetrics) {
  Metrics m;
  const Relation out = select(people(), *Expr::always_true(), &m);
  EXPECT_EQ(out.size(), 3u);
  EXPECT_EQ(m.get(common::metric::kRowsScanned), 3);
  EXPECT_EQ(m.get(common::metric::kRowsOutput), 3);
}

TEST(Project, KeepsMultiplicityWithoutDedup) {
  const Relation out = project(people(), {"p.dept"}, /*dedup=*/false);
  EXPECT_EQ(out.size(), 3u);
  EXPECT_EQ(out.schema().size(), 1u);
}

TEST(Project, DedupProducesSet) {
  const Relation out = project(people(), {"p.dept"}, /*dedup=*/true);
  EXPECT_EQ(out.size(), 2u);
}

TEST(Project, ReordersColumns) {
  const Relation out = project(people(), {"p.dept", "p.name"}, false);
  EXPECT_EQ(out.schema().at(0).name, "p.dept");
  EXPECT_EQ(out.row(0).at(0).type(), ValueType::kInt);
}

TEST(NestedLoopJoin, CrossProductWithoutPredicate) {
  const Relation out = nested_loop_join(people(), depts(), nullptr);
  EXPECT_EQ(out.size(), 9u);
  EXPECT_EQ(out.schema().size(), 4u);
}

TEST(NestedLoopJoin, ThetaJoin) {
  const auto pred = Expr::cmp(CmpOp::kEq, Expr::col("p.dept"), Expr::col("d.id"));
  const Relation out = nested_loop_join(people(), depts(), pred.get());
  EXPECT_EQ(out.size(), 3u);
}

/// One NULL key and one `1` key on each side: `=` is never true on NULL,
/// so only the two `1` rows join.
std::pair<Relation, Relation> null_keyed_pair() {
  Relation a =
      Relation::keyed_table(Schema::of({{"a.k", ValueType::kInt}, {"a.x", ValueType::kString}}));
  a.insert_values({Value::null(), Value("a-null")});
  a.insert_values({Value(1), Value("a-one")});
  Relation b =
      Relation::keyed_table(Schema::of({{"b.k", ValueType::kInt}, {"b.y", ValueType::kString}}));
  b.insert_values({Value::null(), Value("b-null")});
  b.insert_values({Value(1), Value("b-one")});
  return {std::move(a), std::move(b)};
}

TEST(HashJoin, MatchesNestedLoop) {
  const auto [a, b] = null_keyed_pair();
  struct Input {
    Relation left;
    Relation right;
    std::size_t left_key;
    std::size_t right_key;
  };
  for (const Input& in : {Input{people(), depts(), 1, 0}, Input{a, b, 0, 0}}) {
    const auto pred =
        Expr::cmp(CmpOp::kEq, Expr::col(in.left.schema().at(in.left_key).name),
                  Expr::col(in.right.schema().at(in.right_key).name));
    SCOPED_TRACE(pred->to_string());
    const Relation nl = nested_loop_join(in.left, in.right, pred.get());
    const Relation hj = hash_join(in.left, in.right, {{in.left_key, in.right_key}}, nullptr);
    EXPECT_TRUE(nl.equal_multiset(hj));
    EXPECT_TRUE(nl.equal_multiset(join(in.left, in.right, pred)));
  }
  const auto on_k = Expr::cmp(CmpOp::kEq, Expr::col("a.k"), Expr::col("b.k"));
  EXPECT_EQ(nested_loop_join(a, b, on_k.get()).size(), 1u);
}

TEST(HashJoin, ResidualPredicate) {
  const auto residual = Expr::col_cmp("d.label", CmpOp::kEq, Value("eng"));
  const Relation out = hash_join(people(), depts(), {{1, 0}}, residual.get());
  EXPECT_EQ(out.size(), 2u);  // ann and cat
}

TEST(HashJoin, RequiresEquiPairs) {
  EXPECT_THROW(hash_join(people(), depts(), {}, nullptr), common::InvalidArgument);
}

TEST(Join, AutoSelectsHashAndPushesDown) {
  Metrics m;
  const auto pred = conjoin({
      Expr::cmp(CmpOp::kEq, Expr::col("p.dept"), Expr::col("d.id")),
      Expr::col_cmp("p.name", CmpOp::kNe, Value("bob")),
  });
  const Relation out = join(people(), depts(), pred, &m);
  EXPECT_EQ(out.size(), 2u);
  // Pushdown means the probe side was pre-filtered: fewer comparisons than
  // the full 3x3 cross product.
  EXPECT_LT(m.get(common::metric::kTuplesCompared), 9);
}

TEST(Distinct, RemovesDuplicates) {
  Relation a(Schema::of({{"x", ValueType::kInt}}));
  a.append(Tuple({Value(1)}));
  a.append(Tuple({Value(1)}));
  a.append(Tuple({Value(2)}));
  EXPECT_EQ(distinct(a).size(), 2u);
}

TEST(EmptyInputs, AllOperatorsHandleEmpty) {
  const Relation empty(people().schema());
  EXPECT_TRUE(select(empty, *Expr::always_true()).empty());
  EXPECT_TRUE(project(empty, {"p.name"}, true).empty());
  EXPECT_TRUE(nested_loop_join(empty, depts(), nullptr).empty());
  EXPECT_TRUE(hash_join(empty, depts(), {{1, 0}}, nullptr).empty());
  EXPECT_TRUE(distinct(empty).empty());
}

}  // namespace
}  // namespace cq::alg
