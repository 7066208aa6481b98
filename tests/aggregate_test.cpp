#include "algebra/aggregate.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace cq::alg {
namespace {

using rel::Relation;
using rel::Schema;
using rel::Tuple;
using rel::Value;
using rel::ValueType;

Relation sales() {
  Relation r = Relation::keyed_table(Schema::of({{"region", ValueType::kString},
                                                {"amount", ValueType::kInt},
                                                {"rate", ValueType::kDouble}}));
  r.insert_values({Value("east"), Value(10), Value(0.5)});
  r.insert_values({Value("east"), Value(20), Value(1.5)});
  r.insert_values({Value("west"), Value(5), Value(2.0)});
  r.insert_values({Value("west"), Value::null(), Value(3.0)});
  return r;
}

TEST(ScalarAggregate, Sum) {
  EXPECT_EQ(scalar_aggregate(sales(), AggKind::kSum, "amount"), Value(35));
  EXPECT_EQ(scalar_aggregate(sales(), AggKind::kSum, "rate"), Value(7.0));
}

TEST(ScalarAggregate, CountStarVsColumn) {
  EXPECT_EQ(scalar_aggregate(sales(), AggKind::kCount, "*"), Value(4));
  // COUNT(amount) skips the NULL.
  EXPECT_EQ(scalar_aggregate(sales(), AggKind::kCount, "amount"), Value(3));
}

TEST(ScalarAggregate, Avg) {
  const Value avg = scalar_aggregate(sales(), AggKind::kAvg, "amount");
  EXPECT_DOUBLE_EQ(avg.as_double(), 35.0 / 3.0);
}

TEST(ScalarAggregate, MinMax) {
  EXPECT_EQ(scalar_aggregate(sales(), AggKind::kMin, "amount"), Value(5));
  EXPECT_EQ(scalar_aggregate(sales(), AggKind::kMax, "amount"), Value(20));
}

TEST(ScalarAggregate, EmptyInput) {
  const Relation empty(sales().schema());
  EXPECT_EQ(scalar_aggregate(empty, AggKind::kCount, "*"), Value(0));
  EXPECT_TRUE(scalar_aggregate(empty, AggKind::kSum, "amount").is_null());
  EXPECT_TRUE(scalar_aggregate(empty, AggKind::kMin, "amount").is_null());
}

TEST(ScalarAggregate, SumRequiresColumn) {
  EXPECT_THROW(scalar_aggregate(sales(), AggKind::kSum, ""), common::InvalidArgument);
}

TEST(GroupAggregate, GroupsAndAggregates) {
  const Relation out = group_aggregate(
      sales(), {"region"},
      {{AggKind::kSum, "amount", "total"}, {AggKind::kCount, "*", "n"}});
  ASSERT_EQ(out.size(), 2u);
  // Deterministic order: east before west.
  EXPECT_EQ(out.row(0).at(0), Value("east"));
  EXPECT_EQ(out.row(0).at(1), Value(30));
  EXPECT_EQ(out.row(0).at(2), Value(2));
  EXPECT_EQ(out.row(1).at(0), Value("west"));
  EXPECT_EQ(out.row(1).at(1), Value(5));
  EXPECT_EQ(out.row(1).at(2), Value(2));
}

TEST(GroupAggregate, OutputSchemaNaming) {
  const Relation out =
      group_aggregate(sales(), {"region"}, {{AggKind::kSum, "amount", ""}});
  EXPECT_EQ(out.schema().at(0).name, "region");
  EXPECT_EQ(out.schema().at(1).name, "SUM(amount)");
  EXPECT_EQ(out.schema().at(1).type, ValueType::kInt);
}

TEST(GroupAggregate, AvgIsDouble) {
  const rel::Schema s =
      aggregate_output_schema(sales().schema(), {}, {{AggKind::kAvg, "amount", "a"}});
  EXPECT_EQ(s.at(0).type, ValueType::kDouble);
}

TEST(GroupAggregate, EmptyInputYieldsNoGroups) {
  const Relation empty(sales().schema());
  EXPECT_TRUE(group_aggregate(empty, {"region"}, {{AggKind::kSum, "amount", "t"}})
                  .empty());
}

TEST(GroupAggregate, NullGroupKeyIsAGroup) {
  Relation r =
      Relation::keyed_table(Schema::of({{"g", ValueType::kString}, {"v", ValueType::kInt}}));
  r.insert_values({Value::null(), Value(1)});
  r.insert_values({Value::null(), Value(2)});
  r.insert_values({Value("a"), Value(3)});
  const Relation out = group_aggregate(r, {"g"}, {{AggKind::kSum, "v", "s"}});
  ASSERT_EQ(out.size(), 2u);
  // NULL sorts first in the total order.
  EXPECT_TRUE(out.row(0).at(0).is_null());
  EXPECT_EQ(out.row(0).at(1), Value(3));
}

TEST(GroupAggregate, MultipleGroupColumns) {
  Relation r = Relation::keyed_table(
      Schema::of({{"a", ValueType::kInt}, {"b", ValueType::kInt}, {"v", ValueType::kInt}}));
  r.insert_values({Value(1), Value(1), Value(10)});
  r.insert_values({Value(1), Value(2), Value(20)});
  r.insert_values({Value(1), Value(1), Value(30)});
  const Relation out = group_aggregate(r, {"a", "b"}, {{AggKind::kSum, "v", "s"}});
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(out.row(0).at(2), Value(40));
}

}  // namespace
}  // namespace cq::alg
