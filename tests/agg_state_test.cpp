// Property: AggregateState maintained through a stream of diffs always
// equals alg::group_aggregate over the current SPJ result.
#include "cq/agg_state.hpp"

#include <gtest/gtest.h>

#include "algebra/aggregate.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "cq/continual_query.hpp"
#include "cq/diff.hpp"

namespace cq::core {
namespace {

using alg::AggKind;
using alg::AggSpec;
using rel::Relation;
using rel::Schema;
using rel::Tuple;
using rel::Value;
using rel::ValueType;

Schema sales_schema() {
  return Schema::of({{"region", ValueType::kString}, {"amount", ValueType::kInt}});
}

Tuple row(const char* region, int amount) {
  return Tuple({Value(region), Value(amount)});
}

std::vector<AggSpec> all_specs() {
  return {{AggKind::kSum, "amount", "s"},
          {AggKind::kCount, "*", "n"},
          {AggKind::kAvg, "amount", "a"},
          {AggKind::kMin, "amount", "lo"},
          {AggKind::kMax, "amount", "hi"}};
}

TEST(AggregateState, MatchesGroupAggregateAfterInit) {
  Relation base(sales_schema());
  base.append(row("e", 10));
  base.append(row("e", 20));
  base.append(row("w", 5));
  AggregateState state(sales_schema(), {"region"}, all_specs());
  state.initialize(base);
  const Relation expect = alg::group_aggregate(base, {"region"}, all_specs());
  EXPECT_TRUE(state.current().equal_multiset(expect));
}

TEST(AggregateState, InsertAndDeleteUpdateAllAggregates) {
  Relation base(sales_schema());
  base.append(row("e", 10));
  base.append(row("e", 20));
  AggregateState state(sales_schema(), {"region"}, all_specs());
  state.initialize(base);

  DiffResult d;
  d.inserted = Relation(sales_schema());
  d.deleted = Relation(sales_schema());
  d.inserted.append(row("e", 30));
  d.deleted.append(row("e", 10));
  state.apply(d);

  Relation now(sales_schema());
  now.append(row("e", 20));
  now.append(row("e", 30));
  EXPECT_TRUE(
      state.current().equal_multiset(alg::group_aggregate(now, {"region"}, all_specs())));
}

TEST(AggregateState, MinMaxSurviveExtremumDeletion) {
  Relation base(sales_schema());
  base.append(row("e", 10));
  base.append(row("e", 20));
  base.append(row("e", 30));
  AggregateState state(sales_schema(), {"region"},
                       {{AggKind::kMin, "amount", "lo"}, {AggKind::kMax, "amount", "hi"}});
  state.initialize(base);

  DiffResult d;
  d.inserted = Relation(sales_schema());
  d.deleted = Relation(sales_schema());
  d.deleted.append(row("e", 30));  // remove the max
  d.deleted.append(row("e", 10));  // remove the min
  state.apply(d);

  const Relation out = state.current();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.row(0).at(1), Value(20));  // new min
  EXPECT_EQ(out.row(0).at(2), Value(20));  // new max
}

TEST(AggregateState, GroupDisappearsAtZeroRows) {
  Relation base(sales_schema());
  base.append(row("e", 10));
  base.append(row("w", 5));
  AggregateState state(sales_schema(), {"region"}, {{AggKind::kSum, "amount", "s"}});
  state.initialize(base);
  DiffResult d;
  d.inserted = Relation(sales_schema());
  d.deleted = Relation(sales_schema());
  d.deleted.append(row("w", 5));
  state.apply(d);
  EXPECT_EQ(state.current().size(), 1u);
}

TEST(AggregateState, ScalarAccessor) {
  Relation base(sales_schema());
  base.append(row("e", 10));
  base.append(row("w", 5));
  AggregateState state(sales_schema(), {}, {{AggKind::kSum, "amount", "s"}});
  state.initialize(base);
  EXPECT_EQ(state.scalar(), Value(15));

  AggregateState empty(sales_schema(), {}, {{AggKind::kSum, "amount", "s"}});
  empty.initialize(Relation(sales_schema()));
  EXPECT_TRUE(empty.scalar().is_null());

  AggregateState counted(sales_schema(), {}, {{AggKind::kCount, "*", "n"}});
  counted.initialize(Relation(sales_schema()));
  EXPECT_EQ(counted.scalar(), Value(0));
}

TEST(AggregateState, ScalarRequiresSingleUngroupedAggregate) {
  AggregateState state(sales_schema(), {"region"}, {{AggKind::kSum, "amount", "s"}});
  EXPECT_THROW(static_cast<void>(state.scalar()), common::InvalidArgument);
}

TEST(AggregateState, InconsistentDeletionThrows) {
  AggregateState state(sales_schema(), {"region"}, {{AggKind::kSum, "amount", "s"}});
  state.initialize(Relation(sales_schema()));
  DiffResult d;
  d.inserted = Relation(sales_schema());
  d.deleted = Relation(sales_schema());
  d.deleted.append(row("ghost", 1));
  EXPECT_THROW(state.apply(d), common::InternalError);
}

TEST(AggregateState, NullInputsSkipped) {
  Relation base(sales_schema());
  base.append(Tuple({Value("e"), Value::null()}));
  base.append(row("e", 10));
  AggregateState state(sales_schema(), {"region"}, all_specs());
  state.initialize(base);
  const Relation expect = alg::group_aggregate(base, {"region"}, all_specs());
  EXPECT_TRUE(state.current().equal_multiset(expect));
}

// ---- the aggregate-level ΔQ apply() returns ----

void expect_same_rows(const Relation& got, const Relation& want) {
  ASSERT_EQ(got.size(), want.size()) << "got " << got.to_string() << "want "
                                     << want.to_string();
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(got.row(i).same_values(want.row(i)))
        << "row " << i << ": " << got.row(i).to_string() << " vs "
        << want.row(i).to_string();
  }
}

/// Apply `d` and check that the returned ΔQ equals
/// diff(current() before, current() after) row for row, in the same order.
DiffResult apply_and_check(AggregateState& state, const DiffResult& d) {
  const Relation before = state.current();
  DiffResult got = state.apply(d);
  const DiffResult want = diff(before, state.current());
  expect_same_rows(got.inserted, want.inserted);
  expect_same_rows(got.deleted, want.deleted);
  return got;
}

DiffResult sales_delta(std::vector<Tuple> inserted, std::vector<Tuple> deleted) {
  DiffResult d;
  d.inserted = Relation(sales_schema(), std::move(inserted));
  d.deleted = Relation(sales_schema(), std::move(deleted));
  return d;
}

AggregateState by_region(const std::vector<Tuple>& rows,
                         std::vector<AggSpec> specs = all_specs()) {
  AggregateState state(sales_schema(), {"region"}, std::move(specs));
  state.initialize(Relation(sales_schema(), rows));
  return state;
}

TEST(AggregateStateDelta, GroupAppears) {
  AggregateState state = by_region({row("e", 10)});
  const DiffResult d = apply_and_check(state, sales_delta({row("w", 5)}, {}));
  EXPECT_EQ(d.inserted.size(), 1u);
  EXPECT_TRUE(d.deleted.empty());
}

TEST(AggregateStateDelta, GroupVanishes) {
  AggregateState state = by_region({row("e", 10), row("w", 5)});
  const DiffResult d = apply_and_check(state, sales_delta({}, {row("w", 5)}));
  EXPECT_TRUE(d.inserted.empty());
  EXPECT_EQ(d.deleted.size(), 1u);
}

TEST(AggregateStateDelta, GroupChanges) {
  AggregateState state = by_region({row("a", 1), row("e", 10), row("w", 5)});
  const DiffResult d =
      apply_and_check(state, sales_delta({row("w", 7), row("e", 20)}, {}));
  // Touched groups only, in group-key order; "a" is untouched.
  ASSERT_EQ(d.inserted.size(), 2u);
  ASSERT_EQ(d.deleted.size(), 2u);
  EXPECT_EQ(d.inserted.row(0).at(0), Value("e"));
  EXPECT_EQ(d.inserted.row(1).at(0), Value("w"));
}

TEST(AggregateStateDelta, InsertAndDeleteOfOneValueEmitsNothing) {
  AggregateState state = by_region({row("e", 10), row("e", 20)});
  const DiffResult d =
      apply_and_check(state, sales_delta({row("e", 10)}, {row("e", 10)}));
  EXPECT_TRUE(d.empty());
}

TEST(AggregateStateDelta, MinMaxDeletionExposesNextValue) {
  AggregateState state =
      by_region({row("e", 10), row("e", 20), row("e", 30)},
                {{AggKind::kMin, "amount", "lo"}, {AggKind::kMax, "amount", "hi"}});
  const DiffResult d =
      apply_and_check(state, sales_delta({}, {row("e", 30), row("e", 10)}));
  ASSERT_EQ(d.inserted.size(), 1u);
  EXPECT_EQ(d.inserted.row(0).at(1), Value(20));
  EXPECT_EQ(d.inserted.row(0).at(2), Value(20));
}

TEST(AggregateStateDelta, UngroupedAggregate) {
  AggregateState state(sales_schema(), {}, all_specs());
  state.initialize(Relation(sales_schema()));
  // The lone row appears, changes, and vanishes with the last input row.
  DiffResult d = apply_and_check(state, sales_delta({row("e", 10)}, {}));
  EXPECT_EQ(d.inserted.size(), 1u);
  EXPECT_TRUE(d.deleted.empty());
  d = apply_and_check(state, sales_delta({row("w", 5)}, {}));
  EXPECT_EQ(d.inserted.size(), 1u);
  EXPECT_EQ(d.deleted.size(), 1u);
  d = apply_and_check(state, sales_delta({}, {row("e", 10), row("w", 5)}));
  EXPECT_TRUE(d.inserted.empty());
  EXPECT_EQ(d.deleted.size(), 1u);
}

TEST(AggregateStateDelta, HavingCrossesItsThresholdBothWays) {
  cat::Database db;
  db.create_table("Sales", sales_schema());
  db.insert("Sales", {Value("e"), Value(10)});
  db.insert("Sales", {Value("w"), Value(30)});
  ContinualQuery cq(
      CqSpec::from_sql("band",
                       "SELECT region, SUM(amount) AS total FROM Sales "
                       "GROUP BY region HAVING total > 20",
                       triggers::manual(), nullptr, DeliveryMode::kComplete),
      db);
  Notification prev = cq.execute_initial(db);
  const auto step = [&] {
    Notification n = cq.execute(db);
    expect_same_rows(n.delta.inserted, diff(*prev.aggregate, *n.aggregate).inserted);
    expect_same_rows(n.delta.deleted, diff(*prev.aggregate, *n.aggregate).deleted);
    prev = n;
    return n;
  };

  // e: 10 -> 25 enters the band; w: 30 -> 35 stays in it.
  db.insert("Sales", {Value("e"), Value(15)});
  db.insert("Sales", {Value("w"), Value(5)});
  Notification n = step();
  EXPECT_EQ(n.delta.inserted.size(), 2u);
  EXPECT_EQ(n.delta.deleted.count_value(Tuple({Value("w"), Value(30)})), 1u);
  EXPECT_EQ(n.delta.deleted.size(), 1u);

  // e: 25 -> 10 leaves the band; only its old row is emitted.
  for (const auto& r : db.table("Sales").rows()) {
    if (r.at(1) == Value(15)) {
      db.erase("Sales", r.tid());
      break;
    }
  }
  n = step();
  EXPECT_TRUE(n.delta.inserted.empty());
  EXPECT_EQ(n.delta.deleted.count_value(Tuple({Value("e"), Value(25)})), 1u);
  EXPECT_EQ(n.delta.deleted.size(), 1u);
}

/// With no aggregates the state is DISTINCT over its group columns: a
/// value's row count moving 1 -> 2 or 2 -> 1 emits nothing, 0 -> 1 (or
/// 0 -> 2) and 1 -> 0 emit one side, and each side comes in key order.
TEST(AggregateStateDelta, ZeroAggregatesIsDistinct) {
  AggregateState state(sales_schema(), {"region", "amount"}, {});
  state.initialize(Relation(sales_schema(), {row("w", 5), row("e", 10)}));
  EXPECT_TRUE(state.output_schema() == sales_schema());

  DiffResult d = apply_and_check(state, sales_delta({row("w", 5)}, {}));  // 1 -> 2
  EXPECT_TRUE(d.empty());
  d = apply_and_check(state, sales_delta({}, {row("w", 5)}));  // 2 -> 1
  EXPECT_TRUE(d.empty());

  d = apply_and_check(state, sales_delta({row("w", 1), row("a", 7), row("e", 3),
                                          row("g", 2), row("g", 2)},
                                         {row("e", 10)}));
  expect_same_rows(d.inserted, Relation(sales_schema(), {row("a", 7), row("e", 3),
                                                         row("g", 2), row("w", 1)}));
  expect_same_rows(d.deleted, Relation(sales_schema(), {row("e", 10)}));
  expect_same_rows(state.current(),
                   Relation(sales_schema(), {row("a", 7), row("e", 3), row("g", 2),
                                             row("w", 1), row("w", 5)}));
}

/// Randomized property sweep: apply K random diffs, compare with recompute.
class AggStateSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AggStateSweep, AlwaysMatchesRecompute) {
  common::Rng rng(GetParam());
  const Schema schema = sales_schema();
  const char* regions[] = {"a", "b", "c"};

  Relation current(schema);
  for (int i = 0; i < 30; ++i) {
    current.append(row(regions[rng.index(3)], static_cast<int>(rng.uniform_int(0, 50))));
  }
  AggregateState state(schema, {"region"}, all_specs());
  state.initialize(current);

  for (int round = 0; round < 20; ++round) {
    DiffResult d;
    d.inserted = Relation(schema);
    d.deleted = Relation(schema);
    const std::size_t dels = rng.index(std::min<std::size_t>(current.size() + 1, 5));
    for (std::size_t i = 0; i < dels; ++i) {
      if (current.empty()) break;
      const Tuple victim = current.row(rng.index(current.size()));
      Tuple copy(victim.values());
      current.remove_one_by_value(copy);
      d.deleted.append(std::move(copy));
    }
    const std::size_t adds = rng.index(5);
    for (std::size_t i = 0; i < adds; ++i) {
      Tuple t = row(regions[rng.index(3)], static_cast<int>(rng.uniform_int(0, 50)));
      current.append(t);
      d.inserted.append(std::move(t));
    }
    state.apply(d);
    ASSERT_TRUE(state.current().equal_multiset(
        alg::group_aggregate(current, {"region"}, all_specs())))
        << "seed=" << GetParam() << " round=" << round;
  }
}

TEST_P(AggStateSweep, ReturnedDeltaMatchesDiff) {
  common::Rng rng(GetParam());
  const char* regions[] = {"a", "b", "c", "d"};
  Relation current(sales_schema());
  AggregateState state(sales_schema(), {"region"}, all_specs());
  state.initialize(current);
  for (int round = 0; round < 30; ++round) {
    DiffResult d = sales_delta({}, {});
    const std::size_t dels = rng.index(std::min<std::size_t>(current.size() + 1, 4));
    for (std::size_t i = 0; i < dels && !current.empty(); ++i) {
      Tuple victim(current.row(rng.index(current.size())).values());
      current.remove_one_by_value(victim);
      d.deleted.append(std::move(victim));
    }
    for (std::size_t i = rng.index(4); i > 0; --i) {
      Tuple t = row(regions[rng.index(4)], static_cast<int>(rng.uniform_int(0, 20)));
      current.append(t);
      d.inserted.append(std::move(t));
    }
    SCOPED_TRACE("seed=" + std::to_string(GetParam()) +
                 " round=" + std::to_string(round));
    (void)apply_and_check(state, d);
  }
}

INSTANTIATE_TEST_SUITE_P(Randomized, AggStateSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace cq::core
