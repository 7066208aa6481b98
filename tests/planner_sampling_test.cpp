// Sample-based selectivity estimation: the planner measures filters on
// actual rows when they're available, fixing join orders the shape-based
// heuristic gets wrong on skewed data.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algebra/ops.hpp"
#include "catalog/transaction.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "query/evaluate.hpp"
#include "query/parser.hpp"
#include "query/planner.hpp"
#include "testing/random_db.hpp"

namespace cq::qry {
namespace {

using rel::Relation;
using rel::Value;
using rel::ValueType;

/// Two tables of equal size; the filter on Big matches almost everything,
/// the filter on Small almost nothing — but both are `=` comparisons, so
/// the shape heuristic scores them identically. Sampling must order Small
/// (post-filter tiny) first.
TEST(PlannerSampling, MeasuredSelectivityOrdersJoins) {
  cat::Database db;
  db.create_table("A", rel::Schema::of({{"flag", ValueType::kInt},
                                        {"grp", ValueType::kInt}}));
  db.create_table("B", rel::Schema::of({{"flag", ValueType::kInt},
                                        {"grp", ValueType::kInt}}));
  auto txn = db.begin();
  for (int i = 0; i < 400; ++i) {
    txn.insert("A", {Value(1), Value(i % 20)});              // flag=1 always
    txn.insert("B", {Value(i % 100 == 0 ? 1 : 0), Value(i % 20)});  // flag=1 rare
  }
  txn.commit();

  const SpjQuery q = parse_query(
      "SELECT * FROM A a, B b WHERE a.grp = b.grp AND a.flag = 1 AND b.flag = 1");

  // The base tables are sampled in place, read under the qualified schemas.
  const std::vector<rel::Schema> schemas = from_schemas(q, db);
  const std::vector<std::size_t> cards = {db.table("A").size(), db.table("B").size()};

  // Without samples the heuristic sees two identical `=` filters: tie.
  // With samples, B's measured selectivity (~1%) puts it first.
  const std::vector<const Relation*> samples = {&db.table("A"), &db.table("B")};
  const PlannedQuery sampled = plan(q, schemas, cards, &samples);
  EXPECT_EQ(sampled.join_order[0], 1u) << "B (rare flag) should be joined first";
}

TEST(PlannerSampling, SampleCountMismatchThrows) {
  const SpjQuery q = parse_query("SELECT * FROM A, B");
  const std::vector<rel::Schema> schemas = {
      rel::Schema::of({{"A.x", ValueType::kInt}}),
      rel::Schema::of({{"B.x", ValueType::kInt}})};
  const std::vector<const Relation*> samples = {nullptr};  // only one entry
  EXPECT_THROW(static_cast<void>(plan(q, schemas, {1, 1}, &samples)),
               common::InvalidArgument);
}

TEST(PlannerSampling, EmptySampleFallsBackGracefully) {
  cat::Database db;
  db.create_table("A", rel::Schema::of({{"x", ValueType::kInt}}));
  const SpjQuery q = parse_query("SELECT * FROM A WHERE x > 5");
  const std::vector<const Relation*> samples = {&db.table("A")};
  const PlannedQuery p = plan(q, from_schemas(q, db), {0}, &samples);
  EXPECT_EQ(p.join_order.size(), 1u);  // no crash on empty input
}

TEST(PlannerSampling, NullEntriesUseHeuristics) {
  const SpjQuery q = parse_query("SELECT * FROM A WHERE x = 1");
  const std::vector<rel::Schema> schemas = {
      rel::Schema::of({{"A.x", ValueType::kInt}})};
  const std::vector<const Relation*> samples = {nullptr};
  const PlannedQuery p = plan(q, schemas, {100}, &samples);
  EXPECT_EQ(p.table_filters[0].size(), 1u);
}

/// The DRA orders each truth-table term with order_joins over its one
/// execution plan's scan estimates, a position bound to a delta taking the
/// delta's exact size. That must be the order a full plan() of the term
/// picks when each delta is its own sample: the delta is already filtered
/// by the planner's filter, so its sampled selectivity is 1.
TEST(PlannerSampling, ExactDeltaSizesReproduceSampledTermOrder) {
  common::Rng rng(0x0de5);
  std::size_t bound_deltas = 0;
  for (int round = 0; round < 200; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const std::size_t n = 2 + rng.index(2);
    cat::Database db;
    std::vector<std::string> tables;
    for (std::size_t i = 0; i < n; ++i) {
      tables.push_back("R" + std::to_string(i));
      testing::make_stock_table(db, tables.back(), 1 + rng.index(300), rng);
    }
    const SpjQuery q = testing::random_join_query(tables, rng);
    const std::vector<rel::Schema> schemas = from_schemas(q, db);
    std::vector<std::size_t> cards;
    for (const auto& t : tables) cards.push_back(db.table(t).size());
    const PlannedQuery execution = plan(q, schemas, cards);

    // Bind some positions to a "delta": a random slice of the table's rows,
    // filtered as the DRA filters it.
    std::vector<Relation> deltas(n);
    std::vector<const Relation*> samples(n, nullptr);
    std::vector<std::size_t> term_cards = cards;
    std::vector<double> estimates = execution.scan_estimates;
    for (std::size_t i = 0; i < n; ++i) {
      if (!rng.chance(0.6)) continue;
      Relation slice(schemas[i]);
      for (const auto& row : db.table(tables[i]).rows()) {
        if (rng.chance(0.3)) slice.append(row);
      }
      deltas[i] = alg::select(slice, *execution.filter(i));
      if (deltas[i].empty()) continue;
      samples[i] = &deltas[i];
      term_cards[i] = deltas[i].size();
      estimates[i] = static_cast<double>(deltas[i].size());
      ++bound_deltas;
    }
    const PlannedQuery term = plan(q, schemas, term_cards, &samples);
    EXPECT_EQ(order_joins(execution.join_conjuncts, schemas, estimates), term.join_order);
  }
  EXPECT_GT(bound_deltas, 100u);  // the comparison must cover real deltas
}

TEST(PlannerSampling, OrderJoinsEstimateCountMismatchThrows) {
  const std::vector<rel::Schema> schemas = {rel::Schema::of({{"A.x", ValueType::kInt}})};
  EXPECT_THROW(static_cast<void>(order_joins({}, schemas, {1.0, 2.0})),
               common::InvalidArgument);
}

}  // namespace
}  // namespace cq::qry
