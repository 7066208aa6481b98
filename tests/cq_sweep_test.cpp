// Long-haul randomized sweeps of full ContinualQuery lifecycles: aggregate
// CQs (SUM/COUNT/AVG/MIN/MAX, grouped and scalar), DISTINCT CQs, and
// complete-mode CQs, maintained through dozens of mixed-update rounds and
// compared against from-scratch evaluation after every execution.
#include <gtest/gtest.h>

#include "catalog/transaction.hpp"
#include "cq/continual_query.hpp"
#include "query/evaluate.hpp"
#include "query/parser.hpp"
#include "testing/random_db.hpp"

namespace cq {
namespace {

using core::ContinualQuery;
using core::CqSpec;
using core::DeliveryMode;
using core::Notification;

struct SweepParam {
  std::uint64_t seed;
  const char* sql;
  const char* label;
};

class CqLifecycleSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(CqLifecycleSweep, MaintainedResultAlwaysMatchesRecompute) {
  const auto& p = GetParam();
  common::Rng rng(p.seed);
  cat::Database db;
  testing::make_stock_table(db, "S", 150, rng);
  db.create_index("S", "by_cat", {"category"});

  const qry::SpjQuery query = qry::parse_query(p.sql);
  CqSpec spec;
  spec.name = p.label;
  spec.query = query;
  spec.trigger = core::triggers::manual();
  spec.mode = DeliveryMode::kComplete;
  ContinualQuery cq(spec, db);
  (void)cq.execute_initial(db);

  const testing::UpdateMix mix{.modify_fraction = 0.4, .delete_fraction = 0.25};
  for (int round = 0; round < 25; ++round) {
    testing::random_updates(db, "S", 12, mix, rng);
    const Notification n = cq.execute(db);

    const rel::Relation fresh = qry::evaluate(query, db);
    const rel::Relation& maintained =
        query.is_aggregate() ? *n.aggregate : *n.complete;
    ASSERT_TRUE(maintained.equal_multiset(fresh))
        << p.label << " diverged at round " << round << "\nmaintained:\n"
        << maintained.to_string() << "fresh:\n"
        << fresh.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Queries, CqLifecycleSweep,
    ::testing::Values(
        SweepParam{201, "SELECT SUM(price) FROM S", "scalar_sum"},
        SweepParam{202, "SELECT COUNT(*) FROM S WHERE price > 300", "filtered_count"},
        SweepParam{203, "SELECT AVG(price) FROM S WHERE qty > 20", "filtered_avg"},
        SweepParam{204, "SELECT MIN(price), MAX(price) FROM S", "min_max"},
        SweepParam{205,
                   "SELECT category, SUM(price) AS total, COUNT(*) AS n FROM S "
                   "GROUP BY category",
                   "grouped_multi"},
        SweepParam{206,
                   "SELECT category, MIN(price) AS lo FROM S WHERE price < 800 "
                   "GROUP BY category",
                   "grouped_min_filtered"},
        SweepParam{207, "SELECT DISTINCT category FROM S", "distinct_category"},
        SweepParam{208, "SELECT DISTINCT category, qty FROM S WHERE price > 200",
                   "distinct_pair"},
        // Two output columns with one bare name: DISTINCT groups by both.
        SweepParam{211,
                   "SELECT DISTINCT a.category, b.category FROM S a, S b "
                   "WHERE a.qty = b.qty",
                   "distinct_self_join"},
        SweepParam{209, "SELECT id, price FROM S WHERE price BETWEEN 100 AND 500",
                   "plain_band"},
        SweepParam{210, "SELECT * FROM S WHERE category = 'tech' AND qty > 50",
                   "plain_conj"}),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return std::string(info.param.label);
    });

/// Aggregate CQ over a join, with indexes, complete mode, long stream.
TEST(CqLifecycle, AggregateOverJoinStaysConsistent) {
  common::Rng rng(999);
  cat::Database db;
  testing::make_stock_table(db, "A", 100, rng);
  testing::make_stock_table(db, "B", 100, rng);
  db.create_index("A", "by_cat", {"category"});
  db.create_index("B", "by_cat", {"category"});

  const qry::SpjQuery query = qry::parse_query(
      "SELECT a.category, COUNT(*) AS pairs FROM A a, B b "
      "WHERE a.category = b.category AND a.price > 300 AND b.price > 300 "
      "GROUP BY a.category");
  CqSpec spec;
  spec.name = "join-agg";
  spec.query = query;
  spec.trigger = core::triggers::manual();
  spec.mode = DeliveryMode::kComplete;
  ContinualQuery cq(spec, db);
  (void)cq.execute_initial(db);

  const testing::UpdateMix mix{.modify_fraction = 0.35, .delete_fraction = 0.25};
  for (int round = 0; round < 15; ++round) {
    testing::random_updates(db, "A", 10, mix, rng);
    testing::random_updates(db, "B", 8, mix, rng);
    const Notification n = cq.execute(db);
    const rel::Relation fresh = qry::evaluate(query, db);
    ASSERT_TRUE(n.aggregate->equal_multiset(fresh)) << "round " << round;
  }
}

/// GROUP BY keys must be projectable: alias resolution through the
/// aggregate pipeline.
TEST(CqLifecycle, GroupKeyQualification) {
  common::Rng rng(1001);
  cat::Database db;
  testing::make_stock_table(db, "S", 60, rng);
  const qry::SpjQuery query =
      qry::parse_query("SELECT category, SUM(qty) AS q FROM S GROUP BY category");
  CqSpec spec;
  spec.name = "gq";
  spec.query = query;
  spec.trigger = core::triggers::manual();
  ContinualQuery cq(spec, db);
  const Notification init = cq.execute_initial(db);
  ASSERT_TRUE(init.aggregate != nullptr);
  EXPECT_EQ(init.aggregate->schema().at(1).name, "q");
}

}  // namespace
}  // namespace cq
