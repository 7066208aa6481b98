// Staleness/divergence accounting (the ESR-inspired measure behind the
// paper's epsilon specifications) and EXPLAIN output.
#include <gtest/gtest.h>

#include "catalog/transaction.hpp"
#include "cq/continual_query.hpp"
#include "cq/manager.hpp"

namespace cq::core {
namespace {

using common::Duration;
using rel::Value;
using rel::ValueType;

struct Fixture {
  cat::Database db;

  Fixture() {
    db.create_table("Stocks", rel::Schema::of({{"name", ValueType::kString},
                                               {"price", ValueType::kInt}}));
    db.insert("Stocks", {Value("DEC"), Value(150)});
    db.insert("Stocks", {Value("IBM"), Value(80)});
  }

  ContinualQuery make_cq(const std::string& sql) {
    ContinualQuery cq(CqSpec::from_sql("q", sql, triggers::manual()), db);
    (void)cq.execute_initial(db);
    return cq;
  }
};

TEST(Staleness, FreshCqHasNone) {
  Fixture f;
  ContinualQuery cq = f.make_cq("SELECT * FROM Stocks WHERE price > 120");
  const auto s = cq.staleness(f.db);
  EXPECT_EQ(s.pending_changes, 0u);
  EXPECT_EQ(s.relevant_changes, 0u);
  EXPECT_EQ(s.age.ticks(), 0);
}

TEST(Staleness, CountsPendingAndRelevantSeparately) {
  Fixture f;
  ContinualQuery cq = f.make_cq("SELECT * FROM Stocks WHERE price > 120");
  f.db.insert("Stocks", {Value("MAC"), Value(130)});  // relevant
  f.db.insert("Stocks", {Value("SUN"), Value(50)});   // filtered out
  const auto s = cq.staleness(f.db);
  EXPECT_EQ(s.pending_changes, 2u);
  EXPECT_EQ(s.relevant_changes, 1u);
  EXPECT_GT(s.age.ticks(), 0);
}

TEST(Staleness, ModificationCountsBothSides) {
  Fixture f;
  ContinualQuery cq = f.make_cq("SELECT * FROM Stocks WHERE price > 120");
  const auto tid = f.db.table("Stocks").rows().front().tid();
  f.db.modify("Stocks", tid, {Value("DEC"), Value(149)});
  const auto s = cq.staleness(f.db);
  // One modification = one insertion view row + one deletion view row.
  EXPECT_EQ(s.pending_changes, 2u);
  EXPECT_EQ(s.relevant_changes, 2u);  // both sides above the threshold
}

TEST(Staleness, ResetsAfterExecution) {
  Fixture f;
  ContinualQuery cq = f.make_cq("SELECT * FROM Stocks WHERE price > 120");
  f.db.insert("Stocks", {Value("MAC"), Value(130)});
  EXPECT_GT(cq.staleness(f.db).pending_changes, 0u);
  (void)cq.execute(f.db);
  EXPECT_EQ(cq.staleness(f.db).pending_changes, 0u);
}

TEST(Explain, MentionsAllTheParts) {
  Fixture f;
  f.db.create_index("Stocks", "by_name", {"name"});
  ContinualQuery cq = f.make_cq("SELECT name FROM Stocks WHERE price > 120");
  f.db.insert("Stocks", {Value("MAC"), Value(130)});
  const std::string text = cq.explain(f.db);
  EXPECT_NE(text.find("trigger: manual"), std::string::npos);
  EXPECT_NE(text.find("mode: differential"), std::string::npos);
  EXPECT_NE(text.find("ΔStocks: 1 pending"), std::string::npos);
  EXPECT_NE(text.find("by_name"), std::string::npos);
  EXPECT_NE(text.find("staleness"), std::string::npos);
  EXPECT_NE(text.find("price > 120"), std::string::npos);
}

TEST(Explain, JoinQueryShowsPlan) {
  Fixture f;
  f.db.create_table("Notes", rel::Schema::of({{"sym", ValueType::kString},
                                              {"rating", ValueType::kInt}}));
  ContinualQuery cq(
      CqSpec::from_sql("j",
                       "SELECT s.name FROM Stocks s, Notes n "
                       "WHERE s.name = n.sym AND n.rating > 5",
                       triggers::manual()),
      f.db);
  (void)cq.execute_initial(f.db);
  const std::string text = cq.explain(f.db);
  EXPECT_NE(text.find("join order"), std::string::npos);
  EXPECT_NE(text.find("ΔNotes"), std::string::npos);
}

}  // namespace
}  // namespace cq::core
