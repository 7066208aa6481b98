#include "cq/epsilon_view.hpp"

#include <gtest/gtest.h>

#include "catalog/transaction.hpp"
#include "common/error.hpp"
#include "query/evaluate.hpp"
#include "query/parser.hpp"

namespace cq::core {
namespace {

using rel::Value;
using rel::ValueType;

EpsilonView::Spec changes_only(std::size_t n) {
  EpsilonView::Spec spec;
  spec.max_relevant_changes = n;
  return spec;
}

struct Fixture {
  cat::Database db;

  Fixture() {
    db.create_table("Accounts", rel::Schema::of({{"owner", ValueType::kString},
                                                 {"amount", ValueType::kInt}}));
    db.insert("Accounts", {Value("a"), Value(1000)});
    db.insert("Accounts", {Value("b"), Value(2000)});
  }
};

TEST(EpsilonView, ServesCachedWithinTolerance) {
  Fixture f;
  EpsilonView view("v", "SELECT * FROM Accounts WHERE amount > 500", f.db,
                   changes_only(5));
  const auto first = view.read();
  EXPECT_FALSE(first.refreshed);
  EXPECT_EQ(first.result.size(), 2u);

  f.db.insert("Accounts", {Value("c"), Value(3000)});
  const auto second = view.read();
  EXPECT_FALSE(second.refreshed);       // 1 <= 5: still within tolerance
  EXPECT_EQ(second.result.size(), 2u);  // served stale, knowingly
  EXPECT_EQ(second.divergence, 1u);
  EXPECT_EQ(view.refreshes(), 0u);
}

TEST(EpsilonView, RefreshesWhenToleranceExceeded) {
  Fixture f;
  EpsilonView view("v", "SELECT * FROM Accounts WHERE amount > 500", f.db,
                   changes_only(2));
  for (int i = 0; i < 3; ++i) {
    f.db.insert("Accounts", {Value("n" + std::to_string(i)), Value(4000)});
  }
  const auto answer = view.read();
  EXPECT_TRUE(answer.refreshed);
  EXPECT_EQ(answer.result.size(), 5u);
  EXPECT_EQ(answer.divergence, 0u);
  EXPECT_EQ(view.refreshes(), 1u);
}

TEST(EpsilonView, IrrelevantChangesDoNotCountAgainstTolerance) {
  Fixture f;
  EpsilonView view("v", "SELECT * FROM Accounts WHERE amount > 1500", f.db,
                   changes_only(0));
  // Below the predicate threshold: relevant_changes stays 0.
  f.db.insert("Accounts", {Value("tiny"), Value(10)});
  const auto answer = view.read();
  EXPECT_FALSE(answer.refreshed);
  EXPECT_EQ(answer.divergence, 0u);
}

TEST(EpsilonView, AggregateDriftBound) {
  Fixture f;
  EpsilonView view("sum", "SELECT SUM(amount) FROM Accounts", f.db,
                   {.max_relevant_changes = 1000,
                    .max_drift = 500.0,
                    .drift_table = "Accounts",
                    .drift_column = "amount"});
  const auto initial = view.read();
  EXPECT_EQ(initial.result.row(0).at(0), Value(3000));

  // +400: within drift tolerance, cached answer may be off by <= 500.
  const auto tid = f.db.table("Accounts").rows().front().tid();
  f.db.modify("Accounts", tid, {Value("a"), Value(1400)});
  auto answer = view.read();
  EXPECT_FALSE(answer.refreshed);
  EXPECT_EQ(answer.result.row(0).at(0), Value(3000));  // stale but bounded
  EXPECT_DOUBLE_EQ(answer.drift, 400.0);

  // Another +400 pushes cumulative pending drift to 800 > 500: refresh.
  f.db.modify("Accounts", tid, {Value("a"), Value(1800)});
  answer = view.read();
  EXPECT_TRUE(answer.refreshed);
  EXPECT_EQ(answer.result.row(0).at(0), Value(3800));
}

TEST(EpsilonView, WithdrawalsCountedByAbsoluteValue) {
  Fixture f;
  EpsilonView view("sum", "SELECT SUM(amount) FROM Accounts", f.db,
                   {.max_relevant_changes = 1000,
                    .max_drift = 300.0,
                    .drift_table = "Accounts",
                    .drift_column = "amount"});
  const auto tid = f.db.table("Accounts").rows().front().tid();
  f.db.modify("Accounts", tid, {Value("a"), Value(600)});  // -400
  const auto answer = view.read();
  EXPECT_TRUE(answer.refreshed);
  EXPECT_EQ(answer.result.row(0).at(0), Value(2600));
}

TEST(EpsilonView, ManualRefreshResetsDivergence) {
  Fixture f;
  EpsilonView view("v", "SELECT * FROM Accounts WHERE amount > 500", f.db,
                   changes_only(100));
  f.db.insert("Accounts", {Value("c"), Value(700)});
  EXPECT_EQ(view.read().divergence, 1u);
  view.refresh();
  const auto answer = view.read();
  EXPECT_EQ(answer.divergence, 0u);
  EXPECT_EQ(answer.result.size(), 3u);
}

TEST(EpsilonView, RefreshedAnswerAlwaysMatchesRecompute) {
  Fixture f;
  EpsilonView view("v", "SELECT owner FROM Accounts WHERE amount > 500", f.db,
                   changes_only(0));
  for (int i = 0; i < 10; ++i) {
    f.db.insert("Accounts", {Value("x" + std::to_string(i)), Value(600 + i * 100)});
    const auto answer = view.read();
    EXPECT_TRUE(answer.refreshed);
    const rel::Relation fresh = qry::evaluate(
        qry::parse_query("SELECT owner FROM Accounts WHERE amount > 500"), f.db);
    EXPECT_TRUE(answer.result.equal_multiset(fresh));
  }
}

TEST(EpsilonView, SpecValidation) {
  Fixture f;
  EpsilonView::Spec bad;
  bad.max_drift = 10.0;  // missing drift_table / drift_column
  EXPECT_THROW(EpsilonView("v", "SELECT * FROM Accounts", f.db, bad),
               common::InvalidArgument);
  EpsilonView::Spec negative;
  negative.max_drift = -1.0;
  negative.drift_table = "Accounts";
  negative.drift_column = "amount";
  EXPECT_THROW(EpsilonView("v", "SELECT * FROM Accounts", f.db, negative),
               common::InvalidArgument);
}

TEST(EpsilonView, DriftSpecMustNameANumericColumn) {
  // A misnamed drift table or column is rejected at construction, not by
  // every later read().
  Fixture f;
  const auto drift_on = [](std::string table, std::string column) {
    return EpsilonView::Spec{.max_relevant_changes = 1000,
                             .max_drift = 100.0,
                             .drift_table = std::move(table),
                             .drift_column = std::move(column)};
  };
  EXPECT_THROW(EpsilonView("v", "SELECT SUM(amount) FROM Accounts", f.db,
                           drift_on("Acounts", "amount")),
               common::InvalidArgument);
  EXPECT_THROW(EpsilonView("v", "SELECT SUM(amount) FROM Accounts", f.db,
                           drift_on("Accounts", "amt")),
               common::InvalidArgument);
  EXPECT_THROW(EpsilonView("v", "SELECT SUM(amount) FROM Accounts", f.db,
                           drift_on("Accounts", "owner")),
               common::InvalidArgument);  // a STRING column has no drift
  EpsilonView ok("v", "SELECT SUM(amount) FROM Accounts", f.db,
                 drift_on("Accounts", "amount"));
  EXPECT_FALSE(ok.read().refreshed);
}

}  // namespace
}  // namespace cq::core
