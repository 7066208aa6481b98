#include <gtest/gtest.h>

#include "cq/propagate.hpp"
#include "delta/delta_snapshot.hpp"
#include "query/evaluate.hpp"
#include "query/parser.hpp"
#include "workload/accounts.hpp"
#include "workload/stocks.hpp"
#include "workload/sweep.hpp"

namespace cq::wl {
namespace {

using common::Rng;
using common::Timestamp;

TEST(StocksWorkload, ListsRequestedSymbols) {
  Rng rng(1);
  cat::Database db;
  StocksWorkload stocks(db, "Stocks", {.symbols = 200}, rng);
  EXPECT_EQ(db.table("Stocks").size(), 200u);
  EXPECT_EQ(StocksWorkload::symbol_name(42), "SYM000042");
}

TEST(StocksWorkload, StepAppliesMixedUpdates) {
  Rng rng(2);
  cat::Database db;
  StocksWorkload stocks(db, "Stocks", {.symbols = 100}, rng);
  const Timestamp t0 = db.clock().now();
  stocks.step(/*trades=*/50, /*listings=*/10, /*delistings=*/5);
  const delta::DeltaSnapshot snap(db.delta("Stocks"));
  const auto& net = snap.net_effect(t0);
  EXPECT_GT(net.size(), 30u);
  // At least one of each kind should appear with these volumes.
  bool ins = false;
  bool mod = false;
  bool del = false;
  for (const auto& row : net) {
    ins |= row.kind() == delta::ChangeKind::kInsert;
    mod |= row.kind() == delta::ChangeKind::kModify;
    del |= row.kind() == delta::ChangeKind::kDelete;
  }
  EXPECT_TRUE(ins);
  EXPECT_TRUE(mod);
  EXPECT_TRUE(del);
  // Table size reflects listings minus delistings (delist ops can be
  // skipped when they collide inside one transaction, never exceeded).
  EXPECT_GE(db.table("Stocks").size(), 100u + 10u - 5u);
}

TEST(AccountsWorkload, NetMovementIsPredictable) {
  Rng rng(3);
  cat::Database db;
  AccountsWorkload accounts(db, "Accounts", {.accounts = 50}, rng);
  const auto query = qry::parse_query("SELECT SUM(amount) FROM Accounts");
  const auto before = qry::evaluate(query, db);
  const std::int64_t net = accounts.step(100);
  const auto after = qry::evaluate(query, db);
  // Sum of balances moved exactly by the reported net amount.
  EXPECT_EQ(after.row(0).at(0).as_int() - before.row(0).at(0).as_int(), net);
}

TEST(AccountsWorkload, OpenCloseAccounts) {
  Rng rng(4);
  cat::Database db;
  AccountsWorkload accounts(db, "Accounts", {.accounts = 10}, rng);
  accounts.open_account(12345);
  EXPECT_EQ(db.table("Accounts").size(), 11u);
  accounts.close_random_account();
  EXPECT_EQ(db.table("Accounts").size(), 10u);
}

TEST(SweepTable, SelectivityIsAccurate) {
  Rng rng(5);
  cat::Database db;
  SweepTable table(db, "S", 20000, 16, rng);
  for (double s : {0.01, 0.1, 0.5}) {
    const auto result = core::recompute(table.selection_query(s), db);
    const double actual =
        static_cast<double>(result.size()) / static_cast<double>(db.table("S").size());
    EXPECT_NEAR(actual, s, 0.02) << "target selectivity " << s;
  }
}

TEST(SweepTable, UpdatesRespectMixRoughly) {
  Rng rng(6);
  cat::Database db;
  SweepTable table(db, "S", 2000, 16, rng);
  const Timestamp t0 = db.clock().now();
  table.update(600, {.modify_fraction = 0.5, .delete_fraction = 0.25});
  std::size_t ins = 0;
  std::size_t mod = 0;
  std::size_t del = 0;
  const delta::DeltaSnapshot snap(db.delta("S"));
  for (const auto& row : snap.net_effect(t0)) {
    switch (row.kind()) {
      case delta::ChangeKind::kInsert: ++ins; break;
      case delta::ChangeKind::kModify: ++mod; break;
      case delta::ChangeKind::kDelete: ++del; break;
    }
  }
  // Net-effect composition blurs exact ratios; check coarse shape only.
  EXPECT_GT(mod, ins);
  EXPECT_GT(ins, 0u);
  EXPECT_GT(del, 0u);
}

TEST(SweepJoinQuery, ProducesEquiJoinPlan) {
  Rng rng(7);
  cat::Database db;
  SweepTable a(db, "A", 300, 8, rng);
  SweepTable b(db, "B", 300, 8, rng);
  const auto q = join_query({&a, &b}, 0.3);
  const auto result = core::recompute(q, db);
  // With 8 groups and ~90 selected rows per side, expect roughly
  // 90*90/8 ≈ 1000 join rows; just check it's non-trivial and bounded.
  EXPECT_GT(result.size(), 100u);
  EXPECT_LT(result.size(), 5000u);
}

}  // namespace
}  // namespace cq::wl
