// The paper's worked examples, verbatim (experiment E9 in DESIGN.md).
//
// Example 1 (Section 4.1): transaction T over Stocks —
//   Insert (101088, MAC, 117); Modify (120992, DEC, 150)=(...,149);
//   Delete (092394);
// and the resulting differential relation's insertions/deletions views.
//
// Example 2 (Section 4.2): the continual query σ_price>120(Stocks) before
// and after T, the Propagate result, and the DRA's differential result.
//
// Section 5.3: the checking-account epsilon trigger in differential form.
#include <gtest/gtest.h>

#include "catalog/transaction.hpp"
#include "cq/dra.hpp"
#include "cq/manager.hpp"
#include "cq/propagate.hpp"
#include "delta/delta_snapshot.hpp"
#include "query/parser.hpp"

namespace cq {
namespace {

using common::Timestamp;
using core::DiffResult;
using rel::Relation;
using rel::Tuple;
using rel::TupleId;
using rel::Value;
using rel::ValueType;

/// Build the paper's scenario with explicit control over which tuple is
/// which (tids are auto-assigned; we track them by symbol).
struct Scenario {
  cat::Database db;
  TupleId dec;
  TupleId qli;

  Scenario() {
    db.create_table("Stocks", rel::Schema::of({{"name", ValueType::kString},
                                               {"price", ValueType::kInt}}));
    auto txn = db.begin();
    dec = txn.insert("Stocks", {Value("DEC"), Value(150)});
    qli = txn.insert("Stocks", {Value("QLI"), Value(145)});
    txn.insert("Stocks", {Value("IBM"), Value(80)});  // below the predicate
    txn.commit();
  }

  /// The paper's transaction T.
  Timestamp run_transaction_t() {
    auto txn = db.begin();
    txn.insert("Stocks", {Value("MAC"), Value(117)});
    txn.modify("Stocks", dec, {Value("DEC"), Value(149)});
    txn.erase("Stocks", qli);
    return txn.commit();
  }
};

TEST(PaperExample1, DifferentialRelationContents) {
  Scenario s;
  const Timestamp t0 = s.db.clock().now();
  s.run_transaction_t();

  // insertions(ΔStocks) = {(MAC,117), (DEC,149)} — Example 1's table.
  const delta::DeltaSnapshot stocks(s.db.delta("Stocks"));
  const Relation& ins = stocks.insertions(t0);
  EXPECT_EQ(ins.size(), 2u);
  EXPECT_EQ(ins.count_value(Tuple({Value("MAC"), Value(117)})), 1u);
  EXPECT_EQ(ins.count_value(Tuple({Value("DEC"), Value(149)})), 1u);

  // deletions(ΔStocks) = {(DEC,150), (QLI,145)}.
  const Relation& del = stocks.deletions(t0);
  EXPECT_EQ(del.size(), 2u);
  EXPECT_EQ(del.count_value(Tuple({Value("DEC"), Value(150)})), 1u);
  EXPECT_EQ(del.count_value(Tuple({Value("QLI"), Value(145)})), 1u);
}

TEST(PaperExample2, QueryResultsBeforeAndAfter) {
  Scenario s;
  const auto query = qry::parse_query("SELECT * FROM Stocks WHERE price > 120");

  // Q(Stocks) = {(DEC,150), (QLI,145)}.
  const Relation before = core::recompute(query, s.db);
  EXPECT_EQ(before.size(), 2u);
  EXPECT_EQ(before.count_value(Tuple({Value("DEC"), Value(150)})), 1u);
  EXPECT_EQ(before.count_value(Tuple({Value("QLI"), Value(145)})), 1u);

  s.run_transaction_t();

  // Q(Stocks') = {(DEC,149)}.
  const Relation after = core::recompute(query, s.db);
  EXPECT_EQ(after.size(), 1u);
  EXPECT_EQ(after.count_value(Tuple({Value("DEC"), Value(149)})), 1u);
}

TEST(PaperExample2, DraEqualsPropagate) {
  Scenario s;
  const auto query = qry::parse_query("SELECT * FROM Stocks WHERE price > 120");
  const Relation before = core::recompute(query, s.db);
  const Timestamp t0 = s.db.clock().now();
  s.run_transaction_t();

  const DiffResult via_dra = core::dra_differential(query, s.db, t0);
  const DiffResult via_propagate = core::propagate(query, s.db, before);
  EXPECT_TRUE(via_dra.equivalent(via_propagate));

  // ΔQ: (DEC,149) enters, (DEC,150) and (QLI,145) leave. MAC at 117 never
  // satisfies price > 120 and must not appear — the paper's differential
  // predicate F = price_old > 120 ∧ price_new > 120 ∧ ts > t_i captures the
  // DEC modification; the insert/delete sides handle the rest.
  const DiffResult d = via_dra.consolidated();
  EXPECT_EQ(d.inserted.size(), 1u);
  EXPECT_EQ(d.inserted.count_value(Tuple({Value("DEC"), Value(149)})), 1u);
  EXPECT_EQ(d.deleted.size(), 2u);
  EXPECT_EQ(d.deleted.count_value(Tuple({Value("DEC"), Value(150)})), 1u);
  EXPECT_EQ(d.deleted.count_value(Tuple({Value("QLI"), Value(145)})), 1u);
}

TEST(PaperExample2, ModificationClassifiedByTid) {
  Scenario s;
  const auto query = qry::parse_query("SELECT * FROM Stocks WHERE price > 120");
  const Timestamp t0 = s.db.clock().now();
  s.run_transaction_t();
  const core::ClassifiedDiff c =
      core::classify(core::dra_differential(query, s.db, t0).consolidated());
  // DEC stayed in the result with a new price: one modification pair.
  ASSERT_EQ(c.modified.size(), 1u);
  EXPECT_EQ(c.modified[0].first.at(1), Value(150));
  EXPECT_EQ(c.modified[0].second.at(1), Value(149));
  // QLI left outright.
  EXPECT_EQ(c.pure_deletions.size(), 1u);
  EXPECT_TRUE(c.pure_insertions.empty());
}

TEST(PaperExample2, CompleteResultFormula) {
  // Section 4.2: E_{i+1} = E_i − σ(deletions) ∪ σ(insertions).
  Scenario s;
  const auto query = qry::parse_query("SELECT * FROM Stocks WHERE price > 120");
  const Relation before = core::recompute(query, s.db);
  const Timestamp t0 = s.db.clock().now();
  s.run_transaction_t();
  const DiffResult d = core::dra_differential(query, s.db, t0);
  const Relation next = core::apply_diff(before, d.consolidated());
  EXPECT_TRUE(next.equal_multiset(core::recompute(query, s.db)));
}

TEST(PaperSection53, CheckingAccountEpsilonTrigger) {
  // TCQ = |Deposits − Withdrawals| >= 0.5M over ΔCheckingAccounts only;
  // query Q = SELECT SUM(amount) FROM CheckingAccounts.
  cat::Database db;
  db.create_table("CheckingAccounts", rel::Schema::of({{"owner", ValueType::kString},
                                                       {"amount", ValueType::kInt}}));
  // Twenty-five accounts of $5M each: total $125M like the paper's story.
  auto txn = db.begin();
  for (int i = 0; i < 25; ++i) {
    txn.insert("CheckingAccounts",
               {Value("acct" + std::to_string(i)), Value(std::int64_t{5'000'000})});
  }
  txn.commit();

  core::CqManager manager(db);
  auto sink = std::make_shared<core::CollectingSink>();
  core::CqSpec spec = core::CqSpec::from_sql(
      "sum-up", "SELECT SUM(amount) FROM CheckingAccounts",
      core::triggers::aggregate_drift("CheckingAccounts", "amount", 500'000.0));
  manager.install(std::move(spec), sink);
  EXPECT_EQ(sink->notifications()[0].aggregate->row(0).at(0),
            Value(std::int64_t{125'000'000}));

  // $200k of deposits: under epsilon, no new result on poll.
  const auto first = db.table("CheckingAccounts").rows().front().tid();
  db.modify("CheckingAccounts", first,
            {Value("acct-up"), Value(std::int64_t{5'200'000})});
  EXPECT_EQ(manager.poll(), 0u);

  // Another $400k: cumulative drift $600k >= $500k — the query refreshes,
  // differentially.
  const auto second = db.table("CheckingAccounts").rows()[1].tid();
  db.modify("CheckingAccounts", second,
            {Value("acct-up2"), Value(std::int64_t{5'400'000})});
  EXPECT_EQ(manager.poll(), 1u);
  ASSERT_EQ(sink->notifications().size(), 2u);
  EXPECT_EQ(sink->notifications()[1].aggregate->row(0).at(0),
            Value(std::int64_t{125'600'000}));
}

TEST(PaperIntroQ3, EpsilonBandQueryOnStockPrice) {
  // Q3: "show the IBM stock transactions that differ by more than $5 from
  // $75 per share" — a selection CQ over the price band.
  cat::Database db;
  db.create_table("Trades", rel::Schema::of({{"sym", ValueType::kString},
                                             {"price", ValueType::kInt}}));
  core::CqManager manager(db);
  auto sink = std::make_shared<core::CollectingSink>();
  manager.install(
      core::CqSpec::from_sql(
          "q3",
          "SELECT * FROM Trades WHERE sym = 'IBM' AND (price > 80 OR price < 70)",
          core::triggers::on_change()),
      sink);

  auto txn = db.begin();
  txn.insert("Trades", {Value("IBM"), Value(75)});   // inside the band: no match
  txn.insert("Trades", {Value("IBM"), Value(81)});   // matches
  txn.insert("Trades", {Value("DEC"), Value(100)});  // wrong symbol
  txn.insert("Trades", {Value("IBM"), Value(69)});   // matches
  txn.commit();
  manager.poll();

  ASSERT_EQ(sink->notifications().size(), 2u);
  EXPECT_EQ(sink->notifications()[1].delta.inserted.size(), 2u);
}

}  // namespace
}  // namespace cq
