#include "cq/continual_query.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "algebra/aggregate.hpp"
#include "catalog/transaction.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "cq/propagate.hpp"
#include "query/evaluate.hpp"
#include "query/parser.hpp"

namespace cq::core {
namespace {

using rel::Relation;
using rel::Tuple;
using rel::Value;
using rel::ValueType;

cat::Database stocks_db() {
  cat::Database db;
  db.create_table("Stocks", rel::Schema::of({{"name", ValueType::kString},
                                             {"price", ValueType::kInt}}));
  auto txn = db.begin();
  txn.insert("Stocks", {Value("DEC"), Value(150)});
  txn.insert("Stocks", {Value("QLI"), Value(145)});
  txn.insert("Stocks", {Value("IBM"), Value(80)});
  txn.commit();
  return db;
}

CqSpec spec_for(const std::string& sql, DeliveryMode mode = DeliveryMode::kDifferential) {
  return CqSpec::from_sql("test-cq", sql, triggers::on_change(), nullptr, mode);
}

TEST(ContinualQuery, InitialExecutionDeliversCompleteResult) {
  cat::Database db = stocks_db();
  ContinualQuery cq(spec_for("SELECT * FROM Stocks WHERE price > 120"), db);
  const Notification n = cq.execute_initial(db);
  EXPECT_EQ(n.sequence, 0u);
  ASSERT_TRUE(n.complete != nullptr);
  EXPECT_EQ(n.complete->size(), 2u);
  EXPECT_TRUE(n.delta.empty());
  EXPECT_EQ(cq.executions(), 1u);
}

TEST(ContinualQuery, DifferentialModeDeliversBothSides) {
  cat::Database db = stocks_db();
  ContinualQuery cq(spec_for("SELECT * FROM Stocks WHERE price > 120"), db);
  (void)cq.execute_initial(db);

  auto txn = db.begin();
  txn.insert("Stocks", {Value("MAC"), Value(130)});  // enters
  txn.commit();
  const auto tids = db.table("Stocks");
  // Drop QLI below the threshold: leaves the result.
  for (const auto& row : tids.rows()) {
    if (row.at(0) == Value("QLI")) {
      db.modify("Stocks", row.tid(), {Value("QLI"), Value(100)});
      break;
    }
  }

  const Notification n = cq.execute(db);
  EXPECT_EQ(n.sequence, 1u);
  EXPECT_EQ(n.delta.inserted.count_value(Tuple({Value("MAC"), Value(130)})), 1u);
  EXPECT_EQ(n.delta.deleted.count_value(Tuple({Value("QLI"), Value(145)})), 1u);
  EXPECT_FALSE(n.complete != nullptr);  // differential mode
}

TEST(ContinualQuery, InsertionsOnlyModeSuppressesDeletions) {
  cat::Database db = stocks_db();
  ContinualQuery cq(
      spec_for("SELECT * FROM Stocks WHERE price > 120", DeliveryMode::kInsertionsOnly),
      db);
  (void)cq.execute_initial(db);
  for (const auto& row : db.table("Stocks").rows()) {
    if (row.at(0) == Value("QLI")) {
      db.erase("Stocks", row.tid());
      break;
    }
  }
  db.insert("Stocks", {Value("MAC"), Value(130)});
  const Notification n = cq.execute(db);
  EXPECT_EQ(n.delta.inserted.size(), 1u);
  EXPECT_TRUE(n.delta.deleted.empty());
}

TEST(ContinualQuery, DeletionsOnlyModeSuppressesInsertions) {
  cat::Database db = stocks_db();
  ContinualQuery cq(
      spec_for("SELECT * FROM Stocks WHERE price > 120", DeliveryMode::kDeletionsOnly),
      db);
  (void)cq.execute_initial(db);
  for (const auto& row : db.table("Stocks").rows()) {
    if (row.at(0) == Value("QLI")) {
      db.erase("Stocks", row.tid());
      break;
    }
  }
  db.insert("Stocks", {Value("MAC"), Value(130)});
  const Notification n = cq.execute(db);
  EXPECT_TRUE(n.delta.inserted.empty());
  EXPECT_EQ(n.delta.deleted.size(), 1u);
}

TEST(ContinualQuery, CompleteModeMaintainsFullResult) {
  cat::Database db = stocks_db();
  ContinualQuery cq(
      spec_for("SELECT * FROM Stocks WHERE price > 120", DeliveryMode::kComplete), db);
  (void)cq.execute_initial(db);

  db.insert("Stocks", {Value("MAC"), Value(130)});
  const Notification n = cq.execute(db);
  ASSERT_TRUE(n.complete != nullptr);
  // The maintained complete result equals a fresh recompute.
  const Relation fresh =
      recompute(qry::parse_query("SELECT * FROM Stocks WHERE price > 120"), db);
  EXPECT_TRUE(n.complete->equal_multiset(fresh));
}

TEST(ContinualQuery, CompleteModeAcrossManyRounds) {
  cat::Database db = stocks_db();
  ContinualQuery cq(
      spec_for("SELECT * FROM Stocks WHERE price > 120", DeliveryMode::kComplete), db);
  (void)cq.execute_initial(db);
  common::Rng rng(3);
  for (int round = 0; round < 10; ++round) {
    // Random-ish churn.
    db.insert("Stocks",
              {Value("N" + std::to_string(round)),
               Value(rng.uniform_int(50, 250))});
    if (!db.table("Stocks").empty() && rng.chance(0.5)) {
      db.erase("Stocks", db.table("Stocks").rows().front().tid());
    }
    const Notification n = cq.execute(db);
    const Relation fresh =
        recompute(qry::parse_query("SELECT * FROM Stocks WHERE price > 120"), db);
    ASSERT_TRUE(n.complete->equal_multiset(fresh)) << "round " << round;
  }
}

TEST(ContinualQuery, CompleteModePatchesTheSavedResultInPlace) {
  cat::Database db = stocks_db();
  ContinualQuery cq(
      spec_for("SELECT * FROM Stocks WHERE price > 120", DeliveryMode::kComplete), db);
  (void)cq.execute_initial(db);

  db.insert("Stocks", {Value("MAC"), Value(130)});
  const rel::Relation* payload = nullptr;
  {
    const Notification n = cq.execute(db);
    payload = n.complete.get();
    EXPECT_EQ(payload, cq.saved_result());
  }  // nothing keeps the payload

  db.insert("Stocks", {Value("SGI"), Value(200)});
  const Notification n = cq.execute(db);
  EXPECT_EQ(n.complete.get(), payload);
  EXPECT_EQ(n.complete.get(), cq.saved_result());
  const Relation fresh =
      recompute(qry::parse_query("SELECT * FROM Stocks WHERE price > 120"), db);
  EXPECT_TRUE(n.complete->equal_multiset(fresh));
}

TEST(ContinualQuery, KeptPayloadIsCopiedOnWrite) {
  cat::Database db = stocks_db();
  ContinualQuery cq(
      spec_for("SELECT * FROM Stocks WHERE price > 120", DeliveryMode::kComplete), db);
  CollectingSink sink;
  sink.on_result(cq.execute_initial(db));
  const auto query = qry::parse_query("SELECT * FROM Stocks WHERE price > 120");

  db.insert("Stocks", {Value("MAC"), Value(130)});
  sink.on_result(cq.execute(db));
  const Relation at_k = qry::evaluate(query, db);

  db.insert("Stocks", {Value("SGI"), Value(200)});
  db.erase("Stocks", db.table("Stocks").rows().front().tid());
  (void)cq.execute(db);
  db.insert("Stocks", {Value("HP"), Value(300)});
  const Notification last = cq.execute(db);

  const Notification& kept = sink.notifications().at(1);
  EXPECT_NE(kept.complete.get(), last.complete.get());
  EXPECT_TRUE(kept.complete->equal_multiset(at_k));
  EXPECT_TRUE(last.complete->equal_multiset(qry::evaluate(query, db)));
}

TEST(ContinualQuery, AggregatePayloadIsPatchedInPlace) {
  const std::string sql = "SELECT name, SUM(price) AS total FROM Stocks GROUP BY name";
  for (const DeliveryMode mode : {DeliveryMode::kDifferential, DeliveryMode::kComplete}) {
    SCOPED_TRACE(to_string(mode));
    cat::Database db = stocks_db();
    ContinualQuery cq(spec_for(sql, mode), db);
    const rel::Relation* payload = cq.execute_initial(db).aggregate.get();

    db.insert("Stocks", {Value("MAC"), Value(130)});  // a group appears
    db.insert("Stocks", {Value("DEC"), Value(10)});   // a group changes
    const Notification n = cq.execute(db);
    EXPECT_EQ(n.aggregate.get(), payload);  // nothing kept it: patched, not rebuilt
    if (mode == DeliveryMode::kComplete) {
      EXPECT_EQ(n.complete, n.aggregate);
    }
    EXPECT_TRUE(n.aggregate->equal_multiset(qry::evaluate(qry::parse_query(sql), db)));
  }
}

TEST(ContinualQuery, KeptAggregatePayloadIsCopiedOnWrite) {
  const std::string sql =
      "SELECT name, SUM(price) AS total, COUNT(*) AS n FROM Stocks GROUP BY name";
  const auto query = qry::parse_query(sql);
  for (const DeliveryMode mode : {DeliveryMode::kDifferential, DeliveryMode::kComplete}) {
    SCOPED_TRACE(to_string(mode));
    cat::Database db = stocks_db();
    ContinualQuery cq(spec_for(sql, mode), db);
    CollectingSink sink;
    sink.on_result(cq.execute_initial(db));

    db.insert("Stocks", {Value("MAC"), Value(130)});
    sink.on_result(cq.execute(db));
    const Relation at_k = qry::evaluate(query, db);

    db.insert("Stocks", {Value("SGI"), Value(200)});
    db.erase("Stocks", db.table("Stocks").rows().front().tid());
    (void)cq.execute(db);
    db.insert("Stocks", {Value("HP"), Value(300)});
    db.insert("Stocks", {Value("MAC"), Value(5)});
    const Notification last = cq.execute(db);

    const Notification& kept = sink.notifications().at(1);
    EXPECT_NE(kept.aggregate.get(), last.aggregate.get());
    EXPECT_TRUE(kept.aggregate->equal_multiset(at_k));
    EXPECT_TRUE(last.aggregate->equal_multiset(qry::evaluate(query, db)));
    if (mode == DeliveryMode::kComplete) {
      EXPECT_EQ(kept.complete, kept.aggregate);
    }
  }
}

TEST(ContinualQuery, ThrowWhilePatchingReprimes) {
  // A restore() whose last_execution lies ahead of the log makes the
  // rebuilt result miss an insertion that the next ΔQ then deletes, so
  // patching the saved result throws part-way through.
  cat::Database db = stocks_db();
  const std::string sql = "SELECT * FROM Stocks WHERE price > 120";
  ContinualQuery cq(spec_for(sql, DeliveryMode::kComplete), db);
  const common::Timestamp ahead(db.clock().now().ticks() + 1);
  cq.restore(db, ahead, 1);
  ASSERT_FALSE(cq.reprime_pending());

  const rel::TupleId mac = db.insert("Stocks", {Value("MAC"), Value(130)});  // at `ahead`
  db.erase("Stocks", mac);  // after it: ΔQ deletes a row the result lacks
  EXPECT_THROW(static_cast<void>(cq.execute(db)), common::InternalError);
  EXPECT_TRUE(cq.reprime_pending());
  EXPECT_EQ(cq.saved_result(), nullptr);

  db.insert("Stocks", {Value("SGI"), Value(200)});
  const Notification n = cq.execute(db);
  EXPECT_TRUE(n.delta.empty());
  ASSERT_TRUE(n.complete != nullptr);
  EXPECT_TRUE(n.complete->equal_multiset(recompute(qry::parse_query(sql), db)));
  EXPECT_FALSE(cq.reprime_pending());
}

TEST(ContinualQuery, DeltasMatchPropagate) {
  // Section 4.2: the DRA's ΔQ equals Propagate's recompute-then-Diff over
  // the same database.
  const std::string sql = "SELECT name FROM Stocks WHERE price > 120";
  cat::Database db = stocks_db();
  ContinualQuery cq(spec_for(sql), db);
  (void)cq.execute_initial(db);
  const Relation before = recompute(qry::parse_query(sql), db);

  db.insert("Stocks", {Value("MAC"), Value(130)});
  for (const auto& row : db.table("Stocks").rows()) {
    if (row.at(0) == Value("DEC")) {
      db.modify("Stocks", row.tid(), {Value("DEC"), Value(100)});
      break;
    }
  }
  const Notification n = cq.execute(db);
  const DiffResult expected = propagate(qry::parse_query(sql), db, before);
  EXPECT_TRUE(n.delta.equivalent(expected));
  EXPECT_EQ(n.delta.inserted.count_value(Tuple({Value("MAC")})), 1u);
  EXPECT_EQ(n.delta.deleted.count_value(Tuple({Value("DEC")})), 1u);
}

TEST(ContinualQuery, DistinctQueryLiftsDiffs) {
  cat::Database db;
  db.create_table("T", rel::Schema::of({{"grp", ValueType::kInt},
                                        {"val", ValueType::kInt}}));
  auto txn = db.begin();
  txn.insert("T", {Value(1), Value(10)});
  txn.insert("T", {Value(1), Value(20)});
  txn.insert("T", {Value(2), Value(30)});
  txn.commit();

  ContinualQuery cq(spec_for("SELECT DISTINCT grp FROM T"), db);
  const Notification init = cq.execute_initial(db);
  EXPECT_EQ(init.complete->size(), 2u);

  // Adding another grp=1 row changes the multiset but not the distinct set.
  db.insert("T", {Value(1), Value(99)});
  Notification n = cq.execute(db);
  EXPECT_TRUE(n.delta.empty());

  // Deleting one of the three grp=1 rows: still present -> no distinct diff.
  db.erase("T", db.table("T").rows().front().tid());
  n = cq.execute(db);
  EXPECT_TRUE(n.delta.empty());

  // New grp appears.
  db.insert("T", {Value(3), Value(1)});
  n = cq.execute(db);
  EXPECT_EQ(n.delta.inserted.count_value(Tuple({Value(3)})), 1u);
}

TEST(ContinualQuery, AggregateQueryMaintainsSum) {
  cat::Database db;
  db.create_table("Accounts", rel::Schema::of({{"owner", ValueType::kString},
                                               {"amount", ValueType::kInt}}));
  db.insert("Accounts", {Value("a"), Value(100)});
  db.insert("Accounts", {Value("b"), Value(200)});

  ContinualQuery cq(spec_for("SELECT SUM(amount) FROM Accounts"), db);
  const Notification init = cq.execute_initial(db);
  ASSERT_TRUE(init.aggregate != nullptr);
  EXPECT_EQ(init.aggregate->row(0).at(0), Value(300));

  db.insert("Accounts", {Value("c"), Value(50)});
  const Notification n = cq.execute(db);
  EXPECT_EQ(n.aggregate->row(0).at(0), Value(350));
  // The delta reports the aggregate-level change: 300 out, 350 in.
  EXPECT_EQ(n.delta.deleted.count_value(Tuple({Value(300)})), 1u);
  EXPECT_EQ(n.delta.inserted.count_value(Tuple({Value(350)})), 1u);
}

TEST(ContinualQuery, GroupedAggregateCqTracksGroups) {
  cat::Database db;
  db.create_table("Sales", rel::Schema::of({{"region", ValueType::kString},
                                            {"amount", ValueType::kInt}}));
  db.insert("Sales", {Value("east"), Value(10)});

  ContinualQuery cq(
      spec_for("SELECT region, SUM(amount) AS total FROM Sales GROUP BY region"), db);
  (void)cq.execute_initial(db);

  db.insert("Sales", {Value("west"), Value(7)});
  const Notification n = cq.execute(db);
  EXPECT_EQ(n.delta.inserted.count_value(Tuple({Value("west"), Value(7)})), 1u);
  EXPECT_EQ(n.aggregate->size(), 2u);
}

TEST(ContinualQuery, UnchangedDatabaseYieldsEmptyDelta) {
  cat::Database db = stocks_db();
  ContinualQuery cq(spec_for("SELECT * FROM Stocks WHERE price > 120"), db);
  (void)cq.execute_initial(db);
  const Notification n = cq.execute(db);
  EXPECT_TRUE(n.delta.empty());
  EXPECT_EQ(n.sequence, 1u);
}

TEST(ContinualQuery, ValidationAtConstruction) {
  cat::Database db = stocks_db();
  CqSpec bad = spec_for("SELECT * FROM Missing");
  EXPECT_THROW(ContinualQuery(bad, db), common::NotFound);
  CqSpec no_trigger = spec_for("SELECT * FROM Stocks");
  no_trigger.trigger = nullptr;
  EXPECT_THROW(ContinualQuery(no_trigger, db), common::InvalidArgument);
}

TEST(ContinualQuery, TriggerMustReadOnlyFromTables) {
  cat::Database db = stocks_db();
  db.create_table("Ledger", rel::Schema::of({{"amount", ValueType::kInt}}));
  const auto with_trigger = [](TriggerPtr trigger) {
    return CqSpec::from_sql("drift", "SELECT * FROM Stocks", std::move(trigger));
  };
  // A foreign table is neither snapshotted for the dispatch nor locked by
  // the commit's closure, so the spec is refused up front.
  EXPECT_THROW(ContinualQuery(with_trigger(triggers::aggregate_drift("Ledger", "amount", 1.0)),
                              db),
               common::InvalidArgument);
  EXPECT_THROW(ContinualQuery(with_trigger(triggers::any_of(
                                  {triggers::on_change(),
                                   triggers::aggregate_drift("Ledger", "amount", 1.0)})),
                              db),
               common::InvalidArgument);
  EXPECT_NO_THROW(
      ContinualQuery(with_trigger(triggers::aggregate_drift("Stocks", "price", 1.0)), db));
}

/// Wraps a trigger without forwarding tables(), as an outside decorator
/// might.
class OpaqueTrigger final : public Trigger {
 public:
  explicit OpaqueTrigger(TriggerPtr inner) : inner_(std::move(inner)) {}
  bool should_fire(const TriggerContext& context) const override {
    return inner_->should_fire(context);
  }
  std::string describe() const override { return "opaque"; }

 private:
  TriggerPtr inner_;
};

TEST(ContinualQuery, UnforwardedForeignTableNamesItWhenRead) {
  cat::Database db = stocks_db();
  db.create_table("Ledger", rel::Schema::of({{"amount", ValueType::kInt}}));
  // The construction check cannot see through the wrapper; the first read
  // of the foreign table then fails with an error that names it.
  ContinualQuery cq(CqSpec::from_sql("drift", "SELECT * FROM Stocks",
                                     std::make_shared<OpaqueTrigger>(
                                         triggers::aggregate_drift("Ledger", "amount", 1.0))),
                    db);
  (void)cq.execute_initial(db);
  try {
    (void)cq.should_fire(db, snapshot_deltas(db, cq.relations()));
    FAIL() << "expected InvalidArgument";
  } catch (const common::InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("'Ledger'"), std::string::npos) << e.what();
  }
}

TEST(ContinualQuery, DoubleInitialThrows) {
  cat::Database db = stocks_db();
  ContinualQuery cq(spec_for("SELECT * FROM Stocks"), db);
  (void)cq.execute_initial(db);
  EXPECT_THROW(static_cast<void>(cq.execute_initial(db)), common::InvalidArgument);
}

TEST(ContinualQuery, ExecuteBeforeInitialRunsInitial) {
  cat::Database db = stocks_db();
  ContinualQuery cq(spec_for("SELECT * FROM Stocks"), db);
  const Notification n = cq.execute(db);
  EXPECT_EQ(n.sequence, 0u);
  EXPECT_TRUE(n.complete != nullptr);
}

TEST(ContinualQuery, InvalidatedStateReprimesInsteadOfThrowing) {
  // Historical bug: a CQ whose saved result was lost (e.g. the suppression
  // window crossed a GC pass) threw InternalError "lost its saved result"
  // from execute(). Invalidation is now explicit and the next execution
  // re-primes with a full recompute. A kDifferential CQ keeps no saved
  // state at all, so the pending-reprime flag alone must carry it.
  cat::Database db = stocks_db();
  ContinualQuery cq(spec_for("SELECT * FROM Stocks WHERE price > 120"), db);
  (void)cq.execute_initial(db);

  cq.invalidate_saved_result();
  EXPECT_TRUE(cq.reprime_pending());
  db.insert("Stocks", {Value("MAC"), Value(130)});

  const Notification reprimed = cq.execute(db);  // must not throw
  EXPECT_EQ(reprimed.sequence, 1u);
  EXPECT_TRUE(reprimed.delta.empty());  // no usable baseline => no delta
  ASSERT_TRUE(reprimed.complete != nullptr);
  const Relation fresh =
      recompute(qry::parse_query("SELECT * FROM Stocks WHERE price > 120"), db);
  EXPECT_TRUE(reprimed.complete->equal_multiset(fresh));
  EXPECT_FALSE(cq.reprime_pending());

  // Differential operation resumes on the rebuilt baseline.
  db.insert("Stocks", {Value("SGI"), Value(200)});
  const Notification next = cq.execute(db);
  EXPECT_EQ(next.sequence, 2u);
  EXPECT_EQ(next.delta.inserted.count_value(Tuple({Value("SGI"), Value(200)})), 1u);
  EXPECT_TRUE(next.delta.deleted.empty());
}

TEST(ContinualQuery, RestoreAcrossGcTruncationReprimes) {
  // restore() rebuilds the saved result by rolling the current state back
  // through the delta window (last_execution, now]. When GC has truncated
  // part of that window the rollback would be silently wrong — the
  // truncation watermark must force a re-prime instead.
  cat::Database db = stocks_db();
  const common::Timestamp checkpoint = db.clock().now();

  db.insert("Stocks", {Value("MAC"), Value(130)});
  db.insert("Stocks", {Value("SGI"), Value(200)});
  ASSERT_GT(db.garbage_collect(), 0u);  // no zones registered: drops the log
  ASSERT_TRUE(db.delta("Stocks").truncated_through().has_value());

  ContinualQuery cq(spec_for("SELECT * FROM Stocks WHERE price > 120",
                             DeliveryMode::kComplete),
                    db);
  cq.restore(db, checkpoint, 2);
  EXPECT_TRUE(cq.reprime_pending());
  EXPECT_EQ(cq.executions(), 2u);
  EXPECT_EQ(cq.last_execution(), checkpoint);

  const Notification n = cq.execute(db);
  EXPECT_EQ(n.sequence, 2u);
  ASSERT_TRUE(n.complete != nullptr);
  const Relation fresh =
      recompute(qry::parse_query("SELECT * FROM Stocks WHERE price > 120"), db);
  EXPECT_TRUE(n.complete->equal_multiset(fresh));
}

TEST(ContinualQuery, RestoreWithIntactLogStillRollsBack) {
  // The watermark must not over-trigger: a restore whose window is fully
  // covered by the log keeps the exact rolled-back differential behavior.
  cat::Database db = stocks_db();
  ContinualQuery live(spec_for("SELECT * FROM Stocks WHERE price > 120",
                               DeliveryMode::kComplete),
                      db);
  (void)live.execute_initial(db);
  const common::Timestamp checkpoint = live.last_execution();

  db.insert("Stocks", {Value("MAC"), Value(130)});

  ContinualQuery restored(spec_for("SELECT * FROM Stocks WHERE price > 120",
                                   DeliveryMode::kComplete),
                          db);
  restored.restore(db, checkpoint, 1);
  EXPECT_FALSE(restored.reprime_pending());
  const Notification a = live.execute(db);
  const Notification b = restored.execute(db);
  ASSERT_TRUE(a.complete && b.complete);
  EXPECT_TRUE(a.complete->equal_multiset(*b.complete));
  EXPECT_TRUE(a.delta.inserted.equal_multiset(b.delta.inserted));
  EXPECT_TRUE(a.delta.deleted.equal_multiset(b.delta.deleted));
}

// ---- the DRA program compiled once per CQ ----

cat::Database stocks_trades_db() {
  cat::Database db = stocks_db();
  db.create_table("Trades", rel::Schema::of({{"sym", ValueType::kString},
                                             {"qty", ValueType::kInt}}));
  db.insert("Trades", {Value("DEC"), Value(5)});
  db.insert("Trades", {Value("IBM"), Value(7)});
  return db;
}

TEST(ContinualQuery, DraExecutionsBuildNoPlan) {
  cat::Database db = stocks_trades_db();
  const std::string sql =
      "SELECT s.name, t.qty FROM Stocks s, Trades t WHERE s.name = t.sym AND s.price > 90";
  ContinualQuery cq(spec_for(sql), db);
  (void)cq.execute_initial(db);  // priming recomputes, and plans that once

  common::Metrics metrics;
  std::size_t delivered = 0;
  for (int i = 0; i < 200; ++i) {
    db.insert(i % 2 == 0 ? "Trades" : "Stocks",
              i % 2 == 0 ? std::vector<Value>{Value("DEC"), Value(i)}
                         : std::vector<Value>{Value("DEC"), Value(100 + i)});
    delivered += cq.execute(db, &metrics).delta.inserted.size();
  }
  EXPECT_EQ(metrics.get(common::metric::kDraInvocations), 200);
  EXPECT_GT(delivered, 200u);
  EXPECT_EQ(metrics.get(common::metric::kPlansBuilt), 0);

  const qry::SpjQuery query = qry::parse_query(sql);
  for (int i = 1; i <= 3; ++i) {
    (void)qry::evaluate_spj(query, db, &metrics);
    EXPECT_EQ(metrics.get(common::metric::kPlansBuilt), i);
  }
}

TEST(ContinualQuery, IndexCreatedAfterInstallIsProbed) {
  // Twin databases, twin CQs; only `indexed` gets an index, after install.
  cat::Database plain = stocks_trades_db();
  cat::Database indexed = stocks_trades_db();
  const std::string sql = "SELECT * FROM Stocks s, Trades t WHERE s.name = t.sym";
  ContinualQuery on_plain(spec_for(sql), plain);
  ContinualQuery on_indexed(spec_for(sql), indexed);
  (void)on_plain.execute_initial(plain);
  (void)on_indexed.execute_initial(indexed);

  auto trade = [&](const std::vector<Value>& row) {
    plain.insert("Trades", row);
    indexed.insert("Trades", row);
  };
  auto expect_same_delta = [](const Notification& a, const Notification& b) {
    EXPECT_FALSE(a.delta.empty());
    EXPECT_TRUE(a.delta.inserted.equal_multiset(b.delta.inserted));
    EXPECT_TRUE(a.delta.deleted.equal_multiset(b.delta.deleted));
  };

  trade({Value("QLI"), Value(3)});
  common::Metrics before;
  const Notification first = on_indexed.execute(indexed, &before);
  EXPECT_EQ(before.get(common::metric::kIndexProbes), 0);
  expect_same_delta(on_plain.execute(plain), first);

  indexed.create_index("Stocks", "by_name", {"name"});
  trade({Value("DEC"), Value(9)});
  common::Metrics after;
  const Notification second = on_indexed.execute(indexed, &after);
  EXPECT_GT(after.get(common::metric::kIndexProbes), 0);
  EXPECT_EQ(after.get(common::metric::kPlansBuilt), 0);
  expect_same_delta(on_plain.execute(plain), second);
}

/// The paper's claim, checked for the grouped payloads: an execution
/// builds or patches payload rows in proportion to |ΔQ|, not to the number
/// of groups. The same 8-row Δ over 64 and over 4096 groups touches 8
/// aggregate groups either way: one appears, one vanishes, six change.
/// Under DISTINCT the six only raise a value's multiplicity 1 -> 2, so a
/// complete payload patches 2 rows and the other modes keep none.
TEST(ContinualQuery, AggregatePayloadWorkFollowsTheDeltaNotTheGroups) {
  const std::string aggregate_sql =
      "SELECT grp, SUM(val) AS total, COUNT(*) AS n FROM T GROUP BY grp";
  const std::string distinct_sql = "SELECT DISTINCT grp FROM T";
  auto rows_assembled = [&](const std::string& sql, std::int64_t groups,
                            DeliveryMode mode) {
    cat::Database db;
    db.create_table("T", rel::Schema::of({{"grp", ValueType::kInt},
                                          {"val", ValueType::kInt}}));
    auto load = db.begin();
    std::vector<rel::TupleId> tids;
    for (std::int64_t g = 0; g < groups; ++g) {
      tids.push_back(load.insert("T", {Value(g), Value(1)}));
    }
    load.commit();
    ContinualQuery cq(spec_for(sql, mode), db);
    (void)cq.execute_initial(db);

    auto txn = db.begin();
    txn.insert("T", {Value(groups), Value(1)});  // a new group appears
    txn.erase("T", tids[1]);                     // group 1 vanishes
    for (std::int64_t g = 2; g < 8; ++g) txn.insert("T", {Value(g * 7), Value(g)});
    txn.commit();
    common::Metrics metrics;
    const Notification n = cq.execute(db, &metrics);
    const Relation expected = qry::evaluate(qry::parse_query(sql), db);
    const Relation* payload = sql == distinct_sql ? n.complete.get() : n.aggregate.get();
    EXPECT_EQ(payload != nullptr, sql == aggregate_sql || mode == DeliveryMode::kComplete);
    if (payload != nullptr) {
      EXPECT_EQ(payload->size(), static_cast<std::size_t>(groups));
      EXPECT_TRUE(payload->equal_multiset(expected));
      const auto& rows = payload->rows();
      const auto unsorted =
          std::adjacent_find(rows.begin(), rows.end(), [](const Tuple& a, const Tuple& b) {
            return a.at(0).compare(b.at(0)) >= 0;
          });
      EXPECT_TRUE(unsorted == rows.end())
          << "not strictly ascending at row " << (unsorted - rows.begin());
    }
    return metrics.get(common::metric::kRowsAssembled);
  };
  for (const std::string& sql : {aggregate_sql, distinct_sql}) {
    for (const DeliveryMode mode :
         {DeliveryMode::kInsertionsOnly, DeliveryMode::kDeletionsOnly,
          DeliveryMode::kDifferential, DeliveryMode::kComplete}) {
      SCOPED_TRACE(sql + " / " + to_string(mode));
      const std::int64_t small = rows_assembled(sql, 64, mode);
      const std::int64_t expected =
          sql == aggregate_sql ? 8 : (mode == DeliveryMode::kComplete ? 2 : 0);
      EXPECT_EQ(small, expected);
      EXPECT_EQ(rows_assembled(sql, 4096, mode), small);
    }
  }
}

/// ROADMAP I on the 2-way shape: a kComplete S ⋈ T CQ given the same
/// 8-row ΔS does the same work over a 2k-row and a 32k-row T. T's keys are
/// unique, so each ΔS row matches one T row at either size. With an index
/// on T's join key the DRA probes it and scans no base row; without one it
/// reads T once, and base_rows_scanned says so.
TEST(ContinualQuery, JoinWorkFollowsTheDeltaNotTheBase) {
  struct Work {
    std::int64_t rows_assembled;
    std::int64_t delta_rows_scanned;
    std::int64_t dra_terms_evaluated;
    std::int64_t index_probes;
    std::int64_t base_rows_scanned;
  };
  const std::string sql = "SELECT s.id, t.v FROM S s, T t WHERE s.k = t.k";
  auto work = [&](std::int64_t t_rows, bool indexed) {
    cat::Database db;
    db.create_table("S",
                    rel::Schema::of({{"id", ValueType::kInt}, {"k", ValueType::kInt}}));
    db.create_table("T", rel::Schema::of({{"k", ValueType::kInt}, {"v", ValueType::kInt}}));
    if (indexed) db.create_index("T", "t_k", {"k"});
    auto load = db.begin();
    for (std::int64_t k = 0; k < t_rows; ++k) load.insert("T", {Value(k), Value(k % 97)});
    std::vector<rel::TupleId> s_tids;
    for (std::int64_t i = 0; i < 16; ++i) {
      s_tids.push_back(load.insert("S", {Value(i), Value(i * 5)}));
    }
    load.commit();
    ContinualQuery cq(spec_for(sql, DeliveryMode::kComplete), db);
    (void)cq.execute_initial(db);

    // 5 insertions, 1 deletion and 1 modification: 8 delta rows.
    auto txn = db.begin();
    for (std::int64_t i = 0; i < 5; ++i) txn.insert("S", {Value(100 + i), Value(200 + i)});
    txn.erase("S", s_tids[0]);
    txn.modify("S", s_tids[1], {Value(1), Value(300)});
    txn.commit();
    common::Metrics metrics;
    const Notification n = cq.execute(db, &metrics);
    EXPECT_EQ(n.delta.inserted.size(), 6u);
    EXPECT_EQ(n.delta.deleted.size(), 2u);
    EXPECT_TRUE(n.complete->equal_multiset(qry::evaluate(qry::parse_query(sql), db)));
    using common::metric::Id;
    return Work{metrics.get(Id::kRowsAssembled), metrics.get(Id::kDeltaRowsScanned),
                metrics.get(Id::kDraTermsEvaluated), metrics.get(Id::kIndexProbes),
                metrics.get(Id::kBaseRowsScanned)};
  };
  for (const bool indexed : {true, false}) {
    SCOPED_TRACE(indexed ? "indexed" : "unindexed");
    const Work small = work(2048, indexed);
    const Work large = work(32768, indexed);
    EXPECT_EQ(small.rows_assembled, 8);
    EXPECT_EQ(large.rows_assembled, small.rows_assembled);
    EXPECT_EQ(small.delta_rows_scanned, 8);
    EXPECT_EQ(large.delta_rows_scanned, small.delta_rows_scanned);
    EXPECT_EQ(large.dra_terms_evaluated, small.dra_terms_evaluated);
    if (indexed) {
      EXPECT_GT(small.index_probes, 0);
      EXPECT_EQ(large.index_probes, small.index_probes);
      EXPECT_EQ(small.base_rows_scanned, 0);
      EXPECT_EQ(large.base_rows_scanned, 0);
    } else {
      EXPECT_EQ(small.index_probes, 0);
      EXPECT_EQ(small.base_rows_scanned, 2048);
      EXPECT_EQ(large.base_rows_scanned, 32768);
    }
  }
}

/// The empty delta of an initial execution carries the schema of every
/// later delta: for an aggregate CQ the aggregate output (group keys, then
/// aggregate columns), not the SPJ core it aggregates.
TEST(ContinualQuery, PrimingDeltaHasTheSchemaOfLaterDeltas) {
  for (const std::string sql :
       {"SELECT name, COUNT(*) AS n, MAX(price) AS top FROM Stocks GROUP BY name",
        "SELECT SUM(price) AS total FROM Stocks", "SELECT DISTINCT name FROM Stocks",
        "SELECT name FROM Stocks WHERE price > 100"}) {
    for (const DeliveryMode mode :
         {DeliveryMode::kInsertionsOnly, DeliveryMode::kDeletionsOnly,
          DeliveryMode::kDifferential, DeliveryMode::kComplete}) {
      SCOPED_TRACE(sql + " / " + to_string(mode));
      cat::Database db = stocks_db();
      ContinualQuery cq(spec_for(sql, mode), db);
      const Notification first = cq.execute_initial(db);
      db.insert("Stocks", {Value("MAC"), Value(130)});
      const Notification second = cq.execute(db);
      const std::string later = second.delta.inserted.schema().to_string();
      EXPECT_EQ(second.delta.deleted.schema().to_string(), later);
      EXPECT_EQ(first.delta.inserted.schema().to_string(), later);
      EXPECT_EQ(first.delta.deleted.schema().to_string(), later);
      ASSERT_TRUE(first.complete != nullptr);
      EXPECT_EQ(first.complete->schema().to_string(), later);
    }
  }
}

}  // namespace
}  // namespace cq::core
