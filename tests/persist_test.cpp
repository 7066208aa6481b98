// Durable snapshots and restart: database round-trips, and the
// reconstruct-by-reverse-DRA restore of CQ runtime state. The gold test
// runs a restarted deployment side by side with an uninterrupted twin and
// requires identical notification streams after the restart point.
#include <gtest/gtest.h>

#include "catalog/transaction.hpp"
#include "common/error.hpp"
#include "cq/dra.hpp"
#include "cq/propagate.hpp"
#include "persist/snapshot.hpp"
#include "query/evaluate.hpp"
#include "query/parser.hpp"
#include "testing/random_db.hpp"

namespace cq {
namespace {

using core::CqHandle;
using core::CqSpec;
using core::DeliveryMode;
using core::Notification;
using persist::Bytes;
using rel::Value;
using rel::ValueType;

TEST(Snapshot, DatabaseRoundTrip) {
  common::Rng rng(31);
  cat::Database db;
  testing::make_stock_table(db, "S", 80, rng);
  db.create_index("S", "by_cat", {"category"});
  db.create_table("Empty", rel::Schema::of({{"x", ValueType::kInt}}));
  testing::random_updates(db, "S", 30,
                          {.modify_fraction = 0.3, .delete_fraction = 0.3}, rng);

  const Bytes blob = persist::save_database(db);
  cat::Database restored = persist::load_database(blob);

  EXPECT_EQ(restored.table_names(), db.table_names());
  EXPECT_EQ(restored.clock().now(), db.clock().now());
  EXPECT_TRUE(restored.table("S").equal_multiset(db.table("S")));
  EXPECT_EQ(restored.delta("S").size(), db.delta("S").size());
  EXPECT_TRUE(restored.table("Empty").empty());
  // Tids survive (needed so future deltas line up).
  for (const auto& row : db.table("S").rows()) {
    ASSERT_NE(restored.table("S").find(row.tid()), nullptr);
  }
  // Indexes rebuilt.
  const auto* index = restored.index_on("S", {restored.table("S").schema().index_of(
                                                 "category")});
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->entries(), restored.table("S").size());
}

TEST(Snapshot, RestoredDatabaseAcceptsNewTransactions) {
  common::Rng rng(32);
  cat::Database db;
  testing::make_stock_table(db, "S", 20, rng);
  cat::Database restored = persist::load_database(persist::save_database(db));
  // New commits continue the timestamp sequence and tid sequence.
  const auto tid = restored.insert("S", {Value(1), Value("tech"), Value(5), Value(1)});
  EXPECT_GT(tid.raw(), 20u);
  EXPECT_GT(restored.delta("S").rows().back().ts, db.clock().now());
}

/// A restored table is keyed again: erase/modify commits find their rows
/// by tid, and a DRA join term probes its persistent index, on the
/// restored database exactly as on the original.
TEST(Snapshot, RestoredTableServesCommitsAndIndexProbes) {
  common::Rng rng(33);
  cat::Database db;
  testing::make_stock_table(db, "S", 300, rng);
  testing::make_stock_table(db, "T", 40, rng);
  db.create_index("S", "by_cat", {"category"});
  testing::random_updates(db, "S", 60, {.modify_fraction = 0.3, .delete_fraction = 0.4},
                          rng);
  cat::Database restored = persist::load_database(persist::save_database(db));
  ASSERT_TRUE(restored.table("S").keyed());
  ASSERT_TRUE(restored.table("T").keyed());

  const qry::SpjQuery query =
      qry::parse_query("SELECT * FROM S s, T t WHERE s.category = t.category");
  const rel::Relation before = core::recompute(query, restored);
  const common::Timestamp t0 = restored.clock().now();
  ASSERT_EQ(t0, db.clock().now());

  // The same erase/modify commits on both databases, by tid.
  const std::vector<rel::TupleId> s_tids = testing::live_tids(db, "S");
  const std::vector<rel::TupleId> t_tids = testing::live_tids(db, "T");
  for (cat::Database* target : {&db, &restored}) {
    auto txn = target->begin();
    for (std::size_t i = 0; i < s_tids.size(); i += 7) txn.erase("S", s_tids[i]);
    for (std::size_t i = 3; i < s_tids.size(); i += 11) {
      if (i % 7 == 0) continue;  // erased above
      txn.modify("S", s_tids[i], {Value(1000 + static_cast<std::int64_t>(i)), Value("tech"),
                                  Value(5), Value(1)});
    }
    txn.modify("T", t_tids[0], {Value(1), Value("bank"), Value(7), Value(2)});
    txn.erase("T", t_tids[1]);
    txn.commit();
  }
  ASSERT_TRUE(restored.table("S").equal_multiset(db.table("S")));
  for (const auto& row : db.table("S").rows()) {
    const rel::Tuple* twin = restored.table("S").find(row.tid());
    ASSERT_NE(twin, nullptr);
    EXPECT_TRUE(twin->same_values(row));
  }
  EXPECT_THROW(restored.erase("S", s_tids[0]), common::NotFound);

  core::DraStats stats;
  const core::DiffResult on_restored =
      core::dra_differential(query, restored, t0, nullptr, &stats);
  EXPECT_GT(stats.index_probes, 0u);  // the ΔT term probes S's index
  EXPECT_TRUE(on_restored.equivalent(core::dra_differential(query, db, t0)));
  EXPECT_TRUE(on_restored.equivalent(core::propagate(query, restored, before)));
}

/// Tids past the 32-bit range survive a snapshot round trip, and the
/// restored table serves erase/modify commits and inserts on them.
TEST(Snapshot, HighTidsRoundTrip) {
  const rel::Schema schema =
      rel::Schema::of({{"k", ValueType::kInt}, {"v", ValueType::kString}});
  const rel::TupleId::rep high = rel::TupleId::rep{1} << 33;
  rel::Relation rows(schema);
  for (std::int64_t i = 0; i < 5; ++i) {
    rows.append(rel::Tuple({Value(i), Value("r")},
                           rel::TupleId(high + 4096 * static_cast<rel::TupleId::rep>(i))));
  }
  cat::Database db;
  db.restore_table("H", rows, delta::DeltaRelation(schema));
  ASSERT_TRUE(db.table("H").keyed());
  {
    auto txn = db.begin();
    txn.erase("H", rel::TupleId(high));
    txn.modify("H", rel::TupleId(high + 4096), {Value(10), Value("m")});
    const rel::TupleId fresh = txn.insert("H", {Value(11), Value("n")});
    EXPECT_EQ(fresh, rel::TupleId(high + 4096 * 4 + 1));
    txn.commit();
  }

  cat::Database restored = persist::load_database(persist::save_database(db));
  ASSERT_TRUE(restored.table("H").keyed());
  ASSERT_TRUE(restored.table("H").equal_multiset(db.table("H")));
  for (const auto& row : db.table("H").rows()) {
    const rel::Tuple* twin = restored.table("H").find(row.tid());
    ASSERT_NE(twin, nullptr);
    EXPECT_TRUE(twin->same_values(row));
  }
  EXPECT_FALSE(restored.table("H").contains(rel::TupleId(high)));
  for (cat::Database* target : {&db, &restored}) {
    auto txn = target->begin();
    txn.erase("H", rel::TupleId(high + 4096 * 4 + 1));
    txn.modify("H", rel::TupleId(high + 4096 * 2), {Value(12), Value("o")});
    EXPECT_EQ(txn.insert("H", {Value(13), Value("p")}), rel::TupleId(high + 4096 * 4 + 2));
    txn.commit();
  }
  EXPECT_TRUE(restored.table("H").equal_multiset(db.table("H")));
  EXPECT_THROW(restored.erase("H", rel::TupleId(high)), common::NotFound);
}

TEST(Snapshot, CorruptInputRejected) {
  Bytes junk{1, 2, 3};
  EXPECT_THROW(static_cast<void>(persist::load_database(junk)),
               common::InvalidArgument);
  cat::Database db;
  Bytes blob = persist::save_database(db);
  blob.push_back(0);
  EXPECT_THROW(static_cast<void>(persist::load_database(blob)),
               common::InvalidArgument);
}

TEST(Snapshot, ManifestRoundTrip) {
  std::vector<persist::CqManifestEntry> entries = {
      {"alpha", common::Timestamp(17), 3},
      {"beta", common::Timestamp(99), 1},
  };
  const auto back = persist::decode_manifest(persist::encode_manifest(entries));
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].name, "alpha");
  EXPECT_EQ(back[0].last_execution, common::Timestamp(17));
  EXPECT_EQ(back[1].executions, 1u);
}

/// A CQ restored from (last_exec, executions) must behave exactly like one
/// that never stopped — including consuming the deltas that arrived
/// *before* the snapshot but after its last execution.
TEST(Restore, ResumesWithPendingDeltas) {
  common::Rng rng(33);
  cat::Database db;
  testing::make_stock_table(db, "S", 100, rng);

  core::CqManager manager(db);
  auto sink = std::make_shared<core::CollectingSink>();
  const CqHandle h = manager.install(
      CqSpec::from_sql("w", "SELECT id, price FROM S WHERE price > 600",
                       core::triggers::manual(), nullptr, DeliveryMode::kComplete),
      sink);
  testing::random_updates(db, "S", 20, {}, rng);
  (void)manager.execute_now(h);

  // More updates arrive, then the deployment dies (snapshot taken).
  testing::random_updates(db, "S", 25, {}, rng);
  const Bytes blob = persist::encode_snapshot(db, manager);

  // --- restart ---
  persist::DecodedSnapshot snap = persist::decode_snapshot(blob);
  ASSERT_EQ(snap.cqs.size(), 1u);
  core::CqManager manager2(snap.db);
  auto sink2 = std::make_shared<core::CollectingSink>();
  const CqHandle h2 = manager2.install_restored(
      CqSpec::from_sql("w", "SELECT id, price FROM S WHERE price > 600",
                       core::triggers::manual(), nullptr, DeliveryMode::kComplete),
      sink2, snap.cqs[0].last_execution, snap.cqs[0].executions);

  // The restored CQ's next execution must deliver exactly the pending
  // window and a complete result equal to a fresh recompute.
  const Notification n = manager2.execute_now(h2);
  EXPECT_EQ(n.sequence, snap.cqs[0].executions);
  const rel::Relation fresh = qry::evaluate(
      qry::parse_query("SELECT id, price FROM S WHERE price > 600"), snap.db);
  EXPECT_TRUE(n.complete->equal_multiset(fresh));
  EXPECT_FALSE(n.delta.empty());  // the pre-snapshot pending deltas
}

/// Twin-run equivalence: snapshot/restore mid-stream, then feed both the
/// original and the restored deployment the same post-restart updates;
/// their notification streams must be identical.
TEST(Restore, TwinRunEquivalence) {
  const char* kSql = "SELECT category, SUM(price) AS total FROM S GROUP BY category";
  auto updates_a = [](cat::Database& db, common::Rng& rng) {
    testing::random_updates(db, "S", 15,
                            {.modify_fraction = 0.4, .delete_fraction = 0.2}, rng);
  };

  // Deployment 1: uninterrupted.
  common::Rng rng1(34);
  cat::Database db1;
  testing::make_stock_table(db1, "S", 90, rng1);
  core::CqManager mgr1(db1);
  auto sink1 = std::make_shared<core::CollectingSink>();
  const CqHandle h1 =
      mgr1.install(CqSpec::from_sql("agg", kSql, core::triggers::manual()), sink1);
  updates_a(db1, rng1);
  (void)mgr1.execute_now(h1);
  updates_a(db1, rng1);

  // Deployment 2: identical history, then snapshot + restart here.
  common::Rng rng2(34);
  cat::Database db2;
  testing::make_stock_table(db2, "S", 90, rng2);
  core::CqManager mgr2(db2);
  const CqHandle h2_pre =
      mgr2.install(CqSpec::from_sql("agg", kSql, core::triggers::manual()), nullptr);
  updates_a(db2, rng2);
  (void)mgr2.execute_now(h2_pre);
  updates_a(db2, rng2);
  const Bytes blob = persist::encode_snapshot(db2, mgr2);
  persist::DecodedSnapshot snap = persist::decode_snapshot(blob);
  core::CqManager mgr2b(snap.db);
  auto sink2 = std::make_shared<core::CollectingSink>();
  const CqHandle h2 = mgr2b.install_restored(
      CqSpec::from_sql("agg", kSql, core::triggers::manual()), sink2,
      snap.cqs[0].last_execution, snap.cqs[0].executions);

  // Same post-restart updates on both (same RNG state by construction).
  for (int round = 0; round < 5; ++round) {
    updates_a(db1, rng1);
    updates_a(snap.db, rng2);
    const Notification a = mgr1.execute_now(h1);
    const Notification b = mgr2b.execute_now(h2);
    ASSERT_EQ(a.sequence, b.sequence) << "round " << round;
    ASSERT_TRUE(a.delta.equivalent(b.delta)) << "round " << round;
    ASSERT_TRUE(a.aggregate->equal_multiset(*b.aggregate)) << "round " << round;
  }
}

/// Restore of DISTINCT and MIN/MAX state (the hard accumulators) through
/// the reverse-DRA reconstruction.
TEST(Restore, DistinctAndMinMaxState) {
  for (const char* sql :
       {"SELECT DISTINCT category FROM S",
        "SELECT category, MIN(price) AS lo, MAX(price) AS hi FROM S GROUP BY category"}) {
    common::Rng rng(35);
    cat::Database db;
    testing::make_stock_table(db, "S", 60, rng);
    core::CqManager manager(db);
    const CqHandle h = manager.install(
        CqSpec::from_sql("q", sql, core::triggers::manual(), nullptr,
                         DeliveryMode::kComplete),
        nullptr);
    testing::random_updates(db, "S", 20,
                            {.modify_fraction = 0.4, .delete_fraction = 0.3}, rng);
    (void)manager.execute_now(h);
    testing::random_updates(db, "S", 20,
                            {.modify_fraction = 0.4, .delete_fraction = 0.3}, rng);

    persist::DecodedSnapshot snap =
        persist::decode_snapshot(persist::encode_snapshot(db, manager));
    core::CqManager manager2(snap.db);
    auto sink = std::make_shared<core::CollectingSink>();
    const CqHandle h2 = manager2.install_restored(
        CqSpec::from_sql("q", sql, core::triggers::manual(), nullptr,
                         DeliveryMode::kComplete),
        sink, snap.cqs[0].last_execution, snap.cqs[0].executions);

    testing::random_updates(snap.db, "S", 20,
                            {.modify_fraction = 0.4, .delete_fraction = 0.3}, rng);
    const Notification n = manager2.execute_now(h2);
    const rel::Relation fresh = qry::evaluate(qry::parse_query(sql), snap.db);
    const rel::Relation& maintained =
        n.aggregate ? *n.aggregate : *n.complete;
    EXPECT_TRUE(maintained.equal_multiset(fresh)) << sql;
  }
}

TEST(Restore, Validation) {
  cat::Database db;
  db.create_table("T", rel::Schema::of({{"x", ValueType::kInt}}));
  core::CqManager manager(db);
  auto spec = CqSpec::from_sql("q", "SELECT * FROM T", core::triggers::manual());
  EXPECT_THROW(static_cast<void>(manager.install_restored(
                   spec, nullptr, common::Timestamp(0), /*executions=*/0)),
               common::InvalidArgument);
}

}  // namespace
}  // namespace cq
