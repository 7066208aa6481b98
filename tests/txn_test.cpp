#include "catalog/transaction.hpp"

#include <gtest/gtest.h>

#include "catalog/database.hpp"
#include "common/error.hpp"
#include "delta/delta_snapshot.hpp"

namespace cq::cat {
namespace {

using common::Timestamp;
using delta::ChangeKind;
using rel::Tuple;
using rel::TupleId;
using rel::Value;
using rel::ValueType;

Database make_db() {
  Database db;
  db.create_table("T", rel::Schema::of({{"k", ValueType::kInt}, {"v", ValueType::kString}}));
  return db;
}

TEST(Transaction, NothingVisibleUntilCommit) {
  Database db = make_db();
  auto txn = db.begin();
  txn.insert("T", {Value(1), Value("a")});
  EXPECT_EQ(db.table("T").size(), 0u);
  EXPECT_TRUE(db.delta("T").empty());
  txn.commit();
  EXPECT_EQ(db.table("T").size(), 1u);
  EXPECT_EQ(db.delta("T").size(), 1u);
}

TEST(Transaction, SingleTimestampPerCommit) {
  Database db = make_db();
  auto txn = db.begin();
  txn.insert("T", {Value(1), Value("a")});
  txn.insert("T", {Value(2), Value("b")});
  const Timestamp ts = txn.commit();
  for (const auto& row : db.delta("T").rows()) EXPECT_EQ(row.ts, ts);
}

TEST(Transaction, AbortDiscardsEverything) {
  Database db = make_db();
  auto txn = db.begin();
  txn.insert("T", {Value(1), Value("a")});
  txn.abort();
  EXPECT_EQ(db.table("T").size(), 0u);
  EXPECT_TRUE(db.delta("T").empty());
  EXPECT_THROW(txn.commit(), common::InvalidArgument);
}

TEST(Transaction, DestructorAborts) {
  Database db = make_db();
  {
    auto txn = db.begin();
    txn.insert("T", {Value(1), Value("a")});
  }
  EXPECT_EQ(db.table("T").size(), 0u);
}

TEST(Transaction, PaperExample1Shape) {
  // Begin Transaction T: Insert; Modify; Delete; End — one delta row each.
  Database db = make_db();
  const TupleId dec = db.insert("T", {Value(120992), Value("DEC")});
  const TupleId qli = db.insert("T", {Value(92394), Value("QLI")});
  const Timestamp before = db.clock().now();

  auto txn = db.begin();
  txn.insert("T", {Value(101088), Value("MAC")});
  txn.modify("T", dec, {Value(120992), Value("DEC-149")});
  txn.erase("T", qli);
  txn.commit();

  const delta::DeltaSnapshot snap(db.delta("T"));
  const auto& net = snap.net_effect(before);
  ASSERT_EQ(net.size(), 3u);
  int inserts = 0;
  int modifies = 0;
  int deletes = 0;
  for (const auto& row : net) {
    switch (row.kind()) {
      case ChangeKind::kInsert: ++inserts; break;
      case ChangeKind::kModify: ++modifies; break;
      case ChangeKind::kDelete: ++deletes; break;
    }
  }
  EXPECT_EQ(inserts, 1);
  EXPECT_EQ(modifies, 1);
  EXPECT_EQ(deletes, 1);
}

TEST(Transaction, InsertThenModifySameTidIsNetInsert) {
  Database db = make_db();
  auto txn = db.begin();
  const TupleId tid = txn.insert("T", {Value(1), Value("a")});
  txn.modify("T", tid, {Value(1), Value("b")});
  const Timestamp ts = txn.commit();
  (void)ts;
  const delta::DeltaSnapshot snap(db.delta("T"));
  const auto& net = snap.net_effect(Timestamp::min());
  ASSERT_EQ(net.size(), 1u);
  EXPECT_EQ(net[0].kind(), ChangeKind::kInsert);
  EXPECT_EQ((*net[0].new_values)[1], Value("b"));
}

TEST(Transaction, InsertThenDeleteSameTidHasNoNetEffect) {
  Database db = make_db();
  auto txn = db.begin();
  const TupleId tid = txn.insert("T", {Value(1), Value("a")});
  txn.erase("T", tid);
  txn.commit();
  EXPECT_EQ(db.table("T").size(), 0u);
  EXPECT_TRUE(db.delta("T").empty());  // not even logged
}

TEST(Transaction, ModifyThenDeleteIsNetDelete) {
  Database db = make_db();
  const TupleId tid = db.insert("T", {Value(1), Value("orig")});
  const Timestamp before = db.clock().now();
  auto txn = db.begin();
  txn.modify("T", tid, {Value(1), Value("changed")});
  txn.erase("T", tid);
  txn.commit();
  const delta::DeltaSnapshot snap(db.delta("T"));
  const auto& net = snap.net_effect(before);
  ASSERT_EQ(net.size(), 1u);
  EXPECT_EQ(net[0].kind(), ChangeKind::kDelete);
  EXPECT_EQ((*net[0].old_values)[1], Value("orig"));  // pre-transaction value
}

TEST(Transaction, ModifyThenDeleteLogsExactlyOneDeleteRow) {
  // Regression guard on the *logged* shape, not just the net-effect view:
  // the commit must record one delete row carrying the pre-transaction
  // values — not a modify row followed by a delete row.
  Database db = make_db();
  const TupleId tid = db.insert("T", {Value(1), Value("orig")});
  const std::size_t logged_before = db.delta("T").size();
  auto txn = db.begin();
  txn.modify("T", tid, {Value(1), Value("changed")});
  txn.erase("T", tid);
  txn.commit();
  ASSERT_EQ(db.delta("T").size(), logged_before + 1);
  const auto& row = db.delta("T").rows().back();
  EXPECT_EQ(row.kind(), ChangeKind::kDelete);
  EXPECT_EQ((*row.old_values)[1], Value("orig"));
  EXPECT_EQ(db.table("T").size(), 0u);
}

TEST(Transaction, InsertThenModifyThenDeleteLeavesNoTrace) {
  // The full lifecycle inside one transaction must compose to nothing:
  // no base row, no delta row, and no commit-hook dispatch for the table.
  Database db = make_db();
  db.insert("T", {Value(7), Value("keep")});  // unrelated survivor
  const std::size_t logged_before = db.delta("T").size();
  auto txn = db.begin();
  const TupleId tid = txn.insert("T", {Value(1), Value("a")});
  txn.modify("T", tid, {Value(1), Value("b")});
  txn.erase("T", tid);
  txn.commit();
  EXPECT_EQ(db.table("T").size(), 1u);
  EXPECT_EQ(db.delta("T").size(), logged_before);  // nothing logged
}

TEST(Transaction, ModifyThenModifyBackCollapsesInNetEffect) {
  // Two modifies that land back on the original values log one modify row
  // (old == new), which the net-effect compaction then drops entirely.
  Database db = make_db();
  const TupleId tid = db.insert("T", {Value(1), Value("orig")});
  const Timestamp before = db.clock().now();
  auto txn = db.begin();
  txn.modify("T", tid, {Value(1), Value("detour")});
  txn.modify("T", tid, {Value(1), Value("orig")});
  txn.commit();
  const delta::DeltaSnapshot snap(db.delta("T"));
  EXPECT_TRUE(snap.net_effect(before).empty());
  EXPECT_EQ(db.table("T").find(tid)->values()[1], Value("orig"));
}

TEST(Transaction, ValidationFailureLeavesDatabaseUntouched) {
  Database db = make_db();
  db.insert("T", {Value(1), Value("a")});
  const std::size_t size_before = db.table("T").size();
  const std::size_t delta_before = db.delta("T").size();

  auto txn = db.begin();
  txn.insert("T", {Value(2), Value("b")});
  txn.erase("T", TupleId(9999));  // queued fine; fails validation at commit
  EXPECT_THROW(txn.commit(), common::NotFound);
  EXPECT_EQ(db.table("T").size(), size_before);
  EXPECT_EQ(db.delta("T").size(), delta_before);
}

TEST(Transaction, DoubleDeleteRejected) {
  Database db = make_db();
  const TupleId tid = db.insert("T", {Value(1), Value("a")});
  auto txn = db.begin();
  txn.erase("T", tid);
  txn.erase("T", tid);
  EXPECT_THROW(txn.commit(), common::NotFound);
}

TEST(Transaction, ModifyAfterDeleteRejected) {
  Database db = make_db();
  const TupleId tid = db.insert("T", {Value(1), Value("a")});
  auto txn = db.begin();
  txn.erase("T", tid);
  txn.modify("T", tid, {Value(1), Value("b")});
  EXPECT_THROW(txn.commit(), common::NotFound);
}

TEST(Transaction, UnknownTableRejectedAtQueueTime) {
  Database db = make_db();
  auto txn = db.begin();
  EXPECT_THROW(txn.insert("Nope", {Value(1)}), common::NotFound);
  EXPECT_THROW(txn.erase("Nope", TupleId(1)), common::NotFound);
}

TEST(Transaction, ArityCheckedAtQueueTime) {
  Database db = make_db();
  auto txn = db.begin();
  EXPECT_THROW(txn.insert("T", {Value(1)}), common::SchemaMismatch);
}

TEST(Transaction, MultiTableCommit) {
  Database db = make_db();
  db.create_table("U", rel::Schema::of({{"x", ValueType::kInt}}));
  auto txn = db.begin();
  txn.insert("T", {Value(1), Value("a")});
  txn.insert("U", {Value(2)});
  const Timestamp ts = txn.commit();
  EXPECT_EQ(db.delta("T").rows().back().ts, ts);
  EXPECT_EQ(db.delta("U").rows().back().ts, ts);
}

TEST(Database, CommitHookFiresWithTouchedTables) {
  Database db = make_db();
  db.create_table("U", rel::Schema::of({{"x", ValueType::kInt}}));
  std::vector<std::string> seen;
  db.set_commit_hook([&](const std::vector<std::string>& tables, Timestamp) {
    seen = tables;
  });
  auto txn = db.begin();
  txn.insert("T", {Value(1), Value("a")});
  txn.insert("U", {Value(2)});
  txn.commit();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], "T");
  EXPECT_EQ(seen[1], "U");
}

TEST(Database, CommitHookSkipsNetNoopTables) {
  Database db = make_db();
  std::size_t calls = 0;
  std::size_t tables_seen = 0;
  db.set_commit_hook([&](const std::vector<std::string>& tables, Timestamp) {
    ++calls;
    tables_seen += tables.size();
  });
  auto txn = db.begin();
  const TupleId tid = txn.insert("T", {Value(1), Value("a")});
  txn.erase("T", tid);  // net no-op
  txn.commit();
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(tables_seen, 0u);
}

TEST(Database, SingleStatementConveniences) {
  Database db = make_db();
  const TupleId tid = db.insert("T", {Value(1), Value("a")});
  db.modify("T", tid, {Value(1), Value("b")});
  EXPECT_EQ(db.table("T").find(tid)->at(1), Value("b"));
  db.erase("T", tid);
  EXPECT_EQ(db.table("T").size(), 0u);
  EXPECT_EQ(db.delta("T").size(), 3u);
}

TEST(Transaction, MidApplyFailureRollsBackAppliedOps) {
  // A fault injected after the second applied op must undo both applied
  // ops before the exception escapes: the base table, its byte
  // accounting and the delta log all look exactly as before commit().
  Database db = make_db();
  const TupleId seeded = db.insert("T", {Value(1), Value("a")});
  const std::size_t rows_before = db.table("T").size();
  const std::size_t delta_before = db.delta("T").size();

  struct Fault {};
  auto txn = db.begin();
  txn.insert("T", {Value(2), Value("b")});
  txn.modify("T", seeded, {Value(1), Value("a2")});
  txn.erase("T", seeded);
  txn.set_apply_fault_hook_for_testing([](std::size_t applied) {
    if (applied == 2) throw Fault{};
  });
  EXPECT_THROW(txn.commit(), Fault);

  EXPECT_EQ(db.table("T").size(), rows_before);
  EXPECT_EQ(db.delta("T").size(), delta_before);
  EXPECT_EQ(db.table("T").find(seeded)->at(1), Value("a"));  // modify undone
  txn.abort();

  // The database stays fully usable: a later clean commit sees no debris.
  auto next = db.begin();
  next.modify("T", seeded, {Value(1), Value("final")});
  next.commit();
  EXPECT_EQ(db.table("T").find(seeded)->at(1), Value("final"));
}

TEST(Transaction, MidApplyFailureOnDeleteRestoresTheRow) {
  Database db = make_db();
  const TupleId victim = db.insert("T", {Value(7), Value("keep")});

  struct Fault {};
  auto txn = db.begin();
  txn.erase("T", victim);
  txn.insert("T", {Value(8), Value("new")});
  txn.set_apply_fault_hook_for_testing([](std::size_t applied) {
    if (applied == 2) throw Fault{};
  });
  EXPECT_THROW(txn.commit(), Fault);

  ASSERT_NE(db.table("T").find(victim), nullptr);
  EXPECT_EQ(db.table("T").find(victim)->at(1), Value("keep"));
  EXPECT_EQ(db.table("T").size(), 1u);
}

TEST(Transaction, AbortReturnsReservedTids) {
  // An aborted transaction's reserved tids go back to the pool, so the
  // next *committed* insert gets the tid the aborted one would have used
  // — aborts leave no gaps in the committed tid sequence.
  Database db = make_db();
  TupleId wasted;
  {
    auto txn = db.begin();
    wasted = txn.insert("T", {Value(1), Value("discarded")});
    txn.abort();
  }
  const TupleId committed = db.insert("T", {Value(1), Value("kept")});
  EXPECT_EQ(committed.raw(), wasted.raw());
}

TEST(Transaction, AbortUnwindsMultipleReservationsNewestFirst) {
  Database db = make_db();
  {
    auto txn = db.begin();
    txn.insert("T", {Value(1), Value("a")});
    txn.insert("T", {Value(2), Value("b")});
    txn.insert("T", {Value(3), Value("c")});
    txn.abort();
  }
  {
    auto txn = db.begin();
    const TupleId t1 = txn.insert("T", {Value(4), Value("d")});
    const TupleId t2 = txn.insert("T", {Value(5), Value("e")});
    txn.commit();
    EXPECT_EQ(t2.raw(), t1.raw() + 1);
  }
  EXPECT_EQ(db.table("T").size(), 2u);
}

TEST(Transaction, InterleavedAbortKeepsLaterReservationValid) {
  // Reservations interleave: txn A reserves, txn B reserves on top, A
  // aborts. A's tid cannot be returned (B built on it) — but B's commit
  // must still apply cleanly with the tid it was handed.
  Database db = make_db();
  auto a = db.begin();
  auto b = db.begin();
  const TupleId a_tid = a.insert("T", {Value(1), Value("a")});
  const TupleId b_tid = b.insert("T", {Value(2), Value("b")});
  ASSERT_NE(a_tid.raw(), b_tid.raw());
  a.abort();
  b.commit();
  ASSERT_NE(db.table("T").find(b_tid), nullptr);
  EXPECT_EQ(db.table("T").find(b_tid)->at(0), Value(2));
  EXPECT_EQ(db.table("T").size(), 1u);
}

TEST(Database, ShardAccountingCountsCommitsPerShard) {
  Database db = make_db();
  db.create_table("U", rel::Schema::of({{"k", ValueType::kInt}}));
  const std::uint64_t seq_before = db.commit_sequence();
  const std::size_t t_shard = Database::shard_of("T");
  const std::size_t u_shard = Database::shard_of("U");
  const std::uint64_t t_before = db.shard_commits(t_shard);
  db.insert("T", {Value(1), Value("a")});
  db.insert("U", {Value(2)});
  EXPECT_EQ(db.commit_sequence(), seq_before + 2);
  const std::uint64_t t_expected = t_shard == u_shard ? 2 : 1;
  EXPECT_EQ(db.shard_commits(t_shard), t_before + t_expected);
  EXPECT_GE(db.shard_commits(u_shard), 1u);
  EXPECT_EQ(db.shard_commits(Database::kNumShards + 5), 0u);  // out of range
}

TEST(Database, TableManagement) {
  Database db = make_db();
  EXPECT_TRUE(db.has_table("T"));
  EXPECT_FALSE(db.has_table("X"));
  EXPECT_THROW(db.create_table("T", rel::Schema::of({{"x", ValueType::kInt}})),
               common::InvalidArgument);
  EXPECT_THROW(static_cast<void>(db.table("X")), common::NotFound);
  EXPECT_EQ(db.table_names(), std::vector<std::string>{"T"});
}

}  // namespace
}  // namespace cq::cat
