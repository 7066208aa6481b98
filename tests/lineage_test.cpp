// Notification provenance end to end: base delta rows are tagged with
// stable (txn, relation, seq) identities at commit time, the DRA carries
// them through joins/projections/aggregation, and the manager's
// LineageStore retains them per notification. The hand-computed
// derivations here pin the exact citation sets — which commit, which
// relation, which delta row — not just "something was cited".
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/database.hpp"
#include "catalog/transaction.hpp"
#include "common/observability.hpp"
#include "cq/manager.hpp"
#include "query/parser.hpp"
#include "relation/provenance.hpp"

namespace cq {
namespace {

using core::CollectingSink;
using core::CqManager;
using core::CqSpec;
using core::LineageRecord;
using core::LineageRow;
using rel::Value;
using rel::prov::ProvId;

/// Every test toggles the process-global provenance flag through
/// set_lineage; restore a clean slate around each one.
class LineageTest : public ::testing::Test {
 protected:
  void TearDown() override {
    rel::prov::set_enabled(false);
    common::obs::set_enabled(false);
  }
};

void make_join_tables(cat::Database& db) {
  db.create_table("S", rel::Schema::of({{"name", rel::ValueType::kString},
                                        {"price", rel::ValueType::kInt}}));
  db.create_table("T", rel::Schema::of({{"name", rel::ValueType::kString},
                                        {"qty", rel::ValueType::kInt}}));
}

/// Assert a row cites exactly `expected` (ProvSets are canonically sorted,
/// so exact vector equality is meaningful).
void expect_sources(const LineageRow& row, const std::vector<ProvId>& expected) {
  ASSERT_EQ(row.sources.size(), expected.size()) << "row " << row.row;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(row.sources[i].txn, expected[i].txn) << "row " << row.row;
    EXPECT_EQ(rel::prov::relation_name(row.sources[i].rel),
              rel::prov::relation_name(expected[i].rel))
        << "row " << row.row;
    EXPECT_EQ(row.sources[i].seq, expected[i].seq) << "row " << row.row;
  }
}

ProvId id_of(const std::string& table, std::int64_t txn, std::uint64_t seq) {
  return {txn, rel::prov::intern_relation(table), seq};
}

/// Join CQ, hand-computed: a commit touching both join sides must cite
/// both relations' delta rows; a later commit touching only T cites only
/// its own ΔT row.
TEST_F(LineageTest, JoinLineageMatchesHandComputedDerivation) {
  cat::Database db;
  make_join_tables(db);
  CqManager mgr(db);
  mgr.set_lineage(true, 8);
  auto sink = std::make_shared<CollectingSink>();
  (void)mgr.install(
      CqSpec::from_sql("watch",
                       "SELECT S.name, T.qty FROM S, T "
                       "WHERE S.name = T.name AND S.price > 100",
                       core::triggers::on_change()),
      sink);

  {
    // Commit 1 (clock ticks to t=1): one transaction touching BOTH sides.
    auto txn = db.begin();
    txn.insert("S", {Value("DEC"), Value(std::int64_t{150})});
    txn.insert("T", {Value("DEC"), Value(std::int64_t{7})});
    txn.commit();
  }
  ASSERT_EQ(mgr.poll(), 1u);
  // Commit 2 (t=2): only T changes; its delta row is ΔT's second (seq 1).
  db.insert("T", {Value("DEC"), Value(std::int64_t{3})});
  ASSERT_EQ(mgr.poll(), 1u);

  const std::vector<LineageRecord> records = mgr.lineage().tail("watch", 8);
  ASSERT_EQ(records.size(), 3u);  // initial + two polls

  // Notification #1: +('DEC', 7) derives from ΔS txn1/seq0 AND ΔT txn1/seq0.
  ASSERT_EQ(records[1].rows.size(), 1u);
  EXPECT_TRUE(records[1].rows[0].inserted);
  expect_sources(records[1].rows[0], {id_of("S", 1, 0), id_of("T", 1, 0)});

  // Notification #2: +('DEC', 3) derives from ΔT txn2/seq1 alone — S did
  // not change, so its (base-bound) side contributes no delta citation.
  ASSERT_EQ(records[2].rows.size(), 1u);
  EXPECT_TRUE(records[2].rows[0].inserted);
  expect_sources(records[2].rows[0], {id_of("T", 2, 1)});
}

/// Aggregate CQ, hand-computed: each group's delta rows cite exactly the
/// base delta rows that landed in that group, and an update to one group
/// leaves the other group's citations out entirely.
TEST_F(LineageTest, AggregateLineageCitesPerGroupDeltas) {
  cat::Database db;
  db.create_table("S", rel::Schema::of({{"category", rel::ValueType::kString},
                                        {"price", rel::ValueType::kInt}}));
  CqManager mgr(db);
  mgr.set_lineage(true, 8);
  auto sink = std::make_shared<CollectingSink>();
  (void)mgr.install(
      CqSpec::from_sql("totals",
                       "SELECT category, SUM(price) AS total FROM S "
                       "GROUP BY category",
                       core::triggers::on_change()),
      sink);

  {
    // Commit 1 (t=1): red lands as ΔS seq 0, blue as ΔS seq 1.
    auto txn = db.begin();
    txn.insert("S", {Value("red"), Value(std::int64_t{10})});
    txn.insert("S", {Value("blue"), Value(std::int64_t{5})});
    txn.commit();
  }
  ASSERT_EQ(mgr.poll(), 1u);
  // Commit 2 (t=2): only red changes (ΔS seq 2).
  db.insert("S", {Value("red"), Value(std::int64_t{7})});
  ASSERT_EQ(mgr.poll(), 1u);

  const std::vector<LineageRecord> records = mgr.lineage().tail("totals", 8);
  ASSERT_EQ(records.size(), 3u);

  // Notification #1: each new group row cites its own base insert only.
  ASSERT_EQ(records[1].rows.size(), 2u);
  for (const LineageRow& row : records[1].rows) {
    EXPECT_TRUE(row.inserted);
    if (row.row.find("red") != std::string::npos) {
      expect_sources(row, {id_of("S", 1, 0)});
    } else {
      ASSERT_NE(row.row.find("blue"), std::string::npos) << row.row;
      expect_sources(row, {id_of("S", 1, 1)});
    }
  }

  // Notification #2: red's old aggregate row leaves and its new one
  // enters; both cite exactly the txn-2 delta. Blue contributes no rows.
  ASSERT_EQ(records[2].rows.size(), 2u);
  for (const LineageRow& row : records[2].rows) {
    ASSERT_NE(row.row.find("red"), std::string::npos) << row.row;
    expect_sources(row, {id_of("S", 2, 2)});
  }
}

/// DISTINCT CQ, hand-computed: DISTINCT is a grouping by every output
/// column, so a value inserted by two base rows in one commit cites both,
/// and a later commit that only raises a multiplicity delivers no row.
TEST_F(LineageTest, DistinctLineageCitesEveryRowOfTheValue) {
  cat::Database db;
  db.create_table("S", rel::Schema::of({{"category", rel::ValueType::kString},
                                        {"price", rel::ValueType::kInt}}));
  CqManager mgr(db);
  mgr.set_lineage(true, 8);
  auto sink = std::make_shared<CollectingSink>();
  (void)mgr.install(CqSpec::from_sql("kinds", "SELECT DISTINCT category FROM S",
                                     core::triggers::on_change()),
                    sink);

  {
    // Commit 1 (t=1): red lands twice (ΔS seq 0 and 2), blue once (seq 1).
    auto txn = db.begin();
    txn.insert("S", {Value("red"), Value(std::int64_t{10})});
    txn.insert("S", {Value("blue"), Value(std::int64_t{5})});
    txn.insert("S", {Value("red"), Value(std::int64_t{20})});
    txn.commit();
  }
  ASSERT_EQ(mgr.poll(), 1u);
  // Commit 2 (t=2): a third red row; red's multiplicity goes 2 -> 3.
  db.insert("S", {Value("red"), Value(std::int64_t{7})});
  ASSERT_EQ(mgr.poll(), 1u);

  const std::vector<LineageRecord> records = mgr.lineage().tail("kinds", 8);
  ASSERT_EQ(records.size(), 3u);

  // Notification #1: blue, then red (ascending), each inserted once.
  ASSERT_EQ(records[1].rows.size(), 2u);
  EXPECT_TRUE(records[1].rows[0].inserted);
  EXPECT_NE(records[1].rows[0].row.find("blue"), std::string::npos)
      << records[1].rows[0].row;
  expect_sources(records[1].rows[0], {id_of("S", 1, 1)});
  EXPECT_TRUE(records[1].rows[1].inserted);
  EXPECT_NE(records[1].rows[1].row.find("red"), std::string::npos)
      << records[1].rows[1].row;
  expect_sources(records[1].rows[1], {id_of("S", 1, 0), id_of("S", 1, 2)});

  // Notification #2: the distinct set did not change.
  EXPECT_TRUE(records[2].rows.empty());
}

/// Every citation in every retained record must resolve to a physical row
/// in the delta log with exactly that (txn, seq) identity.
TEST_F(LineageTest, CitedDeltaRowsExistInDeltaLog) {
  cat::Database db;
  make_join_tables(db);
  CqManager mgr(db);
  mgr.set_lineage(true, 16);
  auto sink = std::make_shared<CollectingSink>();
  (void)mgr.install(CqSpec::from_sql("watch",
                                     "SELECT S.name, T.qty FROM S, T "
                                     "WHERE S.name = T.name",
                                     core::triggers::on_change()),
                    sink);
  for (int i = 0; i < 6; ++i) {
    auto txn = db.begin();
    txn.insert("S", {Value("k" + std::to_string(i % 3)), Value(std::int64_t{i})});
    if (i % 2 == 0) {
      txn.insert("T", {Value("k" + std::to_string(i % 3)), Value(std::int64_t{i})});
    }
    txn.commit();
    (void)mgr.poll();
  }

  std::size_t citations = 0;
  for (const LineageRecord& rec : mgr.lineage().tail("watch", 16)) {
    for (const LineageRow& row : rec.rows) {
      for (const ProvId& id : row.sources) {
        const std::string table = rel::prov::relation_name(id.rel);
        ASSERT_TRUE(db.has_table(table));
        bool found = false;
        for (const auto& d : db.delta(table).rows()) {
          if (d.ts.ticks() == id.txn && d.seq == id.seq) {
            found = true;
            break;
          }
        }
        EXPECT_TRUE(found) << "Δ" << table << " txn=" << id.txn
                           << " seq=" << id.seq << " not in the delta log";
        ++citations;
      }
    }
  }
  EXPECT_GT(citations, 0u);
}

/// Lineage is recorded at the serialized delivery point, so the retained
/// records must be identical whether CQs evaluate on 1 lane or 4.
TEST_F(LineageTest, LineageIdenticalAcrossLaneCounts) {
  auto run = [](std::size_t lanes) {
    auto db = std::make_unique<cat::Database>();
    make_join_tables(*db);
    auto mgr = std::make_unique<CqManager>(*db);
    mgr->set_parallelism(lanes);
    mgr->set_lineage(true, 16);
    auto sink = std::make_shared<CollectingSink>();
    for (int c = 0; c < 3; ++c) {
      (void)mgr->install(
          CqSpec::from_sql("cq" + std::to_string(c),
                           "SELECT S.name, T.qty FROM S, T "
                           "WHERE S.name = T.name AND S.price > " +
                               std::to_string(c * 2),
                           core::triggers::on_change()),
          sink);
    }
    for (int i = 0; i < 8; ++i) {
      auto txn = db->begin();
      txn.insert("S", {Value("k" + std::to_string(i % 3)), Value(std::int64_t{i})});
      txn.insert("T", {Value("k" + std::to_string((i + 1) % 3)), Value(std::int64_t{i})});
      txn.commit();
      (void)mgr->poll();
    }
    // Serialize what was retained (rows + citations) per CQ.
    std::string out;
    for (int c = 0; c < 3; ++c) {
      const std::string name = "cq" + std::to_string(c);
      for (const LineageRecord& rec : mgr->lineage().tail(name, 16)) {
        out += name + "#" + std::to_string(rec.sequence) + "\n";
        for (const LineageRow& row : rec.rows) {
          out += (row.inserted ? "+" : "-") + row.row + " <=";
          for (const ProvId& id : row.sources) {
            out += " " + rel::prov::relation_name(id.rel) + ":" +
                   std::to_string(id.txn) + ":" + std::to_string(id.seq);
          }
          out += "\n";
        }
      }
    }
    mgr->set_lineage(false);
    return out;
  };

  const std::string sequential = run(1);
  const std::string parallel = run(4);
  EXPECT_FALSE(sequential.empty());
  EXPECT_EQ(sequential, parallel);
}

/// Satellite: with tracing on, journal events recorded inside the commit
/// pipeline (trigger_fired / cq_delivered) carry the commit's trace id, so
/// they join against /trace?trace_id= without timestamp guessing.
TEST_F(LineageTest, CommitPipelineEventsCarryTraceId) {
  common::obs::set_enabled(true);
  common::obs::global().reset();
  cat::Database db;
  make_join_tables(db);
  CqManager mgr(db);
  mgr.set_eager(true);  // deliver inside the commit, where the trace lives
  auto sink = std::make_shared<CollectingSink>();
  (void)mgr.install(CqSpec::from_sql("watch", "SELECT name, price FROM S",
                                     core::triggers::on_change()),
                    sink);
  db.insert("S", {Value("DEC"), Value(std::int64_t{150})});

  bool fired_traced = false;
  bool delivered_traced = false;
  for (const common::obs::Event& e : common::obs::global().events().tail(100)) {
    if (e.kind == "trigger_fired" && e.trace_id != 0) fired_traced = true;
    if (e.kind == "cq_delivered" && e.trace_id != 0) delivered_traced = true;
  }
  EXPECT_TRUE(fired_traced);
  EXPECT_TRUE(delivered_traced);
}

/// Satellite: ?since=<seq> filtering — tail() and to_ndjson() return only
/// events newer than the given journal sequence.
TEST_F(LineageTest, EventJournalSinceFilter) {
  common::obs::set_enabled(true);
  common::obs::global().reset();
  for (int i = 0; i < 5; ++i) {
    common::obs::event(common::obs::Severity::kInfo, "tick",
                       "s" + std::to_string(i));
  }
  auto& log = common::obs::global().events();
  const std::uint64_t total = log.total();
  ASSERT_GE(total, 5u);

  const auto fresh = log.tail(100, total - 2);
  ASSERT_EQ(fresh.size(), 2u);
  for (const auto& e : fresh) EXPECT_GT(e.seq, total - 2);

  EXPECT_TRUE(log.tail(100, total).empty());

  const std::string ndjson = log.to_ndjson(100, total - 1);
  EXPECT_NE(ndjson.find("\"trace_id\""), std::string::npos);
  EXPECT_EQ(ndjson.find("s0"), std::string::npos);
  EXPECT_NE(ndjson.find("s4"), std::string::npos);
}

/// The retention ring is bounded: K+extra notifications keep only the last
/// K records, and bytes() tracks evictions.
TEST_F(LineageTest, RetentionRingEvictsOldRecords) {
  cat::Database db;
  db.create_table("S", rel::Schema::of({{"name", rel::ValueType::kString},
                                        {"price", rel::ValueType::kInt}}));
  CqManager mgr(db);
  mgr.set_lineage(true, 3);
  auto sink = std::make_shared<CollectingSink>();
  (void)mgr.install(CqSpec::from_sql("watch", "SELECT name, price FROM S",
                                     core::triggers::on_change()),
                    sink);
  for (int i = 0; i < 7; ++i) {
    db.insert("S", {Value("r" + std::to_string(i)), Value(std::int64_t{i})});
    (void)mgr.poll();
  }
  const std::vector<LineageRecord> records = mgr.lineage().tail("watch", 100);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records.back().sequence, 7u);  // initial was #0, last poll is #7
  EXPECT_EQ(records.front().sequence, 5u);
  EXPECT_GT(mgr.lineage().bytes(), 0u);
}

/// Disabled path: with lineage off (the default), delivered tuples carry
/// no provenance and nothing is retained.
TEST_F(LineageTest, DisabledByDefaultCollectsNothing) {
  cat::Database db;
  db.create_table("S", rel::Schema::of({{"name", rel::ValueType::kString},
                                        {"price", rel::ValueType::kInt}}));
  CqManager mgr(db);
  auto sink = std::make_shared<CollectingSink>();
  (void)mgr.install(CqSpec::from_sql("watch", "SELECT name, price FROM S",
                                     core::triggers::on_change()),
                    sink);
  db.insert("S", {Value("DEC"), Value(std::int64_t{150})});
  ASSERT_EQ(mgr.poll(), 1u);

  EXPECT_TRUE(mgr.lineage().tail("watch", 8).empty());
  EXPECT_EQ(mgr.lineage().bytes(), 0u);
  for (const core::Notification& n : sink->notifications()) {
    for (const auto& row : n.delta.inserted.rows()) {
      EXPECT_EQ(row.prov(), nullptr);
    }
  }
}

}  // namespace
}  // namespace cq
