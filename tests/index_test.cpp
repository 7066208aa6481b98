// Persistent (maintained) indexes: incremental consistency through
// transactions, and the DRA's index-probing join path vs the oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "catalog/transaction.hpp"
#include "common/error.hpp"
#include "cq/dra.hpp"
#include "cq/propagate.hpp"
#include "cq/trigger.hpp"
#include "delta/delta_snapshot.hpp"
#include "query/parser.hpp"
#include "relation/index.hpp"
#include "testing/random_db.hpp"

namespace cq {
namespace {

using rel::MaintainedIndex;
using rel::Relation;
using rel::Schema;
using rel::Tuple;
using rel::TupleId;
using rel::Value;
using rel::ValueType;

TEST(MaintainedIndex, BuildAndProbe) {
  Relation r =
      Relation::keyed_table(Schema::of({{"k", ValueType::kInt}, {"v", ValueType::kString}}));
  const TupleId a = r.insert_values({Value(1), Value("a")});
  r.insert_values({Value(2), Value("b")});
  const TupleId c = r.insert_values({Value(1), Value("c")});

  MaintainedIndex index({0});
  index.build(r);
  EXPECT_EQ(index.entries(), 3u);
  EXPECT_EQ(index.distinct_keys(), 2u);
  const auto& hits = index.probe({Value(1)});
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_TRUE((hits[0] == a && hits[1] == c) || (hits[0] == c && hits[1] == a));
  EXPECT_TRUE(index.probe({Value(99)}).empty());
}

TEST(MaintainedIndex, IncrementalMaintenance) {
  MaintainedIndex index({0});
  const Tuple row1({Value(5), Value("x")}, TupleId(1));
  const Tuple row2({Value(5), Value("y")}, TupleId(2));
  index.on_insert(row1);
  index.on_insert(row2);
  EXPECT_EQ(index.probe({Value(5)}).size(), 2u);

  index.on_erase(row1);
  ASSERT_EQ(index.probe({Value(5)}).size(), 1u);
  EXPECT_EQ(index.probe({Value(5)})[0], TupleId(2));

  const Tuple row2_new({Value(7), Value("y")}, TupleId(2));
  index.on_update(row2, row2_new);
  EXPECT_TRUE(index.probe({Value(5)}).empty());
  EXPECT_EQ(index.probe({Value(7)}).size(), 1u);
  EXPECT_EQ(index.entries(), 1u);
}

TEST(MaintainedIndex, CompositeKey) {
  MaintainedIndex index({1, 0});
  index.on_insert(Tuple({Value(1), Value("a")}, TupleId(1)));
  // Key order follows the index's column order: (col1, col0).
  EXPECT_EQ(index.probe({Value("a"), Value(1)}).size(), 1u);
  EXPECT_TRUE(index.probe({Value(1), Value("a")}).empty());
}

/// `=` is never true on NULL, so a NULL-keyed row is not indexed: a NULL
/// probe finds nothing, entries() leaves the row out, and erasing or
/// updating it (into or out of a NULL key) keeps the index consistent.
TEST(MaintainedIndex, NullKeyedRowsAreNotIndexed) {
  Relation r = Relation::keyed_table(Schema::of({{"k", ValueType::kInt}, {"v", ValueType::kInt}}));
  r.insert_values({Value(1), Value(10)});
  r.insert_values({Value::null(), Value(20)});
  MaintainedIndex index({0});
  index.build(r);
  EXPECT_EQ(index.entries(), 1u);
  EXPECT_EQ(index.distinct_keys(), 1u);
  EXPECT_TRUE(index.probe({Value::null()}).empty());

  const Tuple null_row({Value::null(), Value(30)}, TupleId(7));
  index.on_insert(null_row);
  EXPECT_EQ(index.entries(), 1u);
  EXPECT_TRUE(index.probe({Value::null()}).empty());
  index.on_erase(null_row);
  EXPECT_EQ(index.entries(), 1u);

  // NULL -> 2 enters the index; 2 -> NULL leaves it again.
  const Tuple keyed({Value(2), Value(30)}, TupleId(7));
  index.on_update(null_row, keyed);
  EXPECT_EQ(index.entries(), 2u);
  ASSERT_EQ(index.probe({Value(2)}).size(), 1u);
  index.on_update(keyed, null_row);
  EXPECT_EQ(index.entries(), 1u);
  EXPECT_TRUE(index.probe({Value(2)}).empty());
  EXPECT_EQ(index.probe({Value(1)}).size(), 1u);

  // Composite keys: one NULL column is enough to leave the row out.
  MaintainedIndex composite({0, 1});
  composite.on_insert(Tuple({Value(1), Value::null()}, TupleId(1)));
  EXPECT_EQ(composite.entries(), 0u);
  EXPECT_TRUE(composite.probe({Value(1), Value::null()}).empty());
}

struct DbFixture {
  cat::Database db;
  DbFixture() {
    db.create_table("T", Schema::of({{"k", ValueType::kInt}, {"grp", ValueType::kInt}}));
    db.create_index("T", "by_grp", {"grp"});
  }

  /// Index contents must always equal a scan-built index.
  void check_consistent() const {
    const auto* index = db.index_on("T", {1});
    ASSERT_NE(index, nullptr);
    std::size_t scanned = 0;
    for (const auto& row : db.table("T").rows()) {
      const auto& hits = index->probe({row.at(1)});
      bool found = false;
      for (auto tid : hits) found = found || tid == row.tid();
      EXPECT_TRUE(found) << "row " << row.to_string() << " missing from index";
      ++scanned;
    }
    EXPECT_EQ(index->entries(), scanned);
  }
};

TEST(DatabaseIndex, MaintainedThroughTransactions) {
  DbFixture f;
  auto txn = f.db.begin();
  const TupleId a = txn.insert("T", {Value(1), Value(10)});
  const TupleId b = txn.insert("T", {Value(2), Value(20)});
  txn.commit();
  f.check_consistent();

  f.db.modify("T", a, {Value(1), Value(20)});
  f.check_consistent();

  f.db.erase("T", b);
  f.check_consistent();

  // Aborted transactions leave the index untouched.
  auto doomed = f.db.begin();
  doomed.insert("T", {Value(9), Value(90)});
  doomed.abort();
  f.check_consistent();
}

TEST(DatabaseIndex, FailedCommitDoesNotCorruptIndex) {
  DbFixture f;
  const TupleId a = f.db.insert("T", {Value(1), Value(10)});
  auto txn = f.db.begin();
  txn.erase("T", a);
  txn.erase("T", a);  // double delete -> validation failure
  EXPECT_THROW(txn.commit(), common::NotFound);
  f.check_consistent();
  EXPECT_EQ(f.db.table("T").size(), 1u);
}

TEST(DatabaseIndex, CreationValidation) {
  DbFixture f;
  EXPECT_THROW(f.db.create_index("T", "by_grp", {"k"}), common::InvalidArgument);
  EXPECT_THROW(f.db.create_index("T", "x", {}), common::InvalidArgument);
  EXPECT_THROW(f.db.create_index("T", "x", {"nope"}), common::NotFound);
  EXPECT_THROW(f.db.create_index("Nope", "x", {"k"}), common::NotFound);
  EXPECT_EQ(f.db.index_names("T"), std::vector<std::string>{"by_grp"});
  EXPECT_EQ(f.db.index_on("T", {0}), nullptr);
  EXPECT_NE(f.db.index_on("T", {1}), nullptr);
}

TEST(DatabaseIndex, BuildsFromExistingRows) {
  cat::Database db;
  db.create_table("T", Schema::of({{"k", ValueType::kInt}}));
  for (int i = 0; i < 20; ++i) db.insert("T", {Value(i % 4)});
  db.create_index("T", "by_k", {"k"});
  const auto* index = db.index_on("T", {0});
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->entries(), 20u);
  EXPECT_EQ(index->probe({Value(2)}).size(), 5u);
}

/// One seeded DRA scenario, built twice from the same seed: with the
/// scenario's indexes created before the updates (so commit-time index
/// maintenance runs and join terms probe) and without any (so the same
/// join terms scan the base). Both twins see identical rows, tids and
/// commit timestamps.
struct DraScenario {
  cat::Database db;
  qry::SpjQuery query;
  Relation before;
  common::Timestamp t0{};
};

/// The DRA with index probing must agree with Propagate, and must actually
/// use the index (stats.index_probes > 0, no base scan counted).
TEST(DraWithIndex, JoinTermsProbeInsteadOfScan) {
  auto build = [](DraScenario& s, bool indexed) {
    common::Rng rng(404);
    testing::make_stock_table(s.db, "S", 300, rng);
    testing::make_stock_table(s.db, "T", 300, rng);
    if (indexed) {
      s.db.create_index("T", "by_cat", {"category"});
      s.db.create_index("S", "by_cat", {"category"});
    }
    s.query = testing::random_join_query({"S", "T"}, rng);
    s.before = core::recompute(s.query, s.db);
    s.t0 = s.db.clock().now();
    testing::random_updates(s.db, "S", 40,
                            {.modify_fraction = 0.3, .delete_fraction = 0.2}, rng);
  };
  DraScenario indexed;
  build(indexed, true);
  DraScenario scan;
  build(scan, false);

  common::Metrics with_index_metrics;
  core::DraStats stats;
  const core::DiffResult via_index = core::dra_differential(
      indexed.query, indexed.db, indexed.t0, &with_index_metrics, &stats);
  const core::DiffResult via_oracle =
      core::propagate(indexed.query, indexed.db, indexed.before);
  EXPECT_TRUE(via_index.equivalent(via_oracle));
  EXPECT_GT(stats.index_probes, 0u);
  // The unchanged side was never scanned or copied.
  EXPECT_EQ(with_index_metrics.get(common::metric::kBaseRowsScanned), 0);

  // Without the index the same terms scan the base, with the same answer.
  common::Metrics no_index_metrics;
  const core::DiffResult via_scan =
      core::dra_differential(scan.query, scan.db, scan.t0, &no_index_metrics);
  EXPECT_TRUE(via_scan.equivalent(via_oracle));
  EXPECT_GT(no_index_metrics.get(common::metric::kBaseRowsScanned), 0);
}

/// NULL join keys: `=` is never true on NULL, so neither a persistent index
/// (the index path) nor a hash join's build side (the scan path and
/// Propagate) stores a NULL-keyed row. Both relations change, so the
/// delta-delta term runs too. Only the two `1` rows join.
TEST(DraWithIndex, NullJoinKeysNeverMatch) {
  auto build = [](DraScenario& s, bool indexed) {
    s.db.create_table("S", Schema::of({{"k", ValueType::kInt}, {"v", ValueType::kInt}}));
    s.db.create_table("T", Schema::of({{"k", ValueType::kInt}, {"w", ValueType::kInt}}));
    if (indexed) {
      s.db.create_index("S", "by_k", {"k"});
      s.db.create_index("T", "by_k", {"k"});
    }
    s.db.insert("S", {Value(2), Value(5)});
    s.db.insert("T", {Value::null(), Value(1)});
    s.db.insert("T", {Value(1), Value(2)});
    s.query = qry::parse_query("SELECT * FROM S s, T t WHERE s.k = t.k");
    s.before = core::recompute(s.query, s.db);
    s.t0 = s.db.clock().now();
    s.db.insert("S", {Value::null(), Value(10)});
    s.db.insert("S", {Value(1), Value(20)});
    s.db.insert("T", {Value::null(), Value(3)});
  };
  DraScenario indexed;
  build(indexed, true);
  DraScenario scan;
  build(scan, false);

  core::DraStats stats;
  const core::DiffResult via_index =
      core::dra_differential(indexed.query, indexed.db, indexed.t0, nullptr, &stats);
  const core::DiffResult via_scan = core::dra_differential(scan.query, scan.db, scan.t0);
  const core::DiffResult via_oracle =
      core::propagate(indexed.query, indexed.db, indexed.before);
  EXPECT_GT(stats.index_probes, 0u);
  EXPECT_TRUE(via_index.equivalent(via_oracle)) << via_index.to_string();
  EXPECT_TRUE(via_scan.equivalent(via_oracle)) << via_scan.to_string();
  EXPECT_EQ(via_oracle.inserted.size(), 1u) << via_oracle.to_string();
  EXPECT_TRUE(via_oracle.deleted.empty());
}

/// Consolidated rows rendered with their lineage sets, sorted: equal when
/// two results agree on values *and* on which base deltas caused each row.
std::vector<std::string> rows_with_lineage(const Relation& r) {
  std::vector<std::string> out;
  for (const auto& row : r.rows()) {
    std::string line = row.to_string() + " <-";
    if (row.prov()) {
      for (const auto& id : *row.prov()) {
        line += " " + std::to_string(id.txn) + ":" + std::to_string(id.rel) + ":" +
                std::to_string(id.seq);
      }
    }
    out.push_back(std::move(line));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The probed side's pushed-down filter rejects >= 90% of the index
/// matches, so the index path checks it on the matched base row before
/// building a joined row. It must still agree with the scan path and
/// Propagate (lineage on and off), and kTuplesCompared must count every
/// index match, kept or not.
TEST(DraWithIndex, SelectiveProbedFilterMatchesOracle) {
  for (const bool lineage : {false, true}) {
    SCOPED_TRACE(lineage ? "lineage on" : "lineage off");
    rel::prov::set_enabled(lineage);
    auto build = [](DraScenario& s, bool indexed) {
      common::Rng rng(909);
      testing::make_stock_table(s.db, "S", 200, rng);
      testing::make_stock_table(s.db, "T", 600, rng);
      if (indexed) s.db.create_index("T", "by_cat", {"category"});
      s.query.from = {{"S", "s"}, {"T", "t"}};
      s.query.where = alg::Expr::logical_and(
          alg::Expr::cmp(alg::CmpOp::kEq, alg::Expr::col("s.category"),
                         alg::Expr::col("t.category")),
          alg::Expr::col_cmp("t.price", alg::CmpOp::kLt, Value(60)));
      s.before = core::recompute(s.query, s.db);
      s.t0 = s.db.clock().now();
      testing::random_updates(s.db, "S", 40,
                              {.modify_fraction = 0.3, .delete_fraction = 0.2}, rng);
    };
    DraScenario indexed;
    build(indexed, true);
    DraScenario scan;
    build(scan, false);
    const cat::Database& db = indexed.db;
    const common::Timestamp t0 = indexed.t0;

    // Ground truth for the counter: every (S delta row, T row) pair with
    // equal category is one index match; few of them pass t.price < 60.
    const delta::SnapshotMap snapshots = core::snapshot_deltas(db, {"S"});
    const auto& snap = delta::snapshot_of(snapshots, "S");
    std::int64_t matches = 0;
    std::int64_t kept = 0;
    std::size_t probed = 0;
    for (const Relation* side : {&snap.insertions(t0), &snap.deletions(t0)}) {
      probed += side->size();
      for (const auto& s_row : side->rows()) {
        for (const auto& t_row : db.table("T").rows()) {
          if (!(s_row.at(1) == t_row.at(1))) continue;
          ++matches;
          if (t_row.at(2).as_int() < 60) ++kept;
        }
      }
    }
    ASSERT_GT(matches, 0);
    ASSERT_LE(kept * 10, matches) << "the probed filter must reject >= 90% of matches";

    common::Metrics index_metrics;
    core::DraStats stats;
    const core::DiffResult via_index =
        core::dra_differential(indexed.query, db, t0, &index_metrics, &stats);
    common::Metrics scan_metrics;
    const core::DiffResult via_scan =
        core::dra_differential(scan.query, scan.db, scan.t0, &scan_metrics);
    const core::DiffResult via_oracle = core::propagate(indexed.query, db, indexed.before);

    EXPECT_TRUE(via_index.equivalent(via_oracle));
    EXPECT_TRUE(via_scan.equivalent(via_oracle));
    EXPECT_FALSE(via_index.inserted.empty() && via_index.deleted.empty());
    EXPECT_EQ(stats.index_probes, probed);
    EXPECT_EQ(index_metrics.get(common::metric::kTuplesCompared), matches);
    EXPECT_EQ(index_metrics.get(common::metric::kBaseRowsScanned), 0);
    EXPECT_GT(scan_metrics.get(common::metric::kBaseRowsScanned), 0);
    if (lineage) {
      const auto& rows = via_index.inserted.rows();
      EXPECT_TRUE(std::any_of(rows.begin(), rows.end(),
                              [](const Tuple& row) { return row.prov() != nullptr; }));
      EXPECT_EQ(rows_with_lineage(via_index.inserted), rows_with_lineage(via_scan.inserted));
      EXPECT_EQ(rows_with_lineage(via_index.deleted), rows_with_lineage(via_scan.deleted));
    }
  }
  rel::prov::set_enabled(false);
}

/// Randomized sweep: index path == scan path == oracle across update mixes
/// and both join widths, with every table both indexed and updated.
class IndexedDraSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IndexedDraSweep, AgreesWithOracle) {
  const bool three_way = GetParam() % 2 == 0;
  auto build = [&](DraScenario& s, bool indexed) {
    common::Rng rng(GetParam());
    testing::make_stock_table(s.db, "A", 120, rng);
    testing::make_stock_table(s.db, "B", 120, rng);
    testing::make_stock_table(s.db, "C", 120, rng);
    if (indexed) {
      for (const char* t : {"A", "B", "C"}) s.db.create_index(t, "by_cat", {"category"});
    }
    s.query = three_way ? testing::random_join_query({"A", "B", "C"}, rng)
                        : testing::random_join_query({"A", "B"}, rng);
    s.before = core::recompute(s.query, s.db);
    s.t0 = s.db.clock().now();
    const testing::UpdateMix mix{.modify_fraction = 0.35, .delete_fraction = 0.25};
    testing::random_updates(s.db, "A", 30, mix, rng);
    testing::random_updates(s.db, "B", 20, mix, rng);
    if (three_way) testing::random_updates(s.db, "C", 10, mix, rng);
  };
  DraScenario indexed;
  build(indexed, true);
  DraScenario scan;
  build(scan, false);

  const core::DiffResult via_index =
      core::dra_differential(indexed.query, indexed.db, indexed.t0);
  const core::DiffResult via_scan = core::dra_differential(scan.query, scan.db, scan.t0);
  const core::DiffResult via_oracle =
      core::propagate(indexed.query, indexed.db, indexed.before);
  EXPECT_TRUE(via_index.equivalent(via_oracle)) << "seed " << GetParam();
  EXPECT_TRUE(via_scan.equivalent(via_oracle)) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Randomized, IndexedDraSweep,
                         ::testing::Values(11, 12, 13, 14, 15, 16, 17, 18, 19, 20));

}  // namespace
}  // namespace cq
