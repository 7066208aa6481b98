// EXPLAIN ANALYZE trees and per-call work counters, pinned. The rendered
// operator trees (estimates and actual row counts) and the rows_scanned /
// base_rows_scanned / tuples_compared / rows_output a single recompute or
// DRA call adds are observable behaviour: a refactor of the SPJ executor
// must leave them as they are.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "catalog/database.hpp"
#include "common/metrics.hpp"
#include "cq/dra.hpp"
#include "cq/propagate.hpp"
#include "query/evaluate.hpp"
#include "query/parser.hpp"

namespace cq {
namespace {

using rel::Value;
using rel::ValueType;

cat::Database company_db() {
  cat::Database db;
  db.create_table("Emp", rel::Schema::of({{"name", ValueType::kString},
                                          {"dept", ValueType::kInt},
                                          {"salary", ValueType::kInt}}));
  db.create_table("Dept", rel::Schema::of({{"id", ValueType::kInt},
                                           {"label", ValueType::kString}}));
  db.create_table("Site", rel::Schema::of({{"dept", ValueType::kInt},
                                           {"budget", ValueType::kInt}}));
  db.insert("Emp", {Value("ann"), Value(1), Value(100)});
  db.insert("Emp", {Value("bob"), Value(2), Value(200)});
  db.insert("Emp", {Value("cat"), Value(1), Value(300)});
  db.insert("Emp", {Value("dan"), Value(3), Value(400)});
  db.insert("Dept", {Value(1), Value("eng")});
  db.insert("Dept", {Value(2), Value("ops")});
  db.insert("Site", {Value(1), Value(250)});
  db.insert("Site", {Value(1), Value(50)});
  db.insert("Site", {Value(2), Value(500)});
  return db;
}

std::string explain(const std::string& sql, bool execute = true) {
  const cat::Database db = company_db();
  return qry::explain_query(qry::parse_query(sql), db, execute).to_string();
}

TEST(ExplainAnalyze, FilteredScan) {
  EXPECT_EQ(explain("SELECT * FROM Emp WHERE salary > 150"),
            "Scan Emp [(salary > 150)]  (est~3, actual=3)\n");
}

TEST(ExplainAnalyze, TwoWayJoin) {
  EXPECT_EQ(explain("SELECT e.name, d.label FROM Emp e, Dept d WHERE e.dept = d.id"),
            "Project [e.name, d.label]  (est~0.8, actual=3)\n"
            "  Join [(e.dept = d.id)]  (est~0.8, actual=3)\n"
            "    Scan Dept AS d  (est~2, actual=2)\n"
            "    Scan Emp AS e  (est~4, actual=4)\n");
}

TEST(ExplainAnalyze, ThreeWayJoinWithResidual) {
  EXPECT_EQ(explain("SELECT * FROM Emp e, Dept d, Site s "
                    "WHERE e.dept = d.id AND d.id = s.dept AND e.salary < s.budget"),
            "Project *  (est~0.1, actual=2)\n"
            "  Join [((e.dept = d.id) AND (e.salary < s.budget))]  (est~0.1, actual=2)\n"
            "    Join [(d.id = s.dept)]  (est~0.6, actual=3)\n"
            "      Scan Dept AS d  (est~2, actual=2)\n"
            "      Scan Site AS s  (est~3, actual=3)\n"
            "    Scan Emp AS e  (est~4, actual=4)\n");
  // A conjunct no join step resolves is left to a Filter over the joins.
  EXPECT_EQ(explain("SELECT * FROM Emp e, Dept d WHERE e.dept = d.id AND e.bogus > 1",
                    /*execute=*/false),
            "Project *  (est~0.3, actual=?)\n"
            "  Filter [(e.bogus > 1)]  (est~0.3, actual=?)\n"
            "    Join [(e.dept = d.id)]  (est~0.8, actual=?)\n"
            "      Scan Dept AS d  (est~2, actual=?)\n"
            "      Scan Emp AS e  (est~4, actual=?)\n");
}

TEST(ExplainAnalyze, AggregateWithOrderBy) {
  EXPECT_EQ(explain("SELECT dept, SUM(salary) AS total FROM Emp WHERE salary > 100 "
                    "GROUP BY dept ORDER BY total DESC"),
            "Sort [total DESC]  (est~?, actual=3)\n"
            "  Aggregate [SUM(salary)] GROUP BY [dept]  (est~?, actual=3)\n"
            "    Scan Emp [(salary > 100)]  (est~3, actual=3)\n");
}

TEST(ExplainAnalyze, JoinThatComesOutEmpty) {
  EXPECT_EQ(explain("SELECT * FROM Emp e, Dept d WHERE e.salary = d.id"),
            "Project *  (est~0.8, actual=0)\n"
            "  Join [(e.salary = d.id)]  (est~0.8, actual=0)\n"
            "    Scan Dept AS d  (est~2, actual=2)\n"
            "    Scan Emp AS e  (est~4, actual=4)\n");
}

/// A fixed 3-way scenario: A ⋈ B on g, B ⋈ C on h, a filter on A; then
/// inserts and a delete on A and a modification on C, so the DRA runs the
/// {A}, {C} and {A, C} terms.
struct ThreeWay {
  cat::Database db;
  qry::SpjQuery query = qry::parse_query(
      "SELECT a.id, c.y FROM A a, B b, C c WHERE a.g = b.g AND b.h = c.h AND a.x < 3");
  common::Timestamp t0{};

  explicit ThreeWay(bool indexed) {
    db.create_table("A", rel::Schema::of({{"id", ValueType::kInt},
                                          {"g", ValueType::kInt},
                                          {"x", ValueType::kInt}}));
    db.create_table("B", rel::Schema::of({{"g", ValueType::kInt}, {"h", ValueType::kInt}}));
    db.create_table("C", rel::Schema::of({{"h", ValueType::kInt}, {"y", ValueType::kInt}}));
    if (indexed) {
      db.create_index("A", "by_g", {"g"});
      db.create_index("B", "by_g", {"g"});
      db.create_index("B", "by_h", {"h"});
      db.create_index("C", "by_h", {"h"});
    }
    for (int i = 0; i < 60; ++i) db.insert("A", {Value(i), Value(i % 6), Value(i % 10)});
    for (int i = 0; i < 30; ++i) db.insert("B", {Value(i % 6), Value(i % 5)});
    std::vector<rel::TupleId> c_tids;
    for (int i = 0; i < 20; ++i) c_tids.push_back(db.insert("C", {Value(i % 5), Value(i)}));
    t0 = db.clock().now();
    const rel::TupleId doomed = db.insert("A", {Value(100), Value(1), Value(0)});
    db.insert("A", {Value(101), Value(2), Value(1)});
    db.insert("A", {Value(102), Value(3), Value(9)});
    db.erase("A", doomed);
    db.erase("A", db.table("A").row(0).tid());
    db.modify("C", c_tids[3], {Value(4), Value(33)});
  }
};

std::string counters(const common::Metrics& m) {
  using common::metric::Id;
  return "rows_scanned=" + std::to_string(m.get(Id::kRowsScanned)) +
         " base_rows_scanned=" + std::to_string(m.get(Id::kBaseRowsScanned)) +
         " tuples_compared=" + std::to_string(m.get(Id::kTuplesCompared)) +
         " rows_output=" + std::to_string(m.get(Id::kRowsOutput));
}

TEST(WorkCounters, RecomputeThreeWay) {
  for (const bool indexed : {false, true}) {
    SCOPED_TRACE(indexed ? "indexed" : "no index");
    ThreeWay s(indexed);
    common::Metrics m;
    const rel::Relation out = core::recompute(s.query, s.db, &m);
    EXPECT_EQ(out.size(), 360u);
    // Recompute never probes an index: the counts are the same either way.
    EXPECT_EQ(counters(m),
              "rows_scanned=579 base_rows_scanned=111 tuples_compared=450 rows_output=828");
  }
}

TEST(WorkCounters, DraThreeWay) {
  for (const bool indexed : {false, true}) {
    SCOPED_TRACE(indexed ? "indexed" : "no index");
    ThreeWay s(indexed);
    common::Metrics m;
    core::DraStats stats;
    const core::DiffResult d = core::dra_differential(s.query, s.db, s.t0, &m, &stats);
    EXPECT_EQ(d.inserted.size(), 37u);
    EXPECT_EQ(d.deleted.size(), 37u);
    EXPECT_EQ(stats.terms_evaluated, 3u);
    EXPECT_EQ(stats.index_probes, indexed ? 28u : 0u);
    EXPECT_EQ(counters(m),
              indexed
                  ? "rows_scanned=131 base_rows_scanned=0 tuples_compared=198 rows_output=122"
                  : "rows_scanned=348 base_rows_scanned=111 tuples_compared=112 "
                    "rows_output=248");
  }
}

}  // namespace
}  // namespace cq
