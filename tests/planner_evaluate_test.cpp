#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "catalog/database.hpp"
#include "catalog/transaction.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "query/evaluate.hpp"
#include "query/parser.hpp"
#include "query/planner.hpp"

namespace cq::qry {
namespace {

using rel::Relation;
using rel::Tuple;
using rel::Value;
using rel::ValueType;

cat::Database company_db() {
  cat::Database db;
  db.create_table("Emp", rel::Schema::of({{"name", ValueType::kString},
                                          {"dept", ValueType::kInt},
                                          {"salary", ValueType::kInt}}));
  db.create_table("Dept", rel::Schema::of({{"id", ValueType::kInt},
                                           {"label", ValueType::kString}}));
  auto txn = db.begin();
  txn.insert("Emp", {Value("ann"), Value(1), Value(100)});
  txn.insert("Emp", {Value("bob"), Value(2), Value(200)});
  txn.insert("Emp", {Value("cat"), Value(1), Value(300)});
  txn.insert("Emp", {Value("dan"), Value(3), Value(400)});
  txn.insert("Dept", {Value(1), Value("eng")});
  txn.insert("Dept", {Value(2), Value("ops")});
  txn.commit();
  return db;
}

TEST(Planner, PushesSingleTableConjunctsDown) {
  const SpjQuery q = parse_query(
      "SELECT * FROM Emp e, Dept d WHERE e.dept = d.id AND e.salary > 150 AND "
      "d.label = 'eng'");
  const std::vector<rel::Schema> schemas = {
      qualify(rel::Schema::of({{"name", ValueType::kString},
                               {"dept", ValueType::kInt},
                               {"salary", ValueType::kInt}}),
              q.from[0]),
      qualify(rel::Schema::of({{"id", ValueType::kInt}, {"label", ValueType::kString}}),
              q.from[1])};
  const PlannedQuery plan_result = plan(q, schemas, {100, 10});
  EXPECT_EQ(plan_result.table_filters[0].size(), 1u);  // e.salary > 150
  EXPECT_EQ(plan_result.table_filters[1].size(), 1u);  // d.label = 'eng'
  EXPECT_EQ(plan_result.join_conjuncts.size(), 1u);    // e.dept = d.id
  EXPECT_EQ(plan_result.join_order.size(), 2u);
}

TEST(Planner, JoinOrderPrefersSmallerEstimate) {
  SpjQuery q = parse_query("SELECT * FROM Big b, Small s WHERE b.k = s.k");
  const std::vector<rel::Schema> schemas = {
      qualify(rel::Schema::of({{"k", ValueType::kInt}}), q.from[0]),
      qualify(rel::Schema::of({{"k", ValueType::kInt}}), q.from[1])};
  const PlannedQuery p = plan(q, schemas, {1000000, 3});
  EXPECT_EQ(p.join_order[0], 1u);  // Small first
}

TEST(Evaluate, SingleTableSelection) {
  const cat::Database db = company_db();
  const Relation out =
      evaluate(parse_query("SELECT name FROM Emp WHERE salary > 150"), db);
  EXPECT_EQ(out.size(), 3u);
  EXPECT_EQ(out.schema().at(0).name, "Emp.name");
}

TEST(Evaluate, JoinWithQualifiedColumns) {
  const cat::Database db = company_db();
  const Relation out = evaluate(
      parse_query("SELECT e.name, d.label FROM Emp e, Dept d WHERE e.dept = d.id"),
      db);
  EXPECT_EQ(out.size(), 3u);  // dan's dept 3 has no match
}

TEST(Evaluate, SelectStarJoinHasCanonicalColumnOrder) {
  const cat::Database db = company_db();
  const Relation out = evaluate(
      parse_query("SELECT * FROM Emp e, Dept d WHERE e.dept = d.id"), db);
  ASSERT_EQ(out.schema().size(), 5u);
  EXPECT_EQ(out.schema().at(0).name, "e.name");
  EXPECT_EQ(out.schema().at(3).name, "d.id");
}

TEST(Evaluate, CrossProductWhenNoJoinPredicate) {
  const cat::Database db = company_db();
  const Relation out = evaluate(parse_query("SELECT * FROM Emp e, Dept d"), db);
  EXPECT_EQ(out.size(), 8u);
}

TEST(Evaluate, SelfJoinWithAliases) {
  const cat::Database db = company_db();
  const Relation out = evaluate(
      parse_query("SELECT a.name, b.name FROM Emp a, Emp b "
                  "WHERE a.dept = b.dept AND a.salary < b.salary"),
      db);
  EXPECT_EQ(out.size(), 1u);  // (ann, cat)
  EXPECT_EQ(out.row(0).at(0), Value("ann"));
}

TEST(Evaluate, Distinct) {
  const cat::Database db = company_db();
  const Relation all = evaluate(parse_query("SELECT dept FROM Emp"), db);
  EXPECT_EQ(all.size(), 4u);
  const Relation unique = evaluate(parse_query("SELECT DISTINCT dept FROM Emp"), db);
  EXPECT_EQ(unique.size(), 3u);
}

TEST(Evaluate, ScalarAggregate) {
  const cat::Database db = company_db();
  const Relation out = evaluate(parse_query("SELECT SUM(salary) FROM Emp"), db);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.row(0).at(0), Value(1000));
}

TEST(Evaluate, GroupedAggregate) {
  const cat::Database db = company_db();
  const Relation out = evaluate(
      parse_query("SELECT dept, SUM(salary) AS total FROM Emp GROUP BY dept"), db);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out.row(0).at(0), Value(1));
  EXPECT_EQ(out.row(0).at(1), Value(400));
}

TEST(Evaluate, AggregateOverJoin) {
  const cat::Database db = company_db();
  const Relation out = evaluate(
      parse_query("SELECT SUM(e.salary) FROM Emp e, Dept d WHERE e.dept = d.id"), db);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.row(0).at(0), Value(600));
}

TEST(Evaluate, OrdersByAColumnTheProjectionDrops) {
  // SQL sorts on a column it does not select: the rows are sorted before
  // the projection drops it.
  const cat::Database db = company_db();
  auto names = [](const Relation& r) {
    std::vector<std::string> out;
    for (const auto& row : r.rows()) out.push_back(row.at(0).as_string());
    return out;
  };
  const Relation by_salary =
      evaluate(parse_query("SELECT name FROM Emp ORDER BY salary DESC"), db);
  EXPECT_EQ(by_salary.schema().size(), 1u);
  EXPECT_EQ(names(by_salary), (std::vector<std::string>{"dan", "cat", "bob", "ann"}));

  const Relation joined = evaluate(
      parse_query("SELECT e.name, d.label FROM Emp e, Dept d WHERE e.dept = d.id "
                  "ORDER BY e.salary DESC"),
      db);
  EXPECT_EQ(joined.schema().size(), 2u);
  EXPECT_EQ(names(joined), (std::vector<std::string>{"cat", "bob", "ann"}));

  // A projected column named with or without its qualifier sorts as before.
  EXPECT_EQ(names(evaluate(parse_query("SELECT e.name FROM Emp e ORDER BY name DESC"), db)),
            (std::vector<std::string>{"dan", "cat", "bob", "ann"}));

  // Under DISTINCT the sort key must be selected, as in SQL.
  EXPECT_THROW(
      evaluate(parse_query("SELECT DISTINCT dept FROM Emp ORDER BY salary"), db),
      common::InvalidArgument);
}

TEST(Evaluate, UnknownColumnThrows) {
  const cat::Database db = company_db();
  EXPECT_THROW(evaluate(parse_query("SELECT * FROM Emp WHERE bogus > 1"), db),
               common::NotFound);
}

TEST(Evaluate, UnknownTableThrows) {
  const cat::Database db = company_db();
  EXPECT_THROW(evaluate(parse_query("SELECT * FROM Nope"), db), common::NotFound);
}

TEST(Evaluate, BareColumnResolvesAgainstAlias) {
  const cat::Database db = company_db();
  // "salary" is unambiguous even though the schema is qualified "Emp.salary".
  const Relation out =
      evaluate(parse_query("SELECT salary FROM Emp WHERE name = 'ann'"), db);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.row(0).at(0), Value(100));
}

/// Brute-force reference for the SPJ core, independent of the planner and
/// of every join operator: the full cross product of the alias-qualified
/// FROM tables, then the whole WHERE clause per row, then the projection
/// and DISTINCT.
Relation brute_force_spj(const SpjQuery& q, const cat::Database& db) {
  rel::Schema schema;
  std::vector<Tuple> rows = {Tuple()};
  for (const auto& ref : q.from) {
    const Relation& table = db.table(ref.table);
    schema = schema.concat(table.schema().qualified(ref.effective_alias()));
    std::vector<Tuple> next;
    for (const auto& prefix : rows) {
      for (const auto& row : table.rows()) next.push_back(prefix.concat(row));
    }
    rows = std::move(next);
  }
  std::vector<std::size_t> keep;
  if (q.projection.empty()) {
    for (std::size_t i = 0; i < schema.size(); ++i) keep.push_back(i);
  } else {
    for (const auto& name : q.projection) keep.push_back(schema.index_of(name));
  }
  Relation out(q.projection.empty() ? schema : schema.project(q.projection));
  std::set<std::string> seen;
  for (const auto& row : rows) {
    if (!q.where->eval_bool(row, schema)) continue;
    Tuple projected = row.project(keep);
    if (q.distinct && !seen.insert(projected.to_string()).second) continue;
    out.append(std::move(projected));
  }
  return out;
}

/// A random SELECT over 1-3 FROM entries drawn from R0..R2 (so self-joins
/// occur), with and without aliases: equi and θ conjuncts across entries,
/// single-entry filters, IS [NOT] NULL and cross-entry ORs, then SELECT *
/// or a column list, sometimes DISTINCT.
std::string random_spj_sql(common::Rng& rng) {
  const std::size_t n = 1 + rng.index(3);
  std::vector<std::string> aliases;
  std::string from;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string table = "R" + std::to_string(rng.index(3));
    bool bare = rng.chance(0.3);
    for (const auto& a : aliases) bare = bare && a != table;
    aliases.push_back(bare ? table : "a" + std::to_string(i));
    from += (i > 0 ? ", " : "") + table + (bare ? "" : " " + aliases.back());
  }
  auto column = [&] {
    return aliases[rng.index(n)] + "." + (rng.chance(0.5) ? "k" : "v");
  };
  auto constant = [&] { return std::to_string(rng.index(4)); };
  static const char* const kOps[] = {"=", "<>", "<", "<=", ">", ">="};
  std::vector<std::string> conjuncts;
  const std::size_t count = rng.index(5);
  for (std::size_t c = 0; c < count; ++c) {
    switch (rng.index(5)) {
      case 0:
      case 1:  // equi conjunct, often across two entries
        conjuncts.push_back(aliases[rng.index(n)] + ".k = " + aliases[rng.index(n)] + ".k");
        break;
      case 2:  // θ conjunct
        conjuncts.push_back(column() + " " + kOps[rng.index(6)] + " " + column());
        break;
      case 3:  // filter
        conjuncts.push_back(rng.chance(0.3)
                                ? column() + (rng.chance(0.5) ? " IS NULL" : " IS NOT NULL")
                                : column() + " " + kOps[rng.index(6)] + " " + constant());
        break;
      default:  // an OR that may span entries
        conjuncts.push_back("(" + column() + " = " + constant() + " OR " + column() +
                            " > " + constant() + ")");
        break;
    }
  }
  std::string select = "*";
  if (rng.chance(0.5)) {
    std::vector<std::string> names;
    for (const auto& a : aliases) {
      for (const char* c : {".k", ".v"}) {
        if (rng.chance(0.4)) names.push_back(a + c);
      }
    }
    if (names.empty()) names.push_back(aliases[0] + ".v");
    select.clear();
    for (const auto& name : names) select += (select.empty() ? "" : ", ") + name;
  }
  std::string sql = std::string("SELECT ") + (rng.chance(0.3) ? "DISTINCT " : "") + select +
                    " FROM " + from;
  for (std::size_t c = 0; c < conjuncts.size(); ++c) {
    sql += (c == 0 ? " WHERE " : " AND ") + conjuncts[c];
  }
  return sql;
}

/// evaluate() must equal the brute-force reference as a multiset on random
/// small databases, NULL join keys and empty tables included, with and
/// without persistent indexes on the join key.
TEST(Evaluate, MatchesBruteForceOnRandomQueries) {
  common::Rng rng(0x5e1f);
  for (int round = 0; round < 300; ++round) {
    cat::Database db;
    const bool indexed = rng.chance(0.5);
    for (int t = 0; t < 3; ++t) {
      const std::string name = "R" + std::to_string(t);
      db.create_table(name, rel::Schema::of({{"k", ValueType::kInt}, {"v", ValueType::kInt}}));
      if (indexed) db.create_index(name, "by_k", {"k"});
      const std::size_t rows = rng.index(8);
      for (std::size_t r = 0; r < rows; ++r) {
        const Value k = rng.chance(0.2) ? Value::null() : Value(rng.uniform_int(0, 3));
        db.insert(name, {k, Value(rng.uniform_int(0, 4))});
      }
    }
    const std::string sql = random_spj_sql(rng);
    SCOPED_TRACE("round " + std::to_string(round) + (indexed ? " indexed: " : ": ") + sql);
    const SpjQuery q = parse_query(sql);
    const Relation expected = brute_force_spj(q, db);
    const Relation actual = evaluate(q, db);
    EXPECT_TRUE(actual.equal_multiset(expected))
        << "expected\n" << expected.to_string() << "actual\n" << actual.to_string();
  }
}

}  // namespace
}  // namespace cq::qry
