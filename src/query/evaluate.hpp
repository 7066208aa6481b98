// Query evaluation: the complete re-evaluation of Section 4.2.
//
//   evaluate(query, db)       — run over a Database's base tables;
//   evaluate_spj_over(...)    — run the SPJ part over caller-supplied
//                               relations bound positionally to the FROM
//                               list; evaluate() and EXPLAIN both run
//                               through it.
//
// The pipeline: qualify schemas, push selections below joins, join in
// planner order, project, then aggregate. The DRA (cq/dra.cpp) does not run
// its truth-table terms through here: it shares the planner's filters and
// join order and the algebra operators, but walks each term itself so it
// can bind weighted deltas and probe persistent indexes.
#pragma once

#include <vector>

#include "catalog/database.hpp"
#include "common/metrics.hpp"
#include "query/ast.hpp"
#include "query/planner.hpp"
#include "relation/relation.hpp"

namespace cq::qry {

/// Copy `input` with its schema alias-qualified for `ref`.
[[nodiscard]] rel::Relation qualified_copy(const rel::Relation& input,
                                           const TableRef& ref);

/// Evaluate the SPJ core (joins + selection + projection/distinct; no
/// aggregates) over `inputs`, which must be alias-qualified and bound
/// positionally to query.from. When `trace` is non-null it is overwritten
/// with the chosen plan and per-operator row counts (EXPLAIN support).
[[nodiscard]] rel::Relation evaluate_spj_over(const SpjQuery& query,
                                              const std::vector<const rel::Relation*>& inputs,
                                              common::Metrics* metrics = nullptr,
                                              SpjExecTrace* trace = nullptr);

/// Evaluate the SPJ core over the database's base tables.
[[nodiscard]] rel::Relation evaluate_spj(const SpjQuery& query, const cat::Database& db,
                                         common::Metrics* metrics = nullptr,
                                         SpjExecTrace* trace = nullptr);

/// Full evaluation including aggregation. For aggregate queries the result
/// has the group-by keys followed by the aggregate columns (one row total
/// when there is no GROUP BY).
[[nodiscard]] rel::Relation evaluate(const SpjQuery& query, const cat::Database& db,
                                     common::Metrics* metrics = nullptr);

/// Apply the aggregate part of `query` (GROUP BY + HAVING) to an
/// already-computed SPJ result.
[[nodiscard]] rel::Relation apply_aggregates(const SpjQuery& query,
                                             const rel::Relation& spj_result,
                                             common::Metrics* metrics = nullptr);

/// Apply the query's ORDER BY (presentation ordering) to a result.
[[nodiscard]] rel::Relation apply_order_by(const SpjQuery& query, rel::Relation input);

/// Everything EXPLAIN needs: the chosen plan, the operator tree with
/// estimated (and, when executed, actual) row counts, and — when executed —
/// the query result itself.
struct QueryExplain {
  PlannedQuery plan;
  ExplainNode root;
  rel::Relation result;  // final rows; empty unless `executed`
  bool executed = false;

  /// Indented one-operator-per-line rendering of the tree.
  [[nodiscard]] std::string to_string() const { return render_plan_tree(root); }
};

/// Plan `query` against `db` and build its EXPLAIN tree. With
/// `execute == true` (EXPLAIN ANALYZE semantics) the query actually runs
/// and every operator is annotated with the row count it produced;
/// otherwise only the planner's estimates are shown.
[[nodiscard]] QueryExplain explain_query(const SpjQuery& query, const cat::Database& db,
                                         bool execute = true);

}  // namespace cq::qry
