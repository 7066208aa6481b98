// Heuristic planner (Section 5.2): decomposes the WHERE clause into
// per-table filters ("Select before Join"), orders the per-table filter
// conjuncts cheapest-first, and greedily orders joins smallest-estimate
// first, preferring equi-connected tables.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "algebra/expr.hpp"
#include "common/metrics.hpp"
#include "query/ast.hpp"
#include "relation/relation.hpp"
#include "relation/schema.hpp"

namespace cq::qry {

struct PlannedQuery {
  /// One entry per FROM table (same order as SpjQuery::from): the conjuncts
  /// that reference only that table, cheapest-first. May be empty.
  std::vector<std::vector<alg::ExprPtr>> table_filters;

  /// Conjuncts spanning two or more tables, applied during joins.
  std::vector<alg::ExprPtr> join_conjuncts;

  /// FROM indexes in the order tables should be joined.
  std::vector<std::size_t> join_order;

  /// Per FROM entry: the shape-guessed selectivity of each of its
  /// table_filters conjuncts, in the same order. Data-independent, so a
  /// compiled program re-estimates from these alone (see estimates()).
  std::vector<std::vector<double>> filter_selectivities;

  /// Estimated post-filter cardinality per FROM entry (same order as
  /// SpjQuery::from) — the numbers the greedy join ordering ranked by.
  std::vector<double> scan_estimates;

  /// Unsampled scan estimates for these per-FROM-entry `cardinalities`:
  /// cardinalities[i] times filter_selectivities[i], multiplied in order —
  /// exactly plan()'s estimates when it samples nothing.
  [[nodiscard]] std::vector<double> estimates(
      const std::vector<std::size_t>& cardinalities) const;

  /// Filter for table i AND-combined (always_true() when none).
  [[nodiscard]] alg::ExprPtr filter(std::size_t i) const {
    return alg::conjoin(table_filters.at(i));
  }

  /// Human-readable plan, for EXPLAIN-style output.
  [[nodiscard]] std::string to_string(const SpjQuery& query) const;
};

/// One operator of the chosen plan tree, for EXPLAIN: the planner's row
/// estimate next to the count actually observed when the plan ran.
struct ExplainNode {
  std::string label;
  double estimated_rows = -1;     // < 0: no estimate available
  std::int64_t actual_rows = -1;  // < 0: not executed
  std::vector<ExplainNode> children;
};

/// Per-operator row counts observed while qry::evaluate_spj ran a plan
/// through the SPJ executor (evaluate.hpp); indexes mirror PlannedQuery
/// (FROM order for scans, join order for join steps). Filled when a trace
/// pointer is passed to evaluate_spj.
struct SpjExecTrace {
  std::vector<std::size_t> input_rows;  // per FROM entry, before filters
  // Per FROM entry, after pushed filters; -1 when the executor never read
  // the table because the join was already empty.
  std::vector<std::int64_t> scan_rows;
  std::vector<std::size_t> join_rows;  // per join step (join_order[1..]);
                                       // 0 past an empty accumulator
  bool has_residual = false;           // leftover conjuncts: a Filter follows the joins
  std::size_t residual_rows = 0;
  std::size_t output_rows = 0;  // after projection / distinct
  PlannedQuery plan;            // the plan actually used
};

/// The conjuncts each join step applies when the FROM entries are joined in
/// `order`: a join conjunct goes to the first step whose combined schema
/// resolves it, and what no step resolves is the residual, filtered after
/// the last join. The executor and build_plan_tree both walk these.
struct JoinSteps {
  std::vector<std::vector<alg::ExprPtr>> conjuncts;  // [j]: the join of order[j + 1]
  std::vector<alg::ExprPtr> residual;
};

[[nodiscard]] JoinSteps join_steps(const std::vector<std::size_t>& order,
                                   const std::vector<rel::Schema>& qualified_schemas,
                                   const std::vector<alg::ExprPtr>& join_conjuncts);

/// Build the left-deep operator tree the planner chose: scans (with
/// pushed-down filters) joined in plan order, topped by the projection.
/// When `trace` is given (from an execution), actual_rows is filled from
/// it; otherwise actual_rows stays unset (see qry::explain_query in
/// evaluate.hpp for the end-to-end path).
[[nodiscard]] ExplainNode build_plan_tree(const SpjQuery& query,
                                          const PlannedQuery& planned,
                                          const std::vector<rel::Schema>& qualified_schemas,
                                          const SpjExecTrace* trace = nullptr);

/// Render `node` and its subtree with indentation, one operator per line:
///   Project [sym, price]  (est~12, actual=15)
///     Join [s.sym = n.sym]  ...
[[nodiscard]] std::string render_plan_tree(const ExplainNode& node);

/// Plan `query` given the alias-qualified schema of each FROM table and an
/// estimate of each table's current cardinality. When `samples` is
/// provided (one relation per FROM entry, its rows read under that entry's
/// qualified schema, e.g. the base table itself), per-table filter
/// selectivities are *measured* on a bounded row sample instead of guessed
/// from predicate shape, which materially improves join ordering on skewed
/// data. Each call adds 1 to `metrics`' plans_built.
[[nodiscard]] PlannedQuery plan(const SpjQuery& query,
                                const std::vector<rel::Schema>& qualified_schemas,
                                const std::vector<std::size_t>& cardinalities,
                                const std::vector<const rel::Relation*>* samples = nullptr,
                                common::Metrics* metrics = nullptr);

/// Step 3 of plan(): the greedy join order over per-FROM-entry row
/// `estimates` — smallest first, preferring tables connected to the
/// already-joined set by one of `join_conjuncts`, ties in FROM order. The
/// DRA calls it once per truth-table term with each delta's exact size.
[[nodiscard]] std::vector<std::size_t> order_joins(
    const std::vector<alg::ExprPtr>& join_conjuncts,
    const std::vector<rel::Schema>& qualified_schemas, const std::vector<double>& estimates);

/// Number of rows the sampling estimator inspects per table.
inline constexpr std::size_t kPlannerSampleSize = 100;

/// The alias-qualified schema of one FROM entry.
[[nodiscard]] rel::Schema qualify(const rel::Schema& table_schema, const TableRef& ref);

}  // namespace cq::qry
