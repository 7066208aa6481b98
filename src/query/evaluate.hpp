// Query evaluation: the complete re-evaluation of Section 4.2, and the one
// SPJ executor every evaluation runs through.
//
//   SpjExecutor           — joins one term: each FROM position bound to a
//                           caller-supplied weighted delta or to the current
//                           base table. The DRA (cq/dra.cpp) runs each of its
//                           truth-table terms here;
//   evaluate_spj(...)     — the term that binds no delta (b = ∅): recompute,
//                           priming, restore and EXPLAIN ANALYZE;
//   evaluate(query, db)   — evaluate_spj, then aggregation and ORDER BY.
//
// The pipeline: compile (qualify schemas, plan), read each base under its
// pushed-down filter, join in the given order (probing a persistent index
// for a base position when the term binds a delta), apply the residual, and
// lay the rows out in canonical FROM column order or the projection.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "catalog/database.hpp"
#include "common/metrics.hpp"
#include "query/ast.hpp"
#include "query/planner.hpp"
#include "relation/relation.hpp"

namespace cq::qry {

/// The alias-qualified schema of each FROM entry of `query` in `db`.
[[nodiscard]] std::vector<rel::Schema> from_schemas(const SpjQuery& query,
                                                    const cat::Database& db);

/// Everything about evaluating an SPJ query that does not depend on the
/// data: the query, its qualified and output schemas, the plan's filters
/// and join conjuncts, and the per-table selectivity factors. Built once
/// by compile(); a continual query keeps one for its lifetime, so each DRA
/// execution does only data-dependent work (table sizes, join orders,
/// index choice). Immutable once built: concurrent readers share it.
struct SpjProgram {
  SpjQuery query;                        // validated
  std::vector<rel::Schema> schemas;      // per FROM entry, alias-qualified
  rel::Schema joined;                    // every entry's columns, FROM order
  rel::Schema output_schema;             // the projection, or `joined`
  std::vector<std::string> from_columns; // `joined`'s column names
  std::vector<alg::ExprPtr> filters;     // per FROM entry: its conjoined filter
  /// The plan made at compile time: table_filters, join_conjuncts and
  /// filter_selectivities hold for every execution; join_order and
  /// scan_estimates reflect the table sizes (and samples) seen then.
  PlannedQuery plan;

  /// The unsampled scan estimates at `db`'s current table sizes: each FROM
  /// entry's row count times its compiled selectivity factors. The one place
  /// a compiled program is re-estimated per execution.
  [[nodiscard]] std::vector<double> scan_estimates(const cat::Database& db) const;
  /// `plan` with scan_estimates(db) and the join order they give (EXPLAIN).
  [[nodiscard]] PlannedQuery plan_at(const cat::Database& db) const;
};

/// Validate, qualify and plan `query` against `db`'s schemas and current
/// table sizes. With `sample`, the plan's join order uses filter
/// selectivities measured on each table's leading rows. The one qry::plan
/// call counts in `metrics`' plans_built.
[[nodiscard]] SpjProgram compile(const SpjQuery& query, const cat::Database& db,
                                 bool sample = false, common::Metrics* metrics = nullptr);

/// Executes the SPJ core of `query` over the current state of `db`, one
/// term at a time. A term binds each FROM position either to a weighted
/// delta the caller supplies (rows already under that position's filter)
/// or to the current base table. A base is read under the plan's
/// pushed-down filter, built on first use and shared by every term run
/// through this executor; its read is what base_rows_scanned counts. A
/// base position is probed through a covering persistent index instead
/// exactly when the term binds at least one delta, so the accumulator it
/// probes with stays small. Which index, if any, is chosen per step at run
/// time, so an index created after compile() is used. `program` and `db`
/// must outlive the executor.
class SpjExecutor {
 public:
  SpjExecutor(const SpjProgram& program, const cat::Database& db, common::Metrics* metrics);

  /// Join one term's positions in `order`, apply the join conjuncts at
  /// their join_steps and the residual after the last join, and return the
  /// rows under `columns` (projected, and deduplicated with `dedup`, unless
  /// they already are so). deltas[i] non-null binds position i to that
  /// delta. A one-position term that needs no projection hands its input's
  /// rows over: a delta is moved out, a base is rebuilt should a later term
  /// read it. Returns nullopt, skipping the remaining steps, once the join
  /// is empty. `trace` gets the per-operator row counts; its output_rows
  /// and plan are the caller's.
  [[nodiscard]] std::optional<rel::Relation> run(
      const std::vector<rel::Relation*>& deltas, const std::vector<std::size_t>& order,
      const std::vector<std::string>& columns, bool dedup = false,
      SpjExecTrace* trace = nullptr);

  /// Accumulator rows probed into persistent indexes so far.
  [[nodiscard]] std::size_t index_probes() const noexcept { return index_probes_; }

 private:
  const rel::Relation& base(std::size_t i);
  bool probe_index(const rel::Relation& acc, std::size_t p,
                   const std::vector<alg::ExprPtr>& conjuncts, rel::Relation& out);

  const SpjProgram& program_;
  const cat::Database& db_;
  common::Metrics* metrics_;
  std::vector<std::optional<rel::Relation>> base_;
  std::size_t index_probes_ = 0;
};

/// Evaluate the SPJ core over the database's base tables: the term that
/// binds no delta, planned with sampled filter selectivities. When `trace`
/// is non-null it is overwritten with the chosen plan and per-operator row
/// counts (EXPLAIN support).
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
