// The Differential Re-evaluation Algorithm (Section 4.3, Algorithm 1).
//
// For an SPJ continual query Q = π_X(σ_F(R1 ⋈ ... ⋈ Rn)), after its last
// execution at time t_i, the DRA computes ΔQ — the rows entering and
// leaving the result — from the differential relations alone plus the
// current base tables, without recomputing Q from scratch:
//
//   1. Identify the k operand relations changed since t_i (their ΔR has a
//      non-empty net effect with ts > t_i — the timestamp predicate of
//      Section 4.2 input (iv)) and still non-empty under the relation's
//      pushed-down selection (the Section 5.2 irrelevance check; with k = 0
//      ΔQ is empty and nothing else runs).
//   2. Enumerate the 2^k − 1 non-zero truth-table rows. Each row b yields
//      one SPJ term in which ΔRi is substituted for Ri wherever b_i = 1.
//      ΔRi binds as one weighted relation (rel::Tuple::weight): its
//      insertions at +1 followed by its deletions at −1 (a modification
//      contributes one of each).
//   3. Evaluate each term differentially (DiffSelect/DiffProj/DiffJoin) on
//      the one SPJ executor (qry::SpjExecutor, query/evaluate.hpp) that also
//      runs recompute, the b = ∅ term. A continual query compiles its
//      query once (qry::SpjProgram: schemas, pushed-down filters, join
//      conjuncts, selectivity factors), so an execution only reads table
//      sizes, orders each term's joins with each delta at its exact size
//      and picks indexes.
//      Selections push below joins, joins multiply weights, and the term's
//      rows take its overall sign (−1)^(|b|+1) because unchanged positions
//      bind the *current* base state R'i = Ri ∪ ΔRi rather than the old
//      state — algebraically equivalent to the paper's formulation, but it
//      avoids materializing pre-update base snapshots.
//   4. Append every term's rows to one weighted sum and consolidate it once
//      (core::consolidate): net-positive rows are ΔQ insertions,
//      net-negative rows are ΔQ deletions, each back at weight +1.
//
// The result is functionally equivalent to Propagate (propagate.hpp); the
// property tests in tests/dra_oracle_test.cpp check exactly this.
#pragma once

#include "catalog/database.hpp"
#include "common/metrics.hpp"
#include "common/timestamp.hpp"
#include "cq/diff.hpp"
#include "delta/delta_snapshot.hpp"
#include "query/ast.hpp"
#include "query/evaluate.hpp"

namespace cq::core {

/// Statistics of one DRA invocation (for benchmarks and EXPLAIN output).
struct DraStats {
  std::size_t changed_relations = 0;  // k
  std::size_t terms_evaluated = 0;    // ≤ 2^k − 1
  std::size_t delta_rows_read = 0;    // total net-effect rows consumed
  std::size_t index_probes = 0;       // accumulator rows probed into indexes
  bool skipped_irrelevant = false;    // irrelevance check short-circuited
};

/// Compute ΔQ of the compiled SPJ core `program` for all updates
/// committed after `since`. Aggregates/DISTINCT must be handled by the
/// caller (the ContinualQuery layer maintains them incrementally on top of
/// ΔQ). Does only data-dependent work: no planning, no schema building.
///
/// Delta reads go through `snapshots`, which must cover every FROM table
/// (the CQ manager builds one map per dispatch). Base-table reads always
/// hit the live catalog — commits are serialized with dispatch, so the
/// base state cannot move underneath an evaluation.
[[nodiscard]] DiffResult dra_differential(const qry::SpjProgram& program,
                                          const cat::Database& db,
                                          common::Timestamp since,
                                          common::Metrics* metrics,
                                          DraStats* stats,
                                          const delta::SnapshotMap& snapshots);

/// The same for `query`, compiled for this one call, over a fresh snapshot
/// of its FROM tables.
[[nodiscard]] DiffResult dra_differential(const qry::SpjQuery& query,
                                          const cat::Database& db,
                                          common::Timestamp since,
                                          common::Metrics* metrics = nullptr,
                                          DraStats* stats = nullptr);

}  // namespace cq::core
