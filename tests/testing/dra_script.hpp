// Structure-aware DRA differential oracle: interprets an arbitrary byte
// string as (schema seed, generated SPJ/aggregate CQ, trigger/epsilon
// spec, transaction script), runs the script against one database whose
// CqManager maintains the CQ by the DRA, and checks every notification
// against an independent evaluation: qry::evaluate(query, db) at that
// moment for the complete and aggregate results, and Diff of two
// consecutive evaluations for the delta (the paper's Section 4.2
// equivalence, mechanized). The oracle shares no code with the CQ's
// maintained state (AggregateState, HAVING on the group-level ΔQ, payload
// patching). For an SPJ query it also checks after every commit that a
// DRA program compiled at install time yields the same ΔQ, row for row and
// in order, as one compiled for that call. For an aggregate query it
// checks after every commit that the delivered aggregate payload, which
// the CQ patches in place, equals its accumulators' current() with HAVING
// applied, row for row and in group-key order; for a DISTINCT query, that
// each freshly delivered complete payload holds no duplicate row and comes
// in ascending value order. Shared by the libFuzzer target
// fuzz/fuzz_dra_oracle.cpp, the tier-1 corpus replays, and
// tests/dra_oracle_test.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace cq::testing {

struct DraScriptReport {
  bool ok = true;
  std::string message;        // first divergence, with commit index + query
  std::size_t commits = 0;    // transactions committed
  std::size_t executions = 0; // CQ executions the script provoked
  /// Notifications checked against qry::evaluate (one per execution).
  std::size_t evaluate_checks = 0;
  /// Commits after which the ΔQ of a program compiled at install time was
  /// compared, row for row, with a dra_differential(query, ...) compiled
  /// then (SPJ queries only).
  std::size_t program_checks = 0;
  /// Checks (at install and after each commit) that an aggregate CQ's
  /// latest delivered `aggregate` payload equals AggregateState::current()
  /// with HAVING applied, row for row and in group-key order, plus checks
  /// that a DISTINCT CQ's freshly delivered `complete` payload is
  /// duplicate-free and ascending.
  std::size_t payload_checks = 0;
  /// Deterministic serialization of the pipeline's full notification
  /// stream plus its final trigger stats. Two runs of the same script are
  /// byte-identical here exactly when they delivered the same results in
  /// the same order — the determinism contract the parallel lane asserts
  /// (same digest at --threads 1 and at N threads).
  std::string digest;
};

/// Interpreter knobs. The fuzz target runs defaults; the parallel oracle
/// lane re-runs each script with eval_threads > 1 and compares digests.
struct DraScriptConfig {
  /// CqManager evaluation lanes (1 = sequential path).
  std::size_t eval_threads = 1;
  /// Collect notification lineage and (a) append every delivered row's
  /// sorted provenance set to the digest — so two runs with different
  /// eval_threads must also agree on lineage, bit for bit — and (b)
  /// cross-check that every cited (relation, txn, seq) exists in the
  /// database's delta log (ok=false on a dangling citation). Resets the
  /// process-global provenance flag to off before returning.
  bool lineage = false;
};

/// Run one byte script. Never throws: malformed scripts are simply short
/// or boring runs; a false return means the DRA pipeline and the
/// independent evaluation genuinely diverged (a bug worth a minimized
/// reproducer).
[[nodiscard]] DraScriptReport run_dra_oracle_script(const std::uint8_t* data,
                                                    std::size_t size);
[[nodiscard]] DraScriptReport run_dra_oracle_script(const std::uint8_t* data,
                                                    std::size_t size,
                                                    const DraScriptConfig& config);

}  // namespace cq::testing
