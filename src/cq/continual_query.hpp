// A continual query is the triple (Q, T_CQ, Stop) — Section 3.1 — plus the
// runtime state the DRA needs between executions (Section 4.2, inputs
// i–v): the last execution timestamp and, depending on the delivery mode,
// the saved previous result (Section 3.3 discusses exactly this trade-off).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/database.hpp"
#include "common/metrics.hpp"
#include "cq/agg_state.hpp"
#include "cq/diff.hpp"
#include "cq/dra.hpp"
#include "cq/stop.hpp"
#include "cq/trigger.hpp"
#include "query/ast.hpp"

namespace cq::core {

/// What each execution delivers to the user (Section 4.3 step 4 lists
/// exactly these assemblies of the differential result).
enum class DeliveryMode {
  /// Only the rows that entered the result since the last execution
  /// ("differential result ... without deletion notification").
  kInsertionsOnly,
  /// Only the rows that left the result ("notified of all deleted tuples").
  kDeletionsOnly,
  /// Both sides of ΔQ.
  kDifferential,
  /// The full result, maintained as E(Q,t_i) − deletions ∪ insertions.
  kComplete,
};

[[nodiscard]] const char* to_string(DeliveryMode mode) noexcept;

/// Static definition of a continual query.
struct CqSpec {
  std::string name;
  qry::SpjQuery query;
  TriggerPtr trigger;
  StopPtr stop;  // nullptr = stop::never()
  DeliveryMode mode = DeliveryMode::kDifferential;

  /// Convenience: parse the query from SQL.
  static CqSpec from_sql(std::string name, const std::string& sql, TriggerPtr trigger,
                         StopPtr stop = nullptr,
                         DeliveryMode mode = DeliveryMode::kDifferential);
};

/// One delivered result.
///
/// The result payloads are shared and immutable. For a plain kComplete CQ,
/// `complete` points at the CQ's saved result itself rather than at a
/// copy, and for an aggregate CQ `aggregate` points at its maintained
/// aggregate relation, so delivering either costs nothing. A sink that
/// wants to keep a payload keeps the pointer (copying the Notification
/// does); the CQ then patches a fresh copy at its next execution
/// (copy-on-write), so a kept payload never changes under it.
///
/// A DISTINCT CQ is maintained as a grouping by every output column: its
/// `complete` payload holds one row per value in ascending value order,
/// and each side of its `delta` comes in that order too.
struct Notification {
  std::string cq_name;
  std::uint64_t sequence = 0;  // 0 = initial execution
  common::Timestamp at;
  /// ΔQ for differential modes; empty on the initial execution.
  DiffResult delta;
  /// Set for kComplete mode and for the initial execution.
  std::shared_ptr<const rel::Relation> complete;
  /// Set for aggregate queries: the maintained aggregate relation (HAVING
  /// applied), one row per group in group-key order. In kComplete mode
  /// `complete` points at the same relation.
  std::shared_ptr<const rel::Relation> aggregate;
};

/// Consumer of CQ results.
class ResultSink {
 public:
  virtual ~ResultSink() = default;
  virtual void on_result(const Notification& notification) = 0;
};

/// Sink that stores every notification (tests, examples).
class CollectingSink final : public ResultSink {
 public:
  void on_result(const Notification& notification) override {
    notifications_.push_back(notification);
  }
  [[nodiscard]] const std::vector<Notification>& notifications() const noexcept {
    return notifications_;
  }
  void clear() noexcept { notifications_.clear(); }

 private:
  std::vector<Notification> notifications_;
};

/// Sink that forwards to a callable.
class CallbackSink final : public ResultSink {
 public:
  using Callback = std::function<void(const Notification&)>;
  explicit CallbackSink(Callback callback) : callback_(std::move(callback)) {}
  void on_result(const Notification& notification) override { callback_(notification); }

 private:
  Callback callback_;
};

/// Runtime instance of one installed CQ. Owned by the CqManager; exposed
/// for inspection.
class ContinualQuery {
 public:
  ContinualQuery(CqSpec spec, const cat::Database& db);

  [[nodiscard]] const CqSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] const std::string& name() const noexcept { return spec_.name; }
  [[nodiscard]] common::Timestamp last_execution() const noexcept { return last_exec_; }
  [[nodiscard]] std::uint64_t executions() const noexcept { return executions_; }
  [[nodiscard]] const std::vector<std::string>& relations() const noexcept {
    return relations_;
  }
  [[nodiscard]] bool finished() const noexcept { return finished_; }

  /// The saved previous SPJ result, or null when the delivery mode keeps
  /// none. For a plain kComplete CQ the latest notification's `complete`
  /// payload is this same relation until the next execution patches it.
  [[nodiscard]] const rel::Relation* saved_result() const noexcept {
    return saved_result_.get();
  }

  /// The grouped state of an aggregate or DISTINCT CQ, or null (neither,
  /// or dropped until the next re-prime).
  [[nodiscard]] const AggregateState* aggregate_state() const noexcept {
    return agg_state_ ? &*agg_state_ : nullptr;
  }

  /// Initial execution E_0 (complete re-evaluation by definition).
  [[nodiscard]] Notification execute_initial(const cat::Database& db,
                                             common::Metrics* metrics = nullptr);

  /// Subsequent execution E_i, computed by the DRA from the deltas read
  /// through `snapshots` (which must cover relations()).
  [[nodiscard]] Notification execute(const cat::Database& db,
                                     const delta::SnapshotMap& snapshots,
                                     common::Metrics* metrics = nullptr,
                                     DraStats* stats = nullptr);
  /// The same over a fresh snapshot of relations().
  [[nodiscard]] Notification execute(const cat::Database& db,
                                     common::Metrics* metrics = nullptr,
                                     DraStats* stats = nullptr);

  /// Restore the runtime state of a CQ that had last executed at
  /// `last_execution` (with `executions` completed) against a database
  /// whose delta logs still cover that instant — e.g. after reloading a
  /// persisted snapshot. No result needs to have been persisted: the saved
  /// result is reconstructed by *rolling back* the current state with an
  /// inverted differential (next = prev − del ∪ ins  ⇔  prev = next − ins
  /// ∪ del), which is exactly the DRA run in reverse. Throws if the CQ has
  /// already executed or if `executions` is zero.
  void restore(const cat::Database& db, common::Timestamp last_execution,
               std::uint64_t executions);

  /// Evaluate the trigger / stop conditions against `snapshots`.
  [[nodiscard]] bool should_fire(const cat::Database& db,
                                 const delta::SnapshotMap& snapshots) const;
  [[nodiscard]] bool should_stop(const cat::Database& db,
                                 const delta::SnapshotMap& snapshots) const;
  void mark_finished() noexcept { finished_ = true; }

  /// Drop every maintained per-mode artifact (saved previous result,
  /// grouped state and its payload). The next execution then
  /// *re-primes*: one full recompute delivered as a complete result with
  /// an empty delta. restore() calls this automatically when GC truncated
  /// the rollback window it needs.
  void invalidate_saved_result() noexcept {
    saved_result_.reset();
    agg_state_.reset();
    agg_payload_.reset();
    reprime_pending_ = true;
  }

  /// True when the next execution will re-prime instead of running
  /// differentially (diagnostics / tests).
  [[nodiscard]] bool reprime_pending() const noexcept { return reprime_pending_; }

  /// How far the delivered result has drifted from the live database — the
  /// Epsilon-Serializability-inspired divergence measure the paper's
  /// ε-specs bound (Section 3.2). Cheap: reads only the delta logs.
  struct Staleness {
    /// Net-effect rows on the CQ's relations since the last execution.
    std::size_t pending_changes = 0;
    /// Of those, rows surviving the CQ's pushed-down selections (a lower
    /// bound on how many could actually affect the result).
    std::size_t relevant_changes = 0;
    /// Logical time elapsed since the last execution.
    common::Duration age{0};
  };
  [[nodiscard]] Staleness staleness(const cat::Database& db) const;

  /// Human-readable description of how the next execution would proceed:
  /// trigger, delivery mode, per-relation pending deltas, and the planner's
  /// decomposition of the query (Section 5.2's refinement, made visible),
  /// with the join order the current table sizes give.
  [[nodiscard]] std::string explain(const cat::Database& db) const;

 private:
  [[nodiscard]] TriggerContext context(const cat::Database& db,
                                       const delta::SnapshotMap& snapshots) const;
  /// Rebuild the per-mode state (grouped state and its payload, or the
  /// saved result) from the SPJ core result `spj`, keeping the pointer
  /// itself as the saved result when the mode needs one. Only priming and
  /// restore build the payload from every group; executions patch it.
  void load_state(std::shared_ptr<rel::Relation> spj);
  /// Full recompute + per-mode state rebuild; shared by execute_initial
  /// and the re-prime path. Fills everything in the notification except
  /// the sequence number, and sets last_exec_ to now.
  [[nodiscard]] Notification prime_from_scratch(const cat::Database& db,
                                                common::Metrics* metrics);

  CqSpec spec_;
  /// The SPJ core (aggregation, DISTINCT and ORDER BY stripped), compiled
  /// once in the constructor. Immutable afterwards, so const readers on
  /// other threads (staleness, explain) need no lock.
  qry::SpjProgram program_;
  std::vector<std::string> relations_;
  common::Timestamp last_exec_;
  std::uint64_t executions_ = 0;
  bool finished_ = false;
  bool reprime_pending_ = false;

  /// The SPJ core result, kept by plain (non-aggregate, non-DISTINCT)
  /// kComplete CQs. Patched in place by each execution; shared with the
  /// notification that delivered it.
  std::shared_ptr<rel::Relation> saved_result_;
  /// The grouped state of an aggregate CQ, or of a DISTINCT CQ as GROUP BY
  /// every output column with no aggregates.
  std::optional<AggregateState> agg_state_;
  /// The delivered grouped relation (HAVING applied, group-key order),
  /// kept beside agg_state_ where it is delivered: always for an aggregate
  /// CQ, in kComplete mode for a DISTINCT one. Each execution patches the
  /// rows of the groups its group-level ΔQ touches (copy-on-write, like
  /// saved_result_); shared with the notification that delivered it.
  std::shared_ptr<rel::Relation> agg_payload_;
};

}  // namespace cq::core
