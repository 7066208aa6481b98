// Trigger conditions T_CQ (Section 3.1) and epsilon specifications
// (Section 3.2), including their *differential* evaluation (Section 5.3):
// every data-dependent trigger below reads only the differential relations
// restricted to ts > t_last — never the base tables.
//
// Supported forms, mirroring the paper's list in Section 3.1:
//   * direct time specification            -> at_times()
//   * interval since the previous result   -> periodic()
//   * condition on the database state      -> change_count(), on_change()
//   * relation between previous result and
//     current state (epsilon specs)        -> aggregate_drift()
// plus AND/OR composition.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "catalog/database.hpp"
#include "common/timestamp.hpp"
#include "delta/delta_snapshot.hpp"

namespace cq::core {

/// Everything a trigger may consult when deciding whether to fire.
struct TriggerContext {
  const cat::Database& db;
  /// Tables the continual query reads (trigger scope defaults to these).
  const std::vector<std::string>& relations;
  common::Timestamp last_execution;
  common::Timestamp now;
  std::uint64_t executions;  // completed executions so far
  /// Pinned delta snapshots covering at least `relations`; data-dependent
  /// triggers read deltas only through these.
  const delta::SnapshotMap& snapshots;

  [[nodiscard]] const delta::DeltaSnapshot& snapshot(const std::string& table) const {
    return delta::snapshot_of(snapshots, table);
  }
};

/// Pin a snapshot of each of `tables` that `snapshots` does not hold yet.
void snapshot_deltas(const cat::Database& db, const std::vector<std::string>& tables,
                     delta::SnapshotMap& snapshots);

/// A fresh snapshot map over `tables` — how the entry points without one
/// (tests, EpsilonView, terry) read deltas through the same code path.
[[nodiscard]] delta::SnapshotMap snapshot_deltas(const cat::Database& db,
                                                 const std::vector<std::string>& tables);

/// Σ new − Σ old of `column` over the net effect after `since` (nulls
/// ignored): the differential form of a SUM's drift (Section 5.3).
[[nodiscard]] double sum_drift(const delta::DeltaSnapshot& snapshot,
                               common::Timestamp since, const std::string& column);

class Trigger {
 public:
  virtual ~Trigger() = default;

  /// True when the CQ should re-execute now. Must be cheap: called after
  /// every relevant commit under the eager strategy (Section 5.3).
  [[nodiscard]] virtual bool should_fire(const TriggerContext& context) const = 0;

  [[nodiscard]] virtual std::string describe() const = 0;

  /// Tables the trigger names explicitly. ContinualQuery rejects a spec
  /// whose trigger names one outside its FROM list: such a table is
  /// neither snapshotted for the dispatch nor locked by the commit.
  /// A trigger that wraps another must forward its tables(); otherwise
  /// the check is skipped and the first read of a foreign table throws.
  [[nodiscard]] virtual std::vector<std::string> tables() const { return {}; }
};

using TriggerPtr = std::shared_ptr<const Trigger>;

namespace triggers {

/// Fire whenever logical time `interval` has elapsed since the last
/// execution ("a week since Q(S_{n-1}) was produced").
[[nodiscard]] TriggerPtr periodic(common::Duration interval);

/// Fire at each of the given instants (direct time specification, like the
/// Harvest gatherers' "once every Monday"). Each instant fires at most once.
[[nodiscard]] TriggerPtr at_times(std::vector<common::Timestamp> times);

/// Fire as soon as any relevant differential relation has a change after
/// the last execution.
[[nodiscard]] TriggerPtr on_change();

/// Epsilon spec on update volume: fire when the net number of changed
/// tuples across the CQ's relations since the last execution reaches
/// `threshold` ("a deposit of one million dollars" style conditions use
/// aggregate_drift below; this one counts tuples).
[[nodiscard]] TriggerPtr change_count(std::size_t threshold);

/// Epsilon spec on an aggregate (Section 5.3's checking-account example):
/// fire when |SUM(column) over insertions − SUM(column) over deletions|
/// ≥ epsilon, evaluated against Δ`table` only — the differential form
///   ΔDeposits  := SELECT SUM(amount) FROM insertions(ΔCheckingAccounts)
///                 WHERE ts > t_{i-1}
///   ΔWithdrawals := ... deletions(...) ...
[[nodiscard]] TriggerPtr aggregate_drift(std::string table, std::string column,
                                         double epsilon);

/// Both sub-triggers must agree.
[[nodiscard]] TriggerPtr all_of(std::vector<TriggerPtr> triggers);

/// Any sub-trigger suffices.
[[nodiscard]] TriggerPtr any_of(std::vector<TriggerPtr> triggers);

/// Never fires on its own (useful with manual execute_now()).
[[nodiscard]] TriggerPtr manual();

}  // namespace triggers

}  // namespace cq::core
