// A shared, read-only view of one DeltaRelation taken at dispatch time —
// the only way src/cq reads a delta log. When a commit makes N continual
// queries eligible, the manager snapshots each touched relation's delta
// once and every CQ evaluates against the snapshot — instead of N
// independent rescans of the live log — while a ReadPin keeps garbage
// collection from reclaiming the rows being read.
//
// The snapshot does not copy the log: commits are serialized with
// dispatch by the engine, so the underlying rows are immutable for the
// snapshot's lifetime, and the pin blocks the only other mutator (GC
// truncation). Derived views (net effect / insertions / deletions) are
// memoized per `since` so CQs sharing a last-execution timestamp share
// one materialization.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/sync.hpp"
#include "common/timestamp.hpp"
#include "delta/delta_relation.hpp"
#include "relation/relation.hpp"

namespace cq::delta {

class DeltaSnapshot {
 public:
  /// Pins `source` against GC for the snapshot's lifetime. The snapshot
  /// must not outlive the DeltaRelation (the manager drops snapshots at
  /// the end of each dispatch, before control returns to the database).
  explicit DeltaSnapshot(const DeltaRelation& source);

  DeltaSnapshot(const DeltaSnapshot&) = delete;
  DeltaSnapshot& operator=(const DeltaSnapshot&) = delete;

  [[nodiscard]] const rel::Schema& base_schema() const noexcept {
    return source_.base_schema();
  }

  /// True when at least one change is strictly after `since`.
  [[nodiscard]] bool changed_since(common::Timestamp since) const noexcept {
    return source_.changed_since(since);
  }

  /// Net effect per tid of changes after `since` — same collapse rules
  /// (and byte-identical output) as DeltaRelation::net_effect.
  [[nodiscard]] const std::vector<DeltaRow>& net_effect(common::Timestamp since) const;

  /// insertions(ΔR) / deletions(ΔR) over the base schema, ts > since.
  [[nodiscard]] const rel::Relation& insertions(common::Timestamp since) const;
  [[nodiscard]] const rel::Relation& deletions(common::Timestamp since) const;

 private:
  struct Views {
    std::vector<DeltaRow> net;
    rel::Relation ins;
    rel::Relation del;
  };

  /// Memoized materialization of all three views for one `since`.
  /// std::map node stability makes the returned reference durable.
  const Views& views(common::Timestamp since) const;

  const DeltaRelation& source_;
  DeltaRelation::ReadPin pin_;
  mutable common::Mutex mu_{"delta_snapshot",
                             common::lockorder::LockRank::kDeltaSnapshot};
  mutable std::map<common::Timestamp, Views> cache_ CQ_GUARDED_BY(mu_);
};

/// Per-dispatch snapshot set, keyed by relation name. Built once by the
/// CQ manager and handed (read-only) to every concurrently evaluating CQ.
using SnapshotMap = std::map<std::string, std::shared_ptr<const DeltaSnapshot>>;

/// The snapshot of `table`. Every map is built over the reading CQ's FROM
/// list, the only tables it may read; any other table throws
/// InvalidArgument naming it.
[[nodiscard]] const DeltaSnapshot& snapshot_of(const SnapshotMap& snapshots,
                                               const std::string& table);

}  // namespace cq::delta
