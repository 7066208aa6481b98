// A read-only view of one DeltaRelation — the one reader of delta logs.
// Everything derived from a log (the net effect, insertions(ΔR),
// deletions(ΔR) and the wide layout of Example 1) is derived here, while a
// ReadPin keeps garbage collection from reclaiming the rows being read.
// DeltaRelation's pin API is private to this class, so no other reader of
// a log's history can exist.
//
// When a commit makes N continual queries eligible, the manager snapshots
// each touched relation's delta once and every CQ evaluates against the
// snapshot instead of N independent rescans of the live log. One-off
// readers (the diom sources, EpsilonView, terry, EXPLAIN) take their own.
//
// The snapshot does not copy the log: commits are serialized with
// dispatch by the engine, so the underlying rows are immutable for the
// snapshot's lifetime, and the pin blocks the only other mutator (GC
// truncation). The net effect is memoized per `since`, so CQs sharing a
// last-execution timestamp share one materialization; insertions and
// deletions are split from it on their first read, so readers that need
// only the net effect (change counts, drift sums, diom pulls) never pay
// for them.
//
// Views are returned by reference into the snapshot: hold it in a named
// local. `for (auto& r : DeltaSnapshot(d).net_effect(t))` dangles.
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

  /// Net effect per tid of all changes strictly after `since`, in first-seen
  /// order. Guarantees the paper's "no tid appears in multiple rows"
  /// invariant for the queried window: consecutive changes to one tid
  /// collapse (insert∘modify = insert, insert∘delete = nothing,
  /// modify∘modify = one modify, modify∘delete = delete). A modification
  /// whose old and new values are identical also collapses to nothing.
  [[nodiscard]] const std::vector<DeltaRow>& net_effect(common::Timestamp since) const;

  /// insertions(ΔR): the tuples added after `since` (inserts + the new
  /// versions of modifications), over the base schema. Rows carry their tids.
  [[nodiscard]] const rel::Relation& insertions(common::Timestamp since) const;

  /// deletions(ΔR): the tuples removed after `since` (deletes + the old
  /// versions of modifications), over the base schema.
  [[nodiscard]] const rel::Relation& deletions(common::Timestamp since) const;

  /// The net effect after `since` in the paper's wide layout (Example 1):
  /// old half, new half, then "__tid" and "__ts" (both INT), with the
  /// absent half null — for direct evaluation of differential predicates
  /// like  price_old > 120 AND price_new > 120 AND __ts > t_i  (Section 4.2).
  [[nodiscard]] rel::Relation as_wide_relation(common::Timestamp since) const;

 private:
  struct Views {
    std::vector<DeltaRow> net;
    bool split = false;  // ins/del derived from net (on their first read)
    rel::Relation ins;
    rel::Relation del;
  };

  /// The memoized views for `since`, its net effect derived on first use.
  /// std::map node stability makes the returned reference durable.
  Views& views(common::Timestamp since) const CQ_REQUIRES(mu_);

  /// views(since) with insertions and deletions split from the net effect.
  const Views& split_views(common::Timestamp since) const;

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
