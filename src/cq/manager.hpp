// The CQ manager (Sections 4.2, 5.3, 5.4): owns the installed continual
// queries, decides *when* to test their trigger conditions (eagerly after
// every commit, or periodically via poll()), invokes the DRA with the
// proper timestamp predicate, delivers notifications, and drives garbage
// collection of the differential relations through the delta-zone registry.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/database.hpp"
#include "common/metrics.hpp"
#include "common/observability.hpp"
#include "common/prometheus.hpp"
#include "common/sync.hpp"
#include "common/thread_pool.hpp"
#include "cq/continual_query.hpp"
#include "cq/lineage.hpp"
#include "delta/delta_snapshot.hpp"

namespace cq::core {

/// Handle to an installed CQ.
using CqHandle = std::uint64_t;

/// Per-CQ statistics. A live CQ keeps its own record; at removal / Stop
/// the record moves into the manager's name-keyed history, so a whole
/// deployment's history is inspectable (cqshell STATS, observability
/// export). A CQ installed under a finished CQ's name continues its record.
struct CqStats {
  std::string name;
  std::uint64_t executions = 0;       // including the initial E_0
  std::uint64_t trigger_checks = 0;   // poll/eager evaluations of T_CQ
  std::uint64_t fired = 0;            // checks where the trigger held
  std::uint64_t suppressed = 0;       // checks where it did not
  std::uint64_t delta_rows_consumed = 0;  // net-effect rows read by the DRA
  std::uint64_t rows_delivered = 0;       // notification payload rows
  std::uint64_t last_exec_ns = 0;     // wall time of the latest execution
  std::uint64_t total_exec_ns = 0;    // cumulative execution wall time
  common::Timestamp last_execution;   // logical instant of latest execution
  bool finished = false;              // removed or Stop condition reached
};

class CqManager {
 public:
  /// The database must outlive the manager.
  explicit CqManager(cat::Database& db);
  ~CqManager();

  CqManager(const CqManager&) = delete;
  CqManager& operator=(const CqManager&) = delete;

  /// Install a CQ: runs the initial execution E_0 immediately, delivers it
  /// to `sink` (which may be null to discard notifications), and registers
  /// the CQ's active delta zone. Returns a handle.
  CqHandle install(CqSpec spec, std::shared_ptr<ResultSink> sink);

  /// Re-install a CQ recovered from a persisted deployment: no initial
  /// execution or notification; runtime state (saved result, aggregate or
  /// DISTINCT grouped state) is reconstructed from the database via
  /// ContinualQuery::restore, and the delta zone registers at
  /// `last_execution` so garbage collection keeps the rows it still needs.
  CqHandle install_restored(CqSpec spec, std::shared_ptr<ResultSink> sink,
                            common::Timestamp last_execution,
                            std::uint64_t executions);

  /// Remove a CQ before its Stop condition fires; releases its delta zone.
  void remove(CqHandle handle);

  /// Periodic strategy (Section 5.3): test every active CQ's trigger and
  /// stop conditions; execute those that fire. Returns how many executed.
  std::size_t poll();

  /// Eager strategy (Section 5.3): hook into the database so triggers are
  /// tested immediately after each commit that touches a CQ's relations.
  /// Pass false to return to purely periodic checking.
  void set_eager(bool eager);
  [[nodiscard]] bool eager() const noexcept { return eager_; }

  /// Force one execution regardless of the trigger.
  Notification execute_now(CqHandle handle);

  /// Number of evaluation lanes used per dispatch (poll / eager commit).
  /// Every dispatch snapshots the deltas its eligible CQs read, evaluates
  /// them against the snapshots, then merges every side effect —
  /// notifications, stats, metrics, zone advances — in handle order. 1
  /// (the default) evaluates inline on the dispatching thread; n > 1 on a
  /// thread pool of n lanes (n − 1 pool workers plus the dispatching
  /// thread). The observable stream is identical for any n, including when
  /// sinks commit (the determinism contract; see docs/performance.md).
  /// 0 is treated as 1.
  void set_parallelism(std::size_t threads);
  [[nodiscard]] std::size_t parallelism() const noexcept { return threads_; }

  /// Toggle delta lineage collection and set the per-CQ retention depth.
  /// When on, every base delta row leaving a delta log is tagged with a
  /// (txn, relation, seq) provenance id, the DRA operators thread the sets
  /// through to notification output rows, and the newest `retention`
  /// notifications per CQ are retained in lineage(). The provenance flag
  /// is process-global (rel::prov::set_enabled) — with several managers in
  /// one process, the last call wins. Disabling stops collection but keeps
  /// the already-retained records inspectable.
  void set_lineage(bool enabled,
                   std::size_t retention = LineageStore::kDefaultRetention);
  [[nodiscard]] bool lineage_enabled() const noexcept { return lineage_on_; }

  /// The per-CQ lineage retention rings (/lineage, EXPLAIN NOTIFICATION).
  [[nodiscard]] LineageStore& lineage() noexcept { return lineage_; }
  [[nodiscard]] const LineageStore& lineage() const noexcept { return lineage_; }

  /// Reclaim differential-relation rows outside the system active delta
  /// zone (Section 5.4). Returns rows reclaimed.
  std::size_t collect_garbage();

  [[nodiscard]] std::size_t active_count() const noexcept {
    common::LockGuard lock(entries_mu_);
    return entries_.size();
  }
  [[nodiscard]] bool contains(CqHandle handle) const noexcept {
    common::LockGuard lock(entries_mu_);
    return entries_.contains(handle);
  }
  [[nodiscard]] const ContinualQuery& cq(CqHandle handle) const;
  [[nodiscard]] std::vector<CqHandle> handles() const;

  /// Work counters accumulated across all executions (rows scanned, delta
  /// rows read, trigger checks, ...). Each CQ counts into its own bag; a
  /// call folds those bags into the manager-wide one under the stats
  /// mutexes and returns it. The reference stays valid, but only the
  /// caller's thread may read it until the next fold: concurrent readers
  /// must serialize among themselves (cqshell holds its engine lock).
  /// Writes through the mutable reference (the diom mediator's shipping
  /// counters) follow the same rule.
  [[nodiscard]] common::Metrics& metrics();
  [[nodiscard]] const common::Metrics& metrics() const;

  /// Stats of the most recent DRA invocation of a live CQ (for
  /// EXPLAIN-style output). A copy; DraStats{} before its first
  /// incremental execution.
  [[nodiscard]] DraStats last_dra_stats(CqHandle handle) const;

  /// Per-CQ statistics for a live handle. Returns a copy: the live record
  /// keeps moving while introspection handlers read.
  [[nodiscard]] CqStats stats(CqHandle handle) const;

  /// Every CQ's stats keyed by name, including finished/removed CQs (live
  /// CQs that share a name are summed). Returns a copy, each record taken
  /// under its CQ's own mutex, so every record is internally consistent.
  [[nodiscard]] std::map<std::string, CqStats> cq_stats() const;

  /// Emit the registry as a JSON object {cq_name: {...}} into `w`.
  void write_stats_json(common::obs::JsonWriter& w) const;

  /// The registry packaged for observability::export_json (key "cqs").
  [[nodiscard]] common::obs::Section stats_section() const;

  /// Emit per-CQ counters (executions, fired, suppressed, delta rows
  /// consumed, rows delivered — label cq="name") and the active-CQ gauge
  /// into a Prometheus exposition.
  void write_prometheus(common::obs::PromWriter& w) const;

  /// write_prometheus packaged for render_prometheus's section list.
  [[nodiscard]] std::function<void(common::obs::PromWriter&)> prometheus_section() const;

  /// Zero the work counters and every per-CQ stats record (executions,
  /// checks, timings) so an interactive measurement window starts from a
  /// clean slate. Installed CQs stay installed; name/finished survive.
  void reset_stats();

 private:
  /// One installed CQ. Immovable (it owns a mutex) and never freed while
  /// a commit may still hold it: a finished entry is retired and freed at
  /// the next quiescent point (install/remove outside a dispatch).
  struct Entry {
    CqHandle handle = 0;
    std::unique_ptr<ContinualQuery> query;
    std::shared_ptr<ResultSink> sink;
    delta::CqId zone_id = 0;
    /// This CQ's bookkeeping. Written only by the thread evaluating the CQ
    /// (it holds the CQ's shard locks), read by stats readers; this
    /// mutex is per CQ, so writers to disjoint CQs share no lock.
    mutable common::Mutex stats_mu{"cq_entry_stats",
                                   common::lockorder::LockRank::kCqEntryStats};
    CqStats stats CQ_GUARDED_BY(stats_mu);
    /// Work counters not yet folded into metrics_ (see metrics()).
    common::Metrics metrics CQ_GUARDED_BY(stats_mu);
    DraStats last_dra CQ_GUARDED_BY(stats_mu);
  };

  /// The CQs reading one table, in handle order, and the shard mask of
  /// every table they read (what a commit writing the table must lock).
  struct TableRoutes {
    std::vector<Entry*> entries;
    std::uint32_t read_mask = 0;
  };

  /// An immutable routing snapshot, rebuilt at install and finish.
  struct Routes {
    std::unordered_map<std::string, TableRoutes> by_table;
    std::vector<Entry*> all;  // handle order
  };

  /// One eligible CQ's evaluation within a dispatch (defined in the .cpp).
  struct Outcome;

  /// Register a built entry; returns its handle.
  CqHandle add_entry(std::unique_ptr<Entry> entry);
  /// Start a new entry's stats from the history record under its name, if
  /// any (a reinstalled name continues its record).
  void adopt_history(Entry& entry);
  /// Uninstall a CQ (removal or Stop): mark it finished, release its zone,
  /// move its stats into the history. False when the handle is gone.
  bool finish(CqHandle handle, const char* reason);
  /// Rebuild and publish the routing snapshot from entries_.
  void publish_routes() CQ_REQUIRES(entries_mu_);
  /// Free retired entries and snapshots, unless this thread is inside a
  /// dispatch that may still hold them. Callers are quiescent points.
  void free_retired() CQ_REQUIRES(entries_mu_);
  void on_commit(const std::vector<std::string>& tables, common::Timestamp ts);
  /// Closure callback registered with the database while eager: the shard
  /// mask of the read sets of every CQ reading a table in `write_set`, so
  /// the committer's shard lock set covers everything on_commit reads.
  [[nodiscard]] std::uint32_t closure_mask(const std::vector<std::string>& write_set) const;
  /// Entry lookup under entries_mu_; nullptr when the handle is gone.
  /// The entry is safe to use under the exclusivity contract below.
  [[nodiscard]] Entry* find_entry(CqHandle handle) const;
  /// Fold one evaluation into its entry's stats and metrics: the trigger
  /// check when `checked`, the execution when it fired.
  void record(const Outcome& out, bool checked);
  /// Retain a delivered notification's lineage (no-op when lineage is
  /// off). Called only from serialized delivery points — deliver() and
  /// install.
  void record_lineage(const Notification& note);
  /// Move every live entry's metrics into metrics_.
  void fold_metrics() const;
  /// The one dispatch path, for poll() and eager commits: snapshot the
  /// touched deltas once, evaluate every CQ whose read set intersects
  /// `tables` (every CQ when null) against them — inline at 1 lane, on
  /// the pool otherwise — and merge all side effects in handle order.
  /// Returns executions performed.
  std::size_t dispatch(const std::vector<std::string>* tables);
  /// Trigger-eligible evaluation of `out`: Stop, then the trigger, then
  /// execute() when it fires. Captures a failure in `out.error`; false
  /// when one occurred.
  bool evaluate(Outcome& out, const delta::SnapshotMap& snapshots);
  /// Run `out`'s CQ and test its Stop condition afterwards.
  void execute(Outcome& out, const delta::SnapshotMap& snapshots);
  /// Evaluate `outcomes` on the pool (threads_ > 1): each lane pulls the
  /// next CQ from one shared cursor.
  void evaluate_on_pool(std::vector<Outcome>& outcomes,
                        const delta::SnapshotMap& snapshots);
  /// The side effects of one execution after its bookkeeping, in order:
  /// events, zone advance, lineage, sink; finishes the CQ when its Stop
  /// held.
  void deliver(Outcome& out);

  // Concurrency contract (multi-writer commits):
  // * entries_ *structure* is guarded by entries_mu_: install, finish and
  //   the stats readers take it. Commits do not: closure_mask() and
  //   dispatch() read the routing snapshot routes_ with one acquire load.
  //   install/finish publish a fresh snapshot; the one it replaces, and
  //   an entry finished by a Stop condition, stay allocated until the
  //   next quiescent point, because a concurrent commit may still be
  //   reading them.
  // * The Entry objects and their query state are guarded by no manager
  //   mutex: a CQ is only ever touched by the thread holding the shard
  //   locks of its read set (commit dispatch runs under the committer's
  //   closure lock set, and install/remove/poll/execute_now require
  //   commits to be quiesced), so entry contents never see two writers.
  // * Each entry's stats, metrics and DraStats are written by that one
  //   thread under the entry's own stats_mu, which the stats readers
  //   also take. No per-commit path takes entries_mu_ or stats_mu_
  //   (a Stop condition's finish does).
  // * stats_mu_ guards history_ and metrics_; metrics() folds the live
  //   entries' bags into metrics_ and escapes a reference to it (see
  //   metrics()).
  cat::Database& db_;
  mutable common::Mutex entries_mu_{"cq_entries",
                                    common::lockorder::LockRank::kCqEntries};
  std::map<CqHandle, std::unique_ptr<Entry>> entries_;
  /// Finished entries a concurrent commit may still hold.
  std::vector<std::unique_ptr<Entry>> retired_entries_ CQ_GUARDED_BY(entries_mu_);
  /// Published routing snapshots; back() is current, the rest are retired.
  std::vector<std::unique_ptr<const Routes>> route_versions_ CQ_GUARDED_BY(entries_mu_);
  std::atomic<const Routes*> routes_{nullptr};
  CqHandle next_handle_ = 1;
  bool eager_ = false;
  std::size_t threads_ = 1;   // evaluation lanes (1 = inline, no pool)
  std::unique_ptr<common::ThreadPool> pool_;  // built lazily, threads_ - 1 workers
  /// run_all is not reentrant and the pool is one resource: concurrent
  /// dispatches race for it; losers evaluate their batches inline.
  std::atomic<bool> pool_busy_{false};
  bool lineage_on_ = false;
  LineageStore lineage_;
  mutable common::Mutex stats_mu_{"cq_stats", common::lockorder::LockRank::kCqStats};
  /// Finished CQs' stats by name.
  std::map<std::string, CqStats> history_ CQ_GUARDED_BY(stats_mu_);
  /// Manager-wide counters (install, GC, diom shipping) plus every bag
  /// folded in by metrics() and finish(). Not annotated: metrics()
  /// escapes a reference to it.
  mutable common::Metrics metrics_;
};

}  // namespace cq::core
