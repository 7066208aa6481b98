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

/// Per-CQ statistics, kept by name in the manager's registry. Entries
/// survive removal / Stop so a whole deployment's history is inspectable
/// (cqshell STATS, observability export).
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
  /// rows read, trigger checks, ...).
  [[nodiscard]] common::Metrics& metrics() noexcept { return metrics_; }
  [[nodiscard]] const common::Metrics& metrics() const noexcept { return metrics_; }

  /// Stats of the most recent DRA invocation (for EXPLAIN-style output).
  /// A copy: the record is overwritten by whichever thread dispatched the
  /// latest commit.
  [[nodiscard]] DraStats last_dra_stats() const {
    common::LockGuard lock(stats_mu_);
    return last_stats_;
  }

  /// Per-CQ statistics for a live handle. Returns a copy: the live record
  /// is guarded by the stats mutex and keeps moving while introspection
  /// handlers read.
  [[nodiscard]] CqStats stats(CqHandle handle) const;

  /// The whole registry, keyed by CQ name; includes finished/removed CQs.
  /// Returns a copy (see stats()).
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
  struct Entry {
    std::unique_ptr<ContinualQuery> query;
    std::shared_ptr<ResultSink> sink;
    delta::CqId zone_id = 0;
  };

  /// One eligible CQ's evaluation within a dispatch (defined in the .cpp).
  struct Outcome;

  /// Register a built entry; returns its handle.
  CqHandle add_entry(Entry entry);
  /// Uninstall a CQ (removal or Stop): mark it finished, release its zone.
  /// False when the handle is gone.
  bool finish(CqHandle handle, const char* reason);
  void on_commit(const std::vector<std::string>& tables, common::Timestamp ts);
  /// Closure callback registered with the database while eager: appends
  /// the read sets of every CQ whose relations intersect `write_set`, so
  /// the committer's shard lock set covers everything on_commit reads.
  void extend_closure(const std::vector<std::string>& write_set,
                      std::vector<std::string>& closure) const;
  /// Entry lookup under entries_mu_; nullptr when the handle is gone.
  /// The returned pointer is stable (map nodes don't move) and the entry
  /// is safe to use under the exclusivity contract above.
  [[nodiscard]] Entry* find_entry(CqHandle handle);
  /// Trigger-check bookkeeping for one evaluated CQ.
  void record_check(const Entry& entry, bool fired);
  /// Retain a delivered notification's lineage (no-op when lineage is
  /// off). Called only from serialized delivery points — deliver() and
  /// install.
  void record_lineage(const Notification& note);
  CqStats& stats_of(const Entry& entry) CQ_REQUIRES(stats_mu_);
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
  /// Every side effect of one execution, in order: stats, metrics, events,
  /// zone advance, lineage, sink; finishes the CQ when its Stop held.
  void deliver(Outcome& out);

  // Concurrency contract (multi-writer commits): the entries_ map
  // *structure* is guarded by entries_mu_ — every iteration, find,
  // emplace and erase takes it. The Entry objects and their query state
  // are NOT: a CQ is only ever touched by the thread holding the shard
  // locks of its read set (commit dispatch runs under the committer's
  // closure lock set, and install/remove/poll/execute_now require
  // commits to be quiesced), so entry contents never see two writers.
  // The map is deliberately not CQ_GUARDED_BY-annotated: accessors hand
  // out references under that exclusivity contract, exactly like the
  // engine-serialized state before sharding. metrics_ and last_stats_
  // are merged/written under stats_mu_ on every concurrent path;
  // metrics() escapes a reference for the quiesced readers (cqshell
  // METRICS, tests) and is unsynchronized by contract.
  cat::Database& db_;
  mutable common::Mutex entries_mu_{"cq_entries",
                                    common::lockorder::LockRank::kCqEntries};
  std::map<CqHandle, Entry> entries_;
  CqHandle next_handle_ = 1;
  bool eager_ = false;
  std::size_t threads_ = 1;   // evaluation lanes (1 = inline, no pool)
  std::unique_ptr<common::ThreadPool> pool_;  // built lazily, threads_ - 1 workers
  /// run_all is not reentrant and the pool is one resource: concurrent
  /// dispatches race for it; losers evaluate their batches inline.
  std::atomic<bool> pool_busy_{false};
  common::Metrics metrics_;
  bool lineage_on_ = false;
  LineageStore lineage_;
  mutable common::Mutex stats_mu_{"cq_stats", common::lockorder::LockRank::kCqStats};
  std::map<std::string, CqStats> stats_ CQ_GUARDED_BY(stats_mu_);
  DraStats last_stats_ CQ_GUARDED_BY(stats_mu_);
};

}  // namespace cq::core
