// The DIOM mediator: the client-side component that makes continual
// queries work across autonomous sources (Sections 1, 5.1). It keeps a
// local *mirror* database — one table per attached source — refreshed by
// shipping differential relations (never base data) over the simulated
// network, and runs the CQ manager + DRA against the mirror. This realizes
// the paper's scalability argument: processing shifts to the client, and
// only deltas cross the network.
//
// Threading: the mediator's sync bookkeeping (attached sources, shipping
// stats, round history) is guarded by an internal mutex so introspection
// handlers can read it while the engine thread runs sync rounds. The
// mirror database and the CQ manager remain engine state — serialize
// access to them with the engine mutex you hand diom::serve_introspection
// (lock order: engine mutex first, then the mediator's internal mutex,
// then whatever the commit pipeline takes below them: the mirror's
// commit_shard locks, commit_ts, and the manager's internal mutexes all
// rank after "mediator", so a sync round committing mirror transactions
// nests legally — see docs/lock-hierarchy.md).
#pragma once

#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/database.hpp"
#include "common/observability.hpp"
#include "common/prometheus.hpp"
#include "common/sync.hpp"
#include "cq/manager.hpp"
#include "diom/network.hpp"
#include "diom/source.hpp"
#include "diom/wire.hpp"

namespace cq::diom {

class Mediator {
 public:
  /// `network` may be null (costs not accounted). The network must outlive
  /// the mediator.
  explicit Mediator(std::string client_name, Network* network = nullptr);

  /// Construct around an existing mirror database (a persisted deployment
  /// being restored). Use attach_restored() to rebind sources.
  Mediator(std::string client_name, Network* network, cat::Database mirror);

  Mediator(const Mediator&) = delete;
  Mediator& operator=(const Mediator&) = delete;

  /// Attach a source as local table `local_table` (defaults to the source
  /// name). Ships the initial snapshot over the network and loads it into
  /// the mirror. The source must outlive the mediator.
  void attach(std::shared_ptr<InformationSource> source, std::string local_table = "");

  /// Pull every attached source's deltas (ts > its cursor), ship them,
  /// decode, and apply to the mirror as transactions. Returns the number of
  /// differential rows applied.
  ///
  /// Sources are autonomous and may fail (network, translator errors): a
  /// failing source is skipped for this round — its cursor does not move,
  /// so the next sync re-pulls the same window — and its name is reported.
  std::size_t sync();

  struct SyncReport {
    std::size_t rows_applied = 0;
    /// Sources whose pull or apply failed this round, with the error text.
    std::vector<std::pair<std::string, std::string>> failures;
    /// Differential bytes shipped this round (all sources).
    std::size_t bytes_shipped = 0;
    /// Simulated transfer time spent this round, milliseconds.
    double transfer_ms = 0.0;
    /// Host wall time of the round, nanoseconds.
    std::uint64_t wall_ns = 0;
    /// 1-based sequence number of the round.
    std::uint64_t round = 0;
  };
  SyncReport sync_report();

  /// Cumulative shipping statistics of one attached source.
  struct SourceStats {
    std::string source_name;
    std::string local_table;
    std::uint64_t rounds = 0;          // sync rounds that touched the source
    std::uint64_t failures = 0;        // rounds that failed for the source
    std::uint64_t messages = 0;        // network messages shipped
    std::uint64_t bytes_shipped = 0;   // incl. the initial snapshot
    std::uint64_t snapshot_bytes = 0;  // the initial snapshot alone
    std::uint64_t rows_applied = 0;    // differential rows applied
    double last_transfer_ms = 0.0;     // simulated, latest round with traffic
    double total_transfer_ms = 0.0;    // simulated, cumulative
  };
  [[nodiscard]] std::vector<SourceStats> source_stats() const;

  /// The most recent sync rounds, oldest first (bounded; see
  /// kSyncHistoryLimit). Returns a copy: the live deque is guarded by the
  /// mediator's sync mutex and rotates while introspection reads.
  [[nodiscard]] std::deque<SyncReport> sync_history() const;
  static constexpr std::size_t kSyncHistoryLimit = 128;

  /// Emit {"sources": [...], "rounds": [...]} into `w`.
  void write_stats_json(common::obs::JsonWriter& w) const;

  /// Per-source stats + round history packaged for observability
  /// export_json (key "sync").
  [[nodiscard]] common::obs::Section stats_section() const;

  // ---- health & introspection ----

  /// Liveness of one attached source, computed on demand: how far its
  /// mirror cursor lags the source clock, and whether that lag is within
  /// the staleness threshold. A source whose clock cannot even be read is
  /// unhealthy with `error` set.
  struct SourceHealth {
    std::string source_name;
    std::string local_table;
    std::int64_t staleness_ticks = 0;  // source->now() - cursor
    std::uint64_t failures = 0;        // cumulative failed sync rounds
    bool healthy = true;
    std::string error;  // set when the source could not be probed
  };

  /// Probe every attached source (never throws; failures mark the source
  /// unhealthy instead).
  [[nodiscard]] std::vector<SourceHealth> health() const;

  /// True when every attached source is healthy. A mediator with no
  /// sources is vacuously healthy.
  [[nodiscard]] bool healthy() const;

  /// Maximum cursor lag (in clock ticks) a source may accumulate before
  /// health() declares it unhealthy. Zero (the default) disables the
  /// check: only unreachable sources are then unhealthy.
  void set_staleness_threshold(common::Duration d) {
    LockGuard lock(mu_);
    staleness_threshold_ = d;
  }
  [[nodiscard]] common::Duration staleness_threshold() const {
    LockGuard lock(mu_);
    return staleness_threshold_;
  }

  /// Emit per-source sync counters (rounds, failures, messages, bytes,
  /// rows — label source="name") and per-source health gauges into a
  /// Prometheus exposition.
  void write_prometheus(common::obs::PromWriter& w) const;

  /// write_prometheus packaged for render_prometheus's section list.
  [[nodiscard]] std::function<void(common::obs::PromWriter&)> prometheus_section() const;

  /// For cost comparisons (bench E4): ship a fresh full snapshot from every
  /// source without touching the mirror; returns total bytes moved. This is
  /// what a client-side *complete* re-evaluation strategy would pay.
  std::size_t ship_snapshots();

  // ---- persistence of the mediator's own state ----

  /// Resumable position of one attached source: where incremental pulls
  /// continue from and how source tids map onto mirror tids.
  struct SourceState {
    std::string source_name;
    std::string local_table;
    common::Timestamp cursor;
    std::vector<std::pair<rel::TupleId::rep, rel::TupleId::rep>> tid_map;
  };

  /// States of all attached sources (persist::save_mediator serializes
  /// these next to the mirror database).
  [[nodiscard]] std::vector<SourceState> export_source_states() const;

  /// Re-bind `source` to a restored mirror: no snapshot shipping — the
  /// local table already holds the mirrored rows — and syncs resume at the
  /// saved cursor with the saved tid mapping. Matched by source name.
  void attach_restored(std::shared_ptr<InformationSource> source,
                       const SourceState& state);

  [[nodiscard]] cat::Database& database() noexcept { return db_; }
  [[nodiscard]] const cat::Database& database() const noexcept { return db_; }
  [[nodiscard]] core::CqManager& manager() noexcept { return manager_; }
  [[nodiscard]] const core::CqManager& manager() const noexcept { return manager_; }

  /// Evaluation lanes for CQ dispatch after each sync round / commit.
  /// Forwards to CqManager::set_parallelism; 1 = inline, no pool (default).
  void set_eval_threads(std::size_t threads) { manager_.set_parallelism(threads); }
  [[nodiscard]] std::size_t eval_threads() const noexcept {
    return manager_.parallelism();
  }
  [[nodiscard]] const std::string& client_name() const noexcept { return client_; }
  [[nodiscard]] std::size_t source_count() const {
    LockGuard lock(mu_);
    return sources_.size();
  }

 private:
  struct Attached {
    std::shared_ptr<InformationSource> source;
    std::string local_table;
    common::Timestamp cursor = common::Timestamp::min();
    /// source tid -> mirror tid (sources are autonomous; tids can collide).
    std::unordered_map<rel::TupleId::rep, rel::TupleId> tid_map;
    SourceStats stats;
    /// Registry gauges (label source="name"), lazily resolved; pointers are
    /// stable for the registry's lifetime.
    common::obs::Gauge* staleness_gauge = nullptr;
    common::obs::Gauge* pending_gauge = nullptr;
  };

  void apply_deltas(Attached& attached, const std::vector<delta::DeltaRow>& rows)
      CQ_REQUIRES(mu_);
  /// Publish one source's staleness/pending gauges (no-op when collection
  /// is disabled).
  void publish_source_gauges(Attached& attached, std::int64_t staleness,
                             std::int64_t pending) CQ_REQUIRES(mu_);
  /// health() with the sync mutex already held (write_prometheus probes
  /// health and reads shipping stats under one acquisition).
  [[nodiscard]] std::vector<SourceHealth> health_impl() const CQ_REQUIRES(mu_);

  std::string client_;
  Network* network_;
  // db_ and manager_ are *engine state*: they are serialized by the
  // caller's engine mutex (the one diom::serve_introspection requires),
  // not by mu_ — CQ executions re-enter the manager from commit hooks, so
  // an internal lock here would self-deadlock. mu_ guards the mediator's
  // own sync bookkeeping, which introspection handlers read while the
  // engine thread runs sync rounds.
  cat::Database db_;
  core::CqManager manager_;
  mutable common::Mutex mu_{"mediator", common::lockorder::LockRank::kMediator};
  std::vector<Attached> sources_ CQ_GUARDED_BY(mu_);
  std::deque<SyncReport> history_ CQ_GUARDED_BY(mu_);
  std::uint64_t sync_rounds_ CQ_GUARDED_BY(mu_) = 0;
  common::Duration staleness_threshold_ CQ_GUARDED_BY(mu_){0};
};

}  // namespace cq::diom
