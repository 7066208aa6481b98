#include "cq/manager.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/logging.hpp"

namespace cq::core {

namespace obs = common::obs;

namespace {

/// Rows in a notification's payload, as the sink sees it.
std::uint64_t rows_delivered(const Notification& note) {
  if (note.sequence == 0 || note.aggregate) {
    const auto& payload = note.aggregate ? note.aggregate : note.complete;
    return payload ? payload->size() : 0;
  }
  std::uint64_t rows = note.delta.inserted.size() + note.delta.deleted.size();
  if (note.complete) rows += note.complete->size();
  return rows;
}

/// True when `relations` names any of `tables`.
bool reads_any(const std::vector<std::string>& relations,
               const std::vector<std::string>& tables) {
  return std::any_of(tables.begin(), tables.end(), [&](const std::string& t) {
    return std::find(relations.begin(), relations.end(), t) != relations.end();
  });
}

obs::Histogram& cq_exec_histogram() {
  static obs::Histogram& h = obs::global().histogram(obs::hist::kCqExecUs);
  return h;
}

obs::Gauge& active_cq_gauge() {
  static obs::Gauge& g = obs::global().gauge(obs::gauge::kActiveCqs);
  return g;
}

obs::Gauge& parallelism_gauge() {
  static obs::Gauge& g = obs::global().gauge(obs::gauge::kEvalParallelism);
  return g;
}

/// The manager this thread is currently dispatching for. Commits arrive
/// on whichever writer thread committed, so the reentrancy guard ("a CQ
/// execution never re-triggers itself") must be per-thread — a bool
/// member would make one writer's dispatch swallow another's.
thread_local const void* t_dispatching = nullptr;

/// Restores the guard even when a CQ execution throws, so one failed
/// dispatch cannot wedge every future commit into a silent no-op.
class DispatchGuard {
 public:
  explicit DispatchGuard(const void* manager) : prev_(t_dispatching) {
    t_dispatching = manager;
  }
  ~DispatchGuard() { t_dispatching = prev_; }
  DispatchGuard(const DispatchGuard&) = delete;
  DispatchGuard& operator=(const DispatchGuard&) = delete;

 private:
  const void* prev_;
};

/// Claims the shared thread pool for one dispatch; concurrent dispatches
/// that lose the race evaluate their batches inline instead of waiting
/// (run_all is not reentrant and must not be entered twice).
class PoolLease {
 public:
  explicit PoolLease(std::atomic<bool>& busy) : busy_(busy) {
    owned_ = !busy_.exchange(true, std::memory_order_acquire);
  }
  ~PoolLease() {
    if (owned_) busy_.store(false, std::memory_order_release);
  }
  PoolLease(const PoolLease&) = delete;
  PoolLease& operator=(const PoolLease&) = delete;

  [[nodiscard]] bool owned() const noexcept { return owned_; }

 private:
  std::atomic<bool>& busy_;
  bool owned_ = false;
};

}  // namespace

/// One eligible CQ's evaluation within a dispatch: written by the lane
/// that evaluates it, replayed in handle order by the merge.
struct CqManager::Outcome {
  CqHandle handle = 0;
  Entry* entry = nullptr;
  bool stop_pre = false;
  bool fired = false;
  bool stop_post = false;
  Notification note;
  DraStats stats;
  common::Metrics local;  // merged into metrics_ in handle order
  std::uint64_t elapsed_ns = 0;
  std::exception_ptr error;
};

CqManager::CqManager(cat::Database& db) : db_(db) {}

CqManager::~CqManager() {
  if (eager_) {
    db_.set_commit_hook(nullptr);
    db_.set_commit_closure_hook(nullptr);
  }
}

CqStats& CqManager::stats_of(const Entry& entry) {
  CqStats& s = stats_[entry.query->name()];
  s.name = entry.query->name();
  return s;
}

CqManager::Entry* CqManager::find_entry(CqHandle handle) {
  common::LockGuard lock(entries_mu_);
  auto it = entries_.find(handle);
  return it == entries_.end() ? nullptr : &it->second;
}

void CqManager::extend_closure(const std::vector<std::string>& write_set,
                               std::vector<std::string>& closure) const {
  common::LockGuard lock(entries_mu_);
  for (const auto& [h, e] : entries_) {
    const auto& relations = e.query->relations();
    if (!reads_any(relations, write_set)) continue;
    // Duplicates are fine: the closure only feeds the shard-mask OR.
    closure.insert(closure.end(), relations.begin(), relations.end());
  }
}

CqHandle CqManager::install(CqSpec spec, std::shared_ptr<ResultSink> sink) {
  Entry entry;
  entry.query = std::make_unique<ContinualQuery>(std::move(spec), db_);
  entry.sink = std::move(sink);

  obs::Span span("cq.install");
  common::Metrics local;
  const std::uint64_t t0 = obs::now_ns();
  const Notification initial = entry.query->execute_initial(db_, &local);
  const std::uint64_t elapsed = obs::now_ns() - t0;
  entry.zone_id = db_.zones().register_cq(entry.query->last_execution());
  record_lineage(initial);
  if (entry.sink) entry.sink->on_result(initial);

  {
    common::LockGuard lock(stats_mu_);
    metrics_.merge(local);
    CqStats& s = stats_of(entry);
    s.executions = 1;
    s.finished = false;
    s.last_exec_ns = elapsed;
    s.total_exec_ns += elapsed;
    s.rows_delivered += rows_delivered(initial);
    s.last_execution = entry.query->last_execution();
  }
  if (obs::enabled()) cq_exec_histogram().record(elapsed / 1000);

  common::log_info("installed CQ '", entry.query->name(), "' trigger=",
                   entry.query->spec().trigger->describe());
  obs::event(obs::Severity::kInfo, "cq_installed", entry.query->name(),
             "trigger=" + entry.query->spec().trigger->describe(),
             db_.clock().now().ticks());
  return add_entry(std::move(entry));
}

CqHandle CqManager::install_restored(CqSpec spec, std::shared_ptr<ResultSink> sink,
                                     common::Timestamp last_execution,
                                     std::uint64_t executions) {
  Entry entry;
  entry.query = std::make_unique<ContinualQuery>(std::move(spec), db_);
  entry.sink = std::move(sink);
  entry.query->restore(db_, last_execution, executions);
  entry.zone_id = db_.zones().register_cq(last_execution);

  {
    common::LockGuard lock(stats_mu_);
    CqStats& s = stats_of(entry);
    s.executions = executions;
    s.finished = false;
    s.last_execution = last_execution;
  }

  common::log_info("restored CQ '", entry.query->name(), "' at t=",
                   last_execution.to_string(), " after ", executions, " executions");
  return add_entry(std::move(entry));
}

CqHandle CqManager::add_entry(Entry entry) {
  common::LockGuard lock(entries_mu_);
  const CqHandle handle = next_handle_++;
  entries_.emplace(handle, std::move(entry));
  active_cq_gauge().set(static_cast<std::int64_t>(entries_.size()));
  return handle;
}

void CqManager::remove(CqHandle handle) {
  if (!finish(handle, "removed")) {
    throw common::NotFound("CqManager: unknown handle " + std::to_string(handle));
  }
}

bool CqManager::finish(CqHandle handle, const char* reason) {
  common::LockGuard lock(entries_mu_);
  auto it = entries_.find(handle);
  if (it == entries_.end()) return false;
  ContinualQuery& query = *it->second.query;
  query.mark_finished();
  common::log_info("CQ '", query.name(), "' terminated: ", reason);
  obs::event(obs::Severity::kInfo, "cq_terminated", query.name(), reason,
             db_.clock().now().ticks());
  {
    common::LockGuard stats_lock(stats_mu_);
    stats_of(it->second).finished = true;
  }
  db_.zones().unregister(it->second.zone_id);
  entries_.erase(it);
  active_cq_gauge().set(static_cast<std::int64_t>(entries_.size()));
  return true;
}

void CqManager::record_check(const Entry& entry, bool fired) {
  {
    common::LockGuard lock(stats_mu_);
    metrics_.add(common::metric::kTriggerChecks, 1);
    CqStats& s = stats_of(entry);
    ++s.trigger_checks;
    if (fired) {
      ++s.fired;
      metrics_.add(common::metric::kTriggersFired, 1);
    } else {
      ++s.suppressed;
      metrics_.add(common::metric::kTriggersSuppressed, 1);
    }
  }
  if (obs::enabled()) {
    obs::event(fired ? obs::Severity::kInfo : obs::Severity::kDebug,
               fired ? "trigger_fired" : "trigger_suppressed", entry.query->name(), "",
               db_.clock().now().ticks());
  }
}

std::size_t CqManager::poll() {
  static obs::Histogram& poll_hist = obs::global().histogram(obs::hist::kPollUs);
  obs::Span span("cq.poll", &poll_hist);
  return dispatch(nullptr);
}

void CqManager::set_parallelism(std::size_t threads) {
  const std::size_t lanes = threads == 0 ? 1 : threads;
  if (lanes == threads_) return;
  threads_ = lanes;
  pool_.reset();  // rebuilt lazily at the next dispatch with the new width
  parallelism_gauge().set(static_cast<std::int64_t>(threads_));
}

void CqManager::execute(Outcome& out, const delta::SnapshotMap& snapshots) {
  ContinualQuery& query = *out.entry->query;
  obs::Span span("cq.run");
  const std::uint64_t t0 = obs::now_ns();
  out.note = query.execute(db_, snapshots, &out.local, &out.stats);
  out.elapsed_ns = obs::now_ns() - t0;
  out.stop_post = query.should_stop(db_, snapshots);
}

bool CqManager::evaluate(Outcome& out, const delta::SnapshotMap& snapshots) {
  try {
    const ContinualQuery& query = *out.entry->query;
    out.stop_pre = query.should_stop(db_, snapshots);
    if (out.stop_pre) return true;
    out.fired = query.should_fire(db_, snapshots);
    if (out.fired) execute(out, snapshots);
  } catch (...) {
    out.error = std::current_exception();
  }
  return !out.error;
}

void CqManager::deliver(Outcome& out) {
  Entry& entry = *out.entry;
  {
    common::LockGuard lock(stats_mu_);
    last_stats_ = out.stats;
    metrics_.merge(out.local);
    CqStats& s = stats_of(entry);
    ++s.executions;
    s.last_exec_ns = out.elapsed_ns;
    s.total_exec_ns += out.elapsed_ns;
    s.delta_rows_consumed += out.stats.delta_rows_read;
    s.rows_delivered += rows_delivered(out.note);
    s.last_execution = entry.query->last_execution();
  }
  if (obs::enabled()) {
    cq_exec_histogram().record(out.elapsed_ns / 1000);
    obs::event(obs::Severity::kInfo, "cq_delivered", entry.query->name(),
               std::to_string(rows_delivered(out.note)) + " row(s)",
               entry.query->last_execution().ticks());
  }
  db_.zones().advance(entry.zone_id, entry.query->last_execution());
  record_lineage(out.note);
  if (entry.sink) {
    obs::Span notify_span("cq.notify");
    entry.sink->on_result(out.note);
  }
  if (out.stop_post) (void)finish(out.handle, "stop condition reached");
}

std::size_t CqManager::dispatch(const std::vector<std::string>* tables) {
  // ---- one outcome slot per eligible CQ, in handle order ----
  // The slots live in this thread's spare buffer rather than a fresh array
  // per commit (an Outcome is ~1.3 KB). The loan takes the buffer by
  // exchange, so concurrent writers and a dispatch nested by a sink's
  // commit into another manager's database never share one.
  static thread_local std::vector<Outcome> spare;
  struct Loan {
    std::vector<Outcome> buffer = std::exchange(spare, {});
    ~Loan() {
      buffer.clear();
      spare = std::move(buffer);
    }
  } loan;
  std::vector<Outcome>& outcomes = loan.buffer;
  {
    common::LockGuard lock(entries_mu_);
    for (auto& [h, e] : entries_) {
      if (tables != nullptr && !reads_any(e.query->relations(), *tables)) continue;
      outcomes.emplace_back();
      outcomes.back().handle = h;
      outcomes.back().entry = &e;
    }
  }
  if (outcomes.empty()) return 0;

  // ---- snapshot each touched delta once, shared by every eligible CQ ----
  obs::Span snapshot_span("commit.snapshot");
  delta::SnapshotMap snapshots;
  for (const Outcome& o : outcomes) {
    snapshot_deltas(db_, o.entry->query->relations(), snapshots);
  }
  snapshot_span.close();

  // ---- evaluate: pure reads + per-CQ state transitions ----
  obs::Span eval_span("commit.eval");
  if (threads_ == 1) {
    // Inline, in handle order; stop at the first failure so the CQs after
    // it keep their state and catch up at the next dispatch.
    for (Outcome& out : outcomes) {
      if (!evaluate(out, snapshots)) break;
    }
  } else {
    evaluate_on_pool(outcomes, snapshots);
  }
  eval_span.close();

  // ---- merge: replay every side effect in handle order ----
  obs::Span merge_span("commit.merge");
  std::size_t executed = 0;
  std::exception_ptr first_error;
  for (Outcome& out : outcomes) {
    if (out.error || out.stop_pre) {
      {
        common::LockGuard lock(stats_mu_);
        metrics_.add(common::metric::kTriggerChecks, 1);
      }
      if (out.error) {
        if (!first_error) first_error = out.error;
        break;
      }
      (void)finish(out.handle, "stop condition reached");
      continue;
    }
    record_check(*out.entry, out.fired);
    if (!out.fired) continue;
    ++executed;
    // The CQs after a throwing sink have already executed (cursor, saved
    // result, sequence number): deliver them anyway, then rethrow.
    try {
      deliver(out);
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
  return executed;
}

void CqManager::evaluate_on_pool(std::vector<Outcome>& outcomes,
                                 const delta::SnapshotMap& snapshots) {
  // One task per lane (fewer when there are fewer CQs), each pulling the
  // next CQ from one shared cursor until none is left, so a run of costly
  // CQs with adjacent handles spreads across the lanes instead of filling
  // one lane's share. Every CQ writes only its own outcome slot and the
  // merge replays them in handle order, so which lane ran what is not
  // observable. CQs sharing a read set share the snapshot's memoized views
  // whichever lane runs them.
  const std::size_t m = outcomes.size();
  const std::size_t lanes = std::min(threads_, m);
  parallelism_gauge().set(static_cast<std::int64_t>(lanes));

  static obs::Histogram& batch_hist = obs::global().histogram(obs::hist::kEvalBatchUs);
  std::atomic<std::size_t> cursor{0};
  std::vector<std::function<void()>> tasks;
  tasks.reserve(lanes);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    tasks.emplace_back([this, &snapshots, &outcomes, &cursor, m] {
      // Lands on the executing lane's track, carrying the dispatching
      // commit's trace id (the pool adopts the dispatcher's context).
      obs::Span batch_span("eval.batch", &batch_hist);
      for (std::size_t i = cursor++; i < m; i = cursor++) {
        (void)evaluate(outcomes[i], snapshots);
      }
    });
  }
  // One pool, many possible dispatchers: the lease loser (a concurrent
  // commit over disjoint shards) evaluates its batches on its own thread —
  // same results, no cross-dispatch wait.
  PoolLease lease(pool_busy_);
  if (lease.owned()) {
    if (!pool_) pool_ = std::make_unique<common::ThreadPool>(threads_ - 1);
    pool_->run_all(std::move(tasks));
  } else {
    for (auto& task : tasks) task();
  }
}

void CqManager::set_eager(bool eager) {
  if (eager == eager_) return;
  eager_ = eager;
  if (eager_) {
    // The closure hook first: a commit arriving between the two set
    // calls must never dispatch without its closure being locked.
    db_.set_commit_closure_hook(
        [this](const std::vector<std::string>& write_set,
               std::vector<std::string>& closure) { extend_closure(write_set, closure); });
    db_.set_commit_hook([this](const std::vector<std::string>& tables,
                               common::Timestamp ts) { on_commit(tables, ts); });
  } else {
    db_.set_commit_hook(nullptr);
    db_.set_commit_closure_hook(nullptr);
  }
}

void CqManager::on_commit(const std::vector<std::string>& tables, common::Timestamp) {
  if (t_dispatching == this) return;  // a CQ execution never re-triggers itself
  DispatchGuard guard(this);
  (void)dispatch(&tables);
}

Notification CqManager::execute_now(CqHandle handle) {
  Outcome out;
  out.handle = handle;
  out.entry = find_entry(handle);
  if (out.entry == nullptr) {
    throw common::NotFound("CqManager: unknown handle " + std::to_string(handle));
  }
  execute(out, snapshot_deltas(db_, out.entry->query->relations()));
  deliver(out);
  return std::move(out.note);
}

void CqManager::set_lineage(bool enabled, std::size_t retention) {
  lineage_.set_retention(retention);
  if (enabled == lineage_on_) return;
  lineage_on_ = enabled;
  rel::prov::set_enabled(enabled);
}

void CqManager::record_lineage(const Notification& note) {
  if (!lineage_on_) return;
  lineage_.record(note, obs::current_context().trace_id);
}

std::size_t CqManager::collect_garbage() {
  static obs::Histogram& gc_hist = obs::global().histogram(obs::hist::kGcUs);
  obs::Span span("cq.gc", &gc_hist);
  const std::size_t reclaimed = db_.garbage_collect();
  common::LockGuard lock(stats_mu_);
  metrics_.add(common::metric::kGcRuns, 1);
  metrics_.add(common::metric::kGcRowsReclaimed, static_cast<std::int64_t>(reclaimed));
  return reclaimed;
}

const ContinualQuery& CqManager::cq(CqHandle handle) const {
  common::LockGuard lock(entries_mu_);
  auto it = entries_.find(handle);
  if (it == entries_.end()) {
    throw common::NotFound("CqManager: unknown handle " + std::to_string(handle));
  }
  return *it->second.query;
}

CqStats CqManager::stats(CqHandle handle) const {
  std::string name;
  {
    common::LockGuard lock(entries_mu_);
    auto it = entries_.find(handle);
    if (it == entries_.end()) {
      throw common::NotFound("CqManager: unknown handle " + std::to_string(handle));
    }
    name = it->second.query->name();
  }
  common::LockGuard lock(stats_mu_);
  auto stats_it = stats_.find(name);
  CQ_ASSERT(stats_it != stats_.end());
  return stats_it->second;
}

std::map<std::string, CqStats> CqManager::cq_stats() const {
  common::LockGuard lock(stats_mu_);
  return stats_;
}

std::vector<CqHandle> CqManager::handles() const {
  common::LockGuard lock(entries_mu_);
  std::vector<CqHandle> out;
  out.reserve(entries_.size());
  for (const auto& [h, e] : entries_) out.push_back(h);
  return out;
}

void CqManager::write_stats_json(common::obs::JsonWriter& w) const {
  common::LockGuard lock(stats_mu_);
  w.begin_object();
  for (const auto& [name, s] : stats_) {
    w.key(name).begin_object();
    w.kv("executions", s.executions);
    w.kv("trigger_checks", s.trigger_checks);
    w.kv("fired", s.fired);
    w.kv("suppressed", s.suppressed);
    w.kv("delta_rows_consumed", s.delta_rows_consumed);
    w.kv("rows_delivered", s.rows_delivered);
    w.kv("last_exec_us", s.last_exec_ns / 1000);
    w.kv("total_exec_us", s.total_exec_ns / 1000);
    w.kv("last_execution_at", s.last_execution.ticks());
    w.kv("finished", s.finished);
    w.end_object();
  }
  w.end_object();
}

common::obs::Section CqManager::stats_section() const {
  return {"cqs", [this](common::obs::JsonWriter& w) { write_stats_json(w); }};
}

void CqManager::write_prometheus(common::obs::PromWriter& w) const {
  common::LockGuard lock(stats_mu_);
  // active_cqs itself lives in the registry (maintained at install/remove),
  // so it is not re-emitted here — one sample per (name, labels).
  for (const auto& [name, s] : stats_) {
    const obs::Labels labels{{"cq", name}};
    w.counter("executions", static_cast<std::int64_t>(s.executions), labels);
    w.counter("trigger_checks", static_cast<std::int64_t>(s.trigger_checks), labels);
    w.counter("triggers_fired", static_cast<std::int64_t>(s.fired), labels);
    w.counter("triggers_suppressed", static_cast<std::int64_t>(s.suppressed), labels);
    w.counter("delta_rows_consumed", static_cast<std::int64_t>(s.delta_rows_consumed),
              labels);
    w.counter("rows_delivered", static_cast<std::int64_t>(s.rows_delivered), labels);
    w.counter("exec_time_us", static_cast<std::int64_t>(s.total_exec_ns / 1000), labels);
  }
}

std::function<void(common::obs::PromWriter&)> CqManager::prometheus_section() const {
  return [this](common::obs::PromWriter& w) { write_prometheus(w); };
}

void CqManager::reset_stats() {
  metrics_.reset();
  common::LockGuard lock(stats_mu_);
  last_stats_ = DraStats{};
  // Zero in place: stats(handle) relies on every installed CQ keeping its
  // record, and the name/finished fields describe identity, not work.
  for (auto& [name, s] : stats_) {
    s = CqStats{.name = s.name, .last_execution = s.last_execution, .finished = s.finished};
  }
}

}  // namespace cq::core
