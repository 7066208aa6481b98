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

/// Dispatches (of any manager) running on this thread. Retired entries
/// and routing snapshots are freed only at depth 0: a sink that installs
/// or removes a CQ must not free what the dispatch around it still holds.
thread_local int t_dispatch_depth = 0;

/// Sum `s`'s counters into `into`; its latest-execution fields win.
void fold_stats(CqStats& into, const CqStats& s) {
  into.executions += s.executions;
  into.trigger_checks += s.trigger_checks;
  into.fired += s.fired;
  into.suppressed += s.suppressed;
  into.delta_rows_consumed += s.delta_rows_consumed;
  into.rows_delivered += s.rows_delivered;
  into.last_exec_ns = s.last_exec_ns;
  into.total_exec_ns += s.total_exec_ns;
  into.last_execution = s.last_execution;
  into.finished = into.finished && s.finished;
}

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
  Entry* entry = nullptr;
  bool stop_pre = false;
  bool fired = false;
  bool stop_post = false;
  Notification note;
  DraStats stats;
  common::Metrics local;  // merged into the entry's bag in handle order
  std::uint64_t elapsed_ns = 0;
  std::exception_ptr error;
};

CqManager::CqManager(cat::Database& db) : db_(db) {
  common::LockGuard lock(entries_mu_);
  publish_routes();
}

CqManager::~CqManager() {
  if (eager_) {
    db_.set_commit_hook(nullptr);
    db_.set_commit_closure_hook(nullptr);
  }
}

CqManager::Entry* CqManager::find_entry(CqHandle handle) const {
  common::LockGuard lock(entries_mu_);
  auto it = entries_.find(handle);
  return it == entries_.end() ? nullptr : it->second.get();
}

void CqManager::publish_routes() {
  auto routes = std::make_unique<Routes>();
  for (const auto& [h, e] : entries_) {
    const auto& relations = e->query->relations();
    std::uint32_t mask = 0;
    for (const auto& r : relations) mask |= 1u << cat::Database::shard_of(r);
    for (const auto& r : relations) {
      TableRoutes& table = routes->by_table[r];
      // A self-join names its table twice; route the CQ once.
      if (table.entries.empty() || table.entries.back() != e.get()) {
        table.entries.push_back(e.get());
      }
      table.read_mask |= mask;
    }
    routes->all.push_back(e.get());
  }
  route_versions_.push_back(std::move(routes));
  routes_.store(route_versions_.back().get(), std::memory_order_release);
}

void CqManager::free_retired() {
  if (t_dispatch_depth != 0) return;
  retired_entries_.clear();
  route_versions_.erase(route_versions_.begin(), route_versions_.end() - 1);
}

std::uint32_t CqManager::closure_mask(const std::vector<std::string>& write_set) const {
  const Routes& routes = *routes_.load(std::memory_order_acquire);
  std::uint32_t mask = 0;
  for (const auto& table : write_set) {
    auto it = routes.by_table.find(table);
    if (it != routes.by_table.end()) mask |= it->second.read_mask;
  }
  return mask;
}

void CqManager::adopt_history(Entry& entry) {
  common::LockGuard lock(stats_mu_);
  common::LockGuard entry_lock(entry.stats_mu);
  auto node = history_.extract(entry.query->name());
  if (!node.empty()) entry.stats = std::move(node.mapped());
  entry.stats.name = entry.query->name();
  entry.stats.finished = false;
}

CqHandle CqManager::install(CqSpec spec, std::shared_ptr<ResultSink> sink) {
  auto entry = std::make_unique<Entry>();
  entry->query = std::make_unique<ContinualQuery>(std::move(spec), db_);
  entry->sink = std::move(sink);

  obs::Span span("cq.install");
  common::Metrics local;
  const std::uint64_t t0 = obs::now_ns();
  const Notification initial = entry->query->execute_initial(db_, &local);
  const std::uint64_t elapsed = obs::now_ns() - t0;
  entry->zone_id = db_.zones().register_cq(entry->query->last_execution());
  record_lineage(initial);
  if (entry->sink) entry->sink->on_result(initial);

  adopt_history(*entry);
  {
    common::LockGuard lock(entry->stats_mu);
    entry->metrics.merge(local);
    CqStats& s = entry->stats;
    s.executions = 1;
    s.last_exec_ns = elapsed;
    s.total_exec_ns += elapsed;
    s.rows_delivered += rows_delivered(initial);
    s.last_execution = entry->query->last_execution();
  }
  if (obs::enabled()) cq_exec_histogram().record(elapsed / 1000);

  common::log_info("installed CQ '", entry->query->name(), "' trigger=",
                   entry->query->spec().trigger->describe());
  obs::event(obs::Severity::kInfo, "cq_installed", entry->query->name(),
             "trigger=" + entry->query->spec().trigger->describe(),
             db_.clock().now().ticks());
  return add_entry(std::move(entry));
}

CqHandle CqManager::install_restored(CqSpec spec, std::shared_ptr<ResultSink> sink,
                                     common::Timestamp last_execution,
                                     std::uint64_t executions) {
  auto entry = std::make_unique<Entry>();
  entry->query = std::make_unique<ContinualQuery>(std::move(spec), db_);
  entry->sink = std::move(sink);
  entry->query->restore(db_, last_execution, executions);
  entry->zone_id = db_.zones().register_cq(last_execution);

  adopt_history(*entry);
  {
    common::LockGuard lock(entry->stats_mu);
    entry->stats.executions = executions;
    entry->stats.last_execution = last_execution;
  }

  common::log_info("restored CQ '", entry->query->name(), "' at t=",
                   last_execution.to_string(), " after ", executions, " executions");
  return add_entry(std::move(entry));
}

CqHandle CqManager::add_entry(std::unique_ptr<Entry> entry) {
  common::LockGuard lock(entries_mu_);
  const CqHandle handle = next_handle_++;
  entry->handle = handle;
  entries_.emplace(handle, std::move(entry));
  publish_routes();
  free_retired();
  active_cq_gauge().set(static_cast<std::int64_t>(entries_.size()));
  return handle;
}

void CqManager::remove(CqHandle handle) {
  if (!finish(handle, "removed")) {
    throw common::NotFound("CqManager: unknown handle " + std::to_string(handle));
  }
  common::LockGuard lock(entries_mu_);
  free_retired();
}

bool CqManager::finish(CqHandle handle, const char* reason) {
  common::LockGuard lock(entries_mu_);
  auto it = entries_.find(handle);
  if (it == entries_.end()) return false;
  Entry& entry = *it->second;
  ContinualQuery& query = *entry.query;
  query.mark_finished();
  common::log_info("CQ '", query.name(), "' terminated: ", reason);
  obs::event(obs::Severity::kInfo, "cq_terminated", query.name(), reason,
             db_.clock().now().ticks());
  db_.zones().unregister(entry.zone_id);
  {
    common::LockGuard stats_lock(stats_mu_);
    common::LockGuard entry_lock(entry.stats_mu);
    entry.stats.finished = true;
    auto [slot, fresh] = history_.try_emplace(query.name(), entry.stats);
    if (!fresh) fold_stats(slot->second, entry.stats);
    metrics_.merge(entry.metrics);
    entry.metrics.reset();
  }
  retired_entries_.push_back(std::move(it->second));
  entries_.erase(it);
  publish_routes();
  active_cq_gauge().set(static_cast<std::int64_t>(entries_.size()));
  return true;
}

void CqManager::record(const Outcome& out, bool checked) {
  Entry& entry = *out.entry;
  {
    common::LockGuard lock(entry.stats_mu);
    CqStats& s = entry.stats;
    if (checked) {
      entry.metrics.add(common::metric::kTriggerChecks, 1);
      ++s.trigger_checks;
      if (out.fired) {
        ++s.fired;
        entry.metrics.add(common::metric::kTriggersFired, 1);
      } else {
        ++s.suppressed;
        entry.metrics.add(common::metric::kTriggersSuppressed, 1);
      }
    }
    if (out.fired) {
      entry.last_dra = out.stats;
      entry.metrics.merge(out.local);
      ++s.executions;
      s.last_exec_ns = out.elapsed_ns;
      s.total_exec_ns += out.elapsed_ns;
      s.delta_rows_consumed += out.stats.delta_rows_read;
      s.rows_delivered += rows_delivered(out.note);
      s.last_execution = entry.query->last_execution();
    }
  }
  if (checked && obs::enabled()) {
    obs::event(out.fired ? obs::Severity::kInfo : obs::Severity::kDebug,
               out.fired ? "trigger_fired" : "trigger_suppressed", entry.query->name(), "",
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
  if (out.stop_post) (void)finish(entry.handle, "stop condition reached");
}

std::size_t CqManager::dispatch(const std::vector<std::string>* tables) {
  struct Depth {
    Depth() { ++t_dispatch_depth; }
    ~Depth() { --t_dispatch_depth; }
  } depth;

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
  // The eligible CQs come from the routing snapshot, without a lock: the
  // committed tables' route lists, merged in handle order when a commit
  // wrote several tables.
  const Routes& routes = *routes_.load(std::memory_order_acquire);
  const auto add = [&outcomes](Entry* e) { outcomes.emplace_back().entry = e; };
  if (tables == nullptr) {
    for (Entry* e : routes.all) add(e);
  } else if (tables->size() == 1) {
    auto it = routes.by_table.find(tables->front());
    if (it != routes.by_table.end()) {
      for (Entry* e : it->second.entries) add(e);
    }
  } else {
    std::vector<Entry*> eligible;
    for (const auto& table : *tables) {
      auto it = routes.by_table.find(table);
      if (it == routes.by_table.end()) continue;
      eligible.insert(eligible.end(), it->second.entries.begin(), it->second.entries.end());
    }
    std::sort(eligible.begin(), eligible.end(),
              [](const Entry* a, const Entry* b) { return a->handle < b->handle; });
    eligible.erase(std::unique(eligible.begin(), eligible.end()), eligible.end());
    for (Entry* e : eligible) add(e);
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
        common::LockGuard lock(out.entry->stats_mu);
        out.entry->metrics.add(common::metric::kTriggerChecks, 1);
      }
      if (out.error) {
        if (!first_error) first_error = out.error;
        break;
      }
      (void)finish(out.entry->handle, "stop condition reached");
      continue;
    }
    record(out, /*checked=*/true);
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
        [this](const std::vector<std::string>& write_set) { return closure_mask(write_set); });
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
  out.entry = find_entry(handle);
  if (out.entry == nullptr) {
    throw common::NotFound("CqManager: unknown handle " + std::to_string(handle));
  }
  execute(out, snapshot_deltas(db_, out.entry->query->relations()));
  out.fired = true;
  record(out, /*checked=*/false);
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
  const Entry* entry = find_entry(handle);
  if (entry == nullptr) {
    throw common::NotFound("CqManager: unknown handle " + std::to_string(handle));
  }
  return *entry->query;
}

CqStats CqManager::stats(CqHandle handle) const {
  const Entry* entry = find_entry(handle);
  if (entry == nullptr) {
    throw common::NotFound("CqManager: unknown handle " + std::to_string(handle));
  }
  common::LockGuard lock(entry->stats_mu);
  return entry->stats;
}

DraStats CqManager::last_dra_stats(CqHandle handle) const {
  const Entry* entry = find_entry(handle);
  if (entry == nullptr) {
    throw common::NotFound("CqManager: unknown handle " + std::to_string(handle));
  }
  common::LockGuard lock(entry->stats_mu);
  return entry->last_dra;
}

std::map<std::string, CqStats> CqManager::cq_stats() const {
  common::LockGuard lock(entries_mu_);
  common::LockGuard stats_lock(stats_mu_);
  std::map<std::string, CqStats> out = history_;
  for (const auto& [h, e] : entries_) {
    common::LockGuard entry_lock(e->stats_mu);
    auto [slot, fresh] = out.try_emplace(e->stats.name, e->stats);
    if (!fresh) fold_stats(slot->second, e->stats);
  }
  return out;
}

void CqManager::fold_metrics() const {
  common::LockGuard lock(entries_mu_);
  common::LockGuard stats_lock(stats_mu_);
  for (const auto& [h, e] : entries_) {
    common::LockGuard entry_lock(e->stats_mu);
    metrics_.merge(e->metrics);
    e->metrics.reset();
  }
}

common::Metrics& CqManager::metrics() {
  fold_metrics();
  return metrics_;
}

const common::Metrics& CqManager::metrics() const {
  fold_metrics();
  return metrics_;
}

std::vector<CqHandle> CqManager::handles() const {
  common::LockGuard lock(entries_mu_);
  std::vector<CqHandle> out;
  out.reserve(entries_.size());
  for (const auto& [h, e] : entries_) out.push_back(h);
  return out;
}

void CqManager::write_stats_json(common::obs::JsonWriter& w) const {
  w.begin_object();
  for (const auto& [name, s] : cq_stats()) {
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
  // active_cqs itself lives in the registry (maintained at install/remove),
  // so it is not re-emitted here — one sample per (name, labels).
  for (const auto& [name, s] : cq_stats()) {
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
  // Zero in place: the name/finished fields describe identity, not work.
  const auto zeroed = [](const CqStats& s) {
    return CqStats{.name = s.name, .last_execution = s.last_execution, .finished = s.finished};
  };
  common::LockGuard lock(entries_mu_);
  common::LockGuard stats_lock(stats_mu_);
  metrics_.reset();
  for (auto& [name, s] : history_) s = zeroed(s);
  for (const auto& [h, e] : entries_) {
    common::LockGuard entry_lock(e->stats_mu);
    e->stats = zeroed(e->stats);
    e->metrics.reset();
    e->last_dra = DraStats{};
  }
}

}  // namespace cq::core
