// Observability: tracing spans, latency histograms, a process-global
// registry, and a JSON exporter.
//
// Design goals (in order):
//   1. *Disabled is free.* Every hot-path instrumentation site compiles to
//      one relaxed atomic load and a branch when tracing is off — no clock
//      reads, no allocation, no locking. Benchmarks therefore run at seed
//      speed unless --stats-json / set_enabled(true) opts in.
//   2. *Bounded memory.* Completed spans land in a fixed-capacity ring
//      buffer; old events are overwritten, never accumulated.
//   3. *One exporter.* export_json() serializes counters + histograms +
//      caller-supplied sections (per-CQ stats, per-source sync stats) into
//      a single JSON document, and the trace ring dumps to a
//      chrome://tracing-compatible event array.
//
// Thread safety: the enable flag is atomic and the TraceCollector and the
// Registry's histogram map are mutex-guarded (the multi-source sync path
// may one day run sources on worker threads). Histogram::record and the
// Metrics bag are NOT internally synchronized — see metrics.hpp.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/event_log.hpp"
#include "common/histogram.hpp"
#include "common/metrics.hpp"
#include "common/sync.hpp"

namespace cq::common::obs {

// ---------------------------------------------------------------- enable --

namespace detail {
inline std::atomic<bool> g_enabled{false};
}  // namespace detail

/// Is span/histogram collection on? One relaxed load — safe to call in the
/// innermost loops.
[[nodiscard]] inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

inline void set_enabled(bool on) noexcept {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

/// Monotonic nanoseconds since the first call in this process.
[[nodiscard]] std::uint64_t now_ns() noexcept;

// (Histogram lives in common/histogram.hpp — re-exported here so existing
// obs::Histogram users are unaffected by the split.)

// ----------------------------------------------------------------- gauge --

/// A value that can go up and down: resource levels (relation rows/bytes,
/// delta backlog, queue depths, staleness). Atomic so the introspection
/// HTTP server can read gauges from its own thread while the engine
/// updates them.
class Gauge {
 public:
  void set(std::int64_t v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) noexcept { value_.fetch_add(d, std::memory_order_relaxed); }
  void sub(std::int64_t d) noexcept { value_.fetch_sub(d, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t get() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Prometheus-style label set: (key, value) pairs, e.g. {{"table","Stocks"}}.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// One gauge reading, for export.
struct GaugeSample {
  std::string name;
  Labels labels;
  std::int64_t value = 0;
};

/// Well-known gauge family names (labels in parentheses).
namespace gauge {
inline constexpr const char* kRelationRows = "relation_rows";      // (table)
inline constexpr const char* kRelationBytes = "relation_bytes";    // (table)
inline constexpr const char* kDeltaRows = "delta_rows";            // (table)
inline constexpr const char* kDeltaBytes = "delta_bytes";          // (table)
inline constexpr const char* kActiveCqs = "active_cqs";
inline constexpr const char* kTraceRingEvents = "trace_ring_events";
inline constexpr const char* kTraceRingDropped = "trace_ring_dropped";
inline constexpr const char* kEventLogEvents = "event_log_events";
inline constexpr const char* kEventLogDropped = "event_log_dropped";
inline constexpr const char* kSourceStalenessTicks = "source_staleness_ticks";  // (source)
inline constexpr const char* kSourcePendingRows = "source_pending_rows";        // (source)
/// Tasks queued in the evaluation thread pool, awaiting a worker.
inline constexpr const char* kPoolQueueDepth = "pool_queue_depth";
/// Evaluation lanes the CQ manager dispatches across (1 = inline, no pool).
inline constexpr const char* kEvalParallelism = "eval_parallelism";
/// Cumulative busy time of one pool lane, microseconds (label lane).
/// Monotonic — exported as a Prometheus counter, not a gauge.
inline constexpr const char* kPoolLaneBusyUs = "pool_lane_busy_us";
/// Lifetime busy fraction of one pool lane, percent (label lane).
inline constexpr const char* kPoolLaneUtilization = "pool_lane_utilization_pct";
/// Heap bytes held by the per-CQ lineage retention rings.
inline constexpr const char* kLineageBytes = "lineage_bytes";
/// Commits applied through one catalog shard (label shard). Monotonic —
/// exported as a Prometheus counter, not a gauge.
inline constexpr const char* kShardCommits = "shard_commits";
}  // namespace gauge

/// Gauge families that are in fact monotonic counters (dropped-event
/// totals, per-lane busy time). They live in the gauge map — set() is the
/// natural way to publish them — but the Prometheus exposition renders
/// them as counters so rate() works.
[[nodiscard]] bool gauge_is_counter(const std::string& name) noexcept;

// ----------------------------------------------------------------- trace --

// --- span context: which commit, how deep, which lane ---
//
// Spans carry causal identity across threads. A commit allocates a trace
// id (CommitTrace below); the id rides in a thread-local SpanContext that
// ThreadPool::run_all captures at enqueue and adopts inside each worker
// (ContextScope), so a worker's eval spans land on the worker's own lane
// track but keep the commit's trace id — one commit's cost breakdown is a
// single trace query.

struct SpanContext {
  std::uint64_t trace_id = 0;  // 0 = not inside any commit
  std::uint32_t depth = 0;     // nesting depth the next span opens at
};

/// This thread's current span context (cheap: thread-local read).
[[nodiscard]] SpanContext current_context() noexcept;

/// RAII adoption of another thread's context: construct with the context
/// captured at enqueue time, and spans opened on this thread until the
/// scope closes inherit its trace id and nest under its depth.
class ContextScope {
 public:
  explicit ContextScope(SpanContext ctx) noexcept;
  ContextScope(const ContextScope&) = delete;
  ContextScope& operator=(const ContextScope&) = delete;
  ~ContextScope();

 private:
  SpanContext saved_;
};

/// Allocate a fresh process-unique trace id (never 0).
[[nodiscard]] std::uint64_t next_trace_id() noexcept;

// --- lanes: one trace track per thread ---

/// Dense id of the calling thread's trace lane, assigned on first use
/// (0, 1, 2, ... in thread-first-seen order). Becomes the "tid" of every
/// span the thread records.
[[nodiscard]] std::uint32_t lane_id() noexcept;

/// Name the calling thread's lane ("pool-1", "dispatch"); shown as the
/// Perfetto track name via chrome-trace "M" metadata events.
void set_lane_name(std::string name);

/// Like set_lane_name but keeps an existing name (the dispatcher names
/// its lane on first dispatch without clobbering an explicit name).
void name_lane_if_unset(const char* name);

/// The lane's display name; "lane-<id>" when never named.
[[nodiscard]] std::string lane_name(std::uint32_t lane);

/// Lanes handed out so far (ids are 0..lane_count()-1).
[[nodiscard]] std::uint32_t lane_count() noexcept;

/// One completed span, steady-clock nanoseconds.
struct TraceEvent {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint32_t depth = 0;     // nesting depth at span open (0 = top level)
  std::uint32_t tid = 0;       // lane id of the recording thread
  std::uint64_t trace_id = 0;  // owning commit's trace id; 0 = none
};

/// One commit's retained trace: the root interval plus every span recorded
/// under its trace id while it was active (bounded; see
/// kMaxEventsPerTrace).
struct RetainedTrace {
  std::uint64_t trace_id = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::string label;  // e.g. the tables the commit touched
  std::vector<TraceEvent> events;
};

/// Fixed-capacity ring buffer of completed spans. Mutex-guarded: spans may
/// finish on any thread. When full, the oldest events are overwritten and
/// counted in dropped().
///
/// Besides the ring, the collector retains the N *slowest* commit traces
/// in full (tail-based retention): begin_trace() opens a bounded capture
/// for a trace id, record() copies matching events into it, and
/// end_trace() keeps the capture iff it ranks among the slowest seen.
class TraceCollector {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;
  /// Commit traces capturable concurrently; excess commits are measured
  /// but not retained.
  static constexpr std::size_t kMaxActiveTraces = 8;
  /// Events one retained trace may hold (a commit dispatching hundreds of
  /// CQs keeps its first 512 spans, enough for the phase breakdown).
  static constexpr std::size_t kMaxEventsPerTrace = 512;
  /// Default tail-retention width (see set_slow_capacity).
  static constexpr std::size_t kDefaultSlowCapacity = 16;

  explicit TraceCollector(std::size_t capacity = kDefaultCapacity);

  void record(std::string name, std::uint64_t start_ns, std::uint64_t dur_ns,
              std::uint32_t depth, std::uint32_t tid = 0, std::uint64_t trace_id = 0);

  /// Events in chronological (insertion) order.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const;
  /// Events overwritten because the ring was full.
  [[nodiscard]] std::uint64_t dropped() const;

  /// Drop all events and retained traces (capacity unchanged).
  void clear();
  /// Resize the ring; clears collected events.
  void set_capacity(std::size_t capacity);

  // --- tail-based retention of the slowest commits ---

  /// Start capturing events recorded under `trace_id`. No-op when
  /// kMaxActiveTraces captures are already open.
  void begin_trace(std::uint64_t trace_id);

  /// Finish the capture: retain it iff it ranks among the slow_capacity()
  /// slowest traces seen so far.
  void end_trace(std::uint64_t trace_id, std::uint64_t start_ns, std::uint64_t dur_ns,
                 std::string label);

  /// The retained traces, slowest first.
  [[nodiscard]] std::vector<RetainedTrace> slowest() const;

  [[nodiscard]] std::size_t slow_capacity() const;
  /// Resize the retention set (drops the fastest retained traces first).
  void set_slow_capacity(std::size_t n);

  /// The ring as a chrome://tracing "trace event" JSON array: "M" metadata
  /// events naming the process and each lane track, then complete
  /// ("ph":"X") events with microsecond ts/dur, real per-lane tids and the
  /// owning commit's trace id in args. Load via chrome://tracing or
  /// https://ui.perfetto.dev. A non-zero `trace_id` narrows the dump to
  /// one commit: its retained capture when available, else the matching
  /// ring events.
  [[nodiscard]] std::string to_chrome_json(std::uint64_t trace_id = 0) const;

  /// Write to_chrome_json() to `path`; throws common::IoError on failure.
  void write_chrome_trace(const std::string& path) const;

 private:
  void capture(const TraceEvent& event) CQ_REQUIRES(mu_);

  mutable Mutex mu_{"trace_ring", lockorder::LockRank::kTraceRing};
  std::vector<TraceEvent> ring_ CQ_GUARDED_BY(mu_);
  std::size_t capacity_ CQ_GUARDED_BY(mu_);
  std::size_t next_ CQ_GUARDED_BY(mu_) = 0;  // ring index of the next write
  std::uint64_t total_ CQ_GUARDED_BY(mu_) = 0;  // events ever recorded
  std::vector<RetainedTrace> active_ CQ_GUARDED_BY(mu_);   // captures in flight
  std::vector<RetainedTrace> slowest_ CQ_GUARDED_BY(mu_);  // desc by dur_ns
  std::size_t slow_capacity_ CQ_GUARDED_BY(mu_) = kDefaultSlowCapacity;
};

/// RAII span: opens at construction, records into the global trace
/// collector at destruction (or close()). When obs::enabled() is false the
/// constructor is one branch and the span records nothing. Optionally
/// feeds its duration (µs) into a Histogram. The span stamps the thread's
/// current SpanContext (trace id + depth) into the recorded event.
class Span {
 public:
  explicit Span(const char* name, Histogram* latency_us = nullptr) noexcept;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { close(); }

  /// End the span early (idempotent).
  void close() noexcept;

 private:
  const char* name_;
  Histogram* latency_us_;
  std::uint64_t start_ns_ = 0;
  std::uint64_t trace_id_ = 0;
  std::uint32_t depth_ = 0;
  bool active_;
};

/// RAII scope of one commit's trace: allocates the trace id, installs it
/// in this thread's SpanContext, opens a retention capture, and at close
/// records the root "commit" span, feeds commit_to_notify_us, and hands
/// the capture to tail-based retention. Constructed at the top of
/// Transaction::commit; a no-op (one branch) when collection is disabled.
class CommitTrace {
 public:
  CommitTrace() noexcept;
  CommitTrace(const CommitTrace&) = delete;
  CommitTrace& operator=(const CommitTrace&) = delete;
  ~CommitTrace();

  /// Label the retained trace (the touched tables, set once known).
  void set_label(std::string label);

  [[nodiscard]] bool active() const noexcept { return active_; }
  [[nodiscard]] std::uint64_t trace_id() const noexcept { return id_; }

 private:
  std::uint64_t id_ = 0;
  std::uint64_t start_ns_ = 0;
  SpanContext saved_{};
  std::string label_;
  bool active_ = false;
};

// -------------------------------------------------------------- registry --

/// Process-global home of the trace ring, the shared counter bag and the
/// named histograms. Layers that own their own Metrics (CqManager, bench
/// bags) keep doing so; the registry is where cross-layer latency
/// histograms and the trace ring live.
class Registry {
 public:
  [[nodiscard]] Metrics& metrics() noexcept { return metrics_; }
  [[nodiscard]] const Metrics& metrics() const noexcept { return metrics_; }
  [[nodiscard]] TraceCollector& traces() noexcept { return traces_; }
  [[nodiscard]] const TraceCollector& traces() const noexcept { return traces_; }

  /// The named histogram, created empty on first use. The reference stays
  /// valid for the registry's lifetime (node-stable map). Hot paths should
  /// resolve once:  static auto& h = obs::global().histogram("dra_exec_us");
  [[nodiscard]] Histogram& histogram(const std::string& name);

  /// Name → copy of every histogram, for export (the live map can grow
  /// concurrently).
  [[nodiscard]] std::map<std::string, Histogram> histogram_snapshot() const;

  /// The gauge for (family, labels), created at zero on first use. Like
  /// histogram(), the reference stays valid for the registry's lifetime —
  /// hot paths resolve once and keep the pointer.
  [[nodiscard]] Gauge& gauge(const std::string& name, Labels labels = {});

  /// Every gauge reading, sorted by (name, labels).
  [[nodiscard]] std::vector<GaugeSample> gauge_snapshot() const;

  /// The structured event journal (see event_log.hpp).
  [[nodiscard]] EventLog& events() noexcept { return events_; }
  [[nodiscard]] const EventLog& events() const noexcept { return events_; }

  /// Zero counters, histograms and gauges; drop trace and journal events.
  void reset();

 private:
  Metrics metrics_;
  TraceCollector traces_;
  EventLog events_;
  mutable Mutex mu_{"obs_registry", lockorder::LockRank::kObsRegistry};
  // mu_ guards the *map structure* (growth on first use). The Histogram
  // and Gauge values a lookup hands out stay referenced by hot paths and
  // are internally atomic — parallel evaluation workers record into both
  // concurrently; see the threading notes in docs/static-analysis.md.
  std::map<std::string, Histogram> histograms_ CQ_GUARDED_BY(mu_);
  std::map<std::pair<std::string, Labels>, Gauge> gauges_ CQ_GUARDED_BY(mu_);
};

[[nodiscard]] Registry& global() noexcept;

/// Well-known histogram names (all record microseconds).
namespace hist {
inline constexpr const char* kDraExecUs = "dra_exec_us";
inline constexpr const char* kCqExecUs = "cq_exec_us";
inline constexpr const char* kPollUs = "poll_us";
inline constexpr const char* kGcUs = "gc_us";
inline constexpr const char* kSyncUs = "sync_us";
inline constexpr const char* kNetTransferUs = "net_transfer_us";  // simulated
/// One parallel evaluation batch (a worker's slice of a commit dispatch).
inline constexpr const char* kEvalBatchUs = "eval_batch_us";
/// Full commit pipeline: transaction commit through the last CQ
/// notification leaving the manager (recorded by CommitTrace).
inline constexpr const char* kCommitToNotifyUs = "commit_to_notify_us";
/// Scheduler queue wait: task enqueue on the pool to execution start.
inline constexpr const char* kPoolTaskWaitUs = "pool_task_wait_us";
/// Time a committer spends blocked acquiring its shard lock set.
inline constexpr const char* kCommitLockWaitUs = "commit_lock_wait_us";
/// Base deltas cited per notification output row (a fan-in count, not a
/// latency — still a log2 histogram).
inline constexpr const char* kLineageFanin = "lineage_fanin";
}  // namespace hist

/// Append one event to the global journal — a no-op when collection is
/// disabled, so lifecycle call sites need no guard of their own. `logical`
/// is the engine's logical-clock instant (ticks). The calling thread's
/// current trace id is stamped onto the line automatically, so events
/// recorded inside a commit (trigger_fired, cq_delivered, ...) join
/// against /trace?trace_id= without timestamp guessing.
inline void event(Severity severity, std::string kind, std::string subject,
                  std::string detail = "", std::int64_t logical = 0) {
  if (!enabled()) return;  // "disabled is free": no journal writes
  global().events().record(severity, std::move(kind), std::move(subject),
                           std::move(detail), logical,
                           current_context().trace_id);
}

/// Refresh the registry's self-describing gauges (trace-ring occupancy and
/// drops, journal occupancy and drops), then run every registered refresh
/// hook. Called before each export/scrape.
void refresh_registry_gauges();

/// Register `fn` to run inside refresh_registry_gauges() — how components
/// with live internal state (the thread pool's per-lane busy clocks)
/// publish gauges only when someone scrapes. Returns a handle for
/// unregister_refresh_hook; unregister blocks until no refresh is running
/// the hook, so the component may be destroyed right after.
[[nodiscard]] std::uint64_t register_refresh_hook(std::function<void()> fn);
void unregister_refresh_hook(std::uint64_t id);

/// The /profile document: lock-contention sites, pool lane utilization,
/// scheduler + commit latency histograms, and the slowest retained commit
/// traces with a per-phase duration rollup. Refreshes gauges first.
[[nodiscard]] std::string export_profile_json();

// ------------------------------------------------------------------ JSON --

/// Minimal streaming JSON writer (objects, arrays, scalars; correct
/// escaping and comma placement). Enough for stats export — not a general
/// serializer.
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  JsonWriter& key(const std::string& k);
  JsonWriter& value(const std::string& v);
  JsonWriter& value(const char* v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(double v);
  JsonWriter& value(bool v);

  /// key + scalar in one call.
  template <typename T>
  JsonWriter& kv(const std::string& k, T v) {
    key(k);
    return value(v);
  }

  [[nodiscard]] std::string str() const { return out_; }

  [[nodiscard]] static std::string escape(const std::string& s);

 private:
  void comma();
  std::string out_;
  std::vector<bool> first_;  // per open scope: no element emitted yet
  bool pending_key_ = false;
};

/// Serialize a histogram summary as a JSON object (count, sum, min, max,
/// mean, p50, p95, p99) into `w` (caller supplies the key).
void write_histogram_json(JsonWriter& w, const Histogram& h);

/// A named top-level entry contributed by a higher layer (per-CQ registry,
/// per-source sync stats). `write` must emit exactly one JSON value.
struct Section {
  std::string key;
  std::function<void(JsonWriter&)> write;
};

/// A Section describing the global event journal's cursor state —
/// {"last_seq": N, "dropped": M, "size": K} — so /stats consumers learn
/// the seq to pass as /events?since= without fetching the journal itself.
[[nodiscard]] Section events_section();

/// The single stats document:
///   { "counters": {...}, "histograms": {...}, <section.key>: ..., ... }
[[nodiscard]] std::string export_json(const Metrics& counters,
                                      const std::map<std::string, Histogram>& histograms,
                                      const std::vector<Section>& sections = {});

/// Convenience: export the global registry's counters + histograms.
[[nodiscard]] std::string export_json(const Registry& registry,
                                      const std::vector<Section>& sections = {});

}  // namespace cq::common::obs
