// Shared scaffolding of the cqbench workloads: options, the closed-loop
// slice driver, latency statistics, the row generator every workload builds
// its transactions with, and the one place that turns a run's raw
// measurements into the named end-to-end and per-layer metrics.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "catalog/database.hpp"
#include "catalog/transaction.hpp"
#include "common/rng.hpp"
#include "cq/manager.hpp"

namespace cqbench {

using namespace cq;  // NOLINT(google-build-using-namespace): benchmark-local

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Evaluation lanes; 0 = the workload's own default.
  std::size_t lanes = 0;
  /// Multiplier on table sizes (the self-check runs at a tiny scale).
  double scale = 1.0;
  /// Directory for the span dump of a traced run ("" = do not write).
  std::string out_dir;
  std::string git_sha = "unknown";
};

[[nodiscard]] std::uint64_t now_ns() noexcept;

/// Rows kept at full scale, scaled down for the self-check.
[[nodiscard]] std::size_t scaled(const Options& opt, std::size_t rows);

// ------------------------------------------------------------- statistics --

/// Quantiles over a bounded uniform sample (reservoir sampling) of every
/// value added, so memory stays flat however many operations a run makes
/// and the peak RSS does not depend on throughput. Below the cap the
/// sample is exact.
class Samples {
 public:
  static constexpr std::size_t kCap = 1 << 15;

  void add(double v);
  /// Concatenate another sample (one per driver or world; each is uniform
  /// over its own operations).
  void append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
    sorted_ = false;
  }
  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }
  /// Linear-interpolated quantile, q in [0, 1]; 0 when empty.
  [[nodiscard]] double quantile(double q) const;

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
  std::uint64_t seen_ = 0;
  std::uint64_t state_ = 0x9e3779b97f4a7c15ull;  // own stream: never the generator's
};

/// Log-bucketed duration histogram with ~1% relative resolution, cheap
/// enough to record every traced span into. Not synchronized: each thread
/// records into its own and they are merged once the run has quiesced.
class FineHist {
 public:
  void record_ns(std::uint64_t ns);
  void merge(const FineHist& other);
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double sum_us() const noexcept { return static_cast<double>(sum_ns_) / 1e3; }
  [[nodiscard]] double mean_us() const noexcept {
    return count_ == 0 ? 0.0 : sum_us() / static_cast<double>(count_);
  }
  /// Quantile in microseconds (bucket midpoint); 0 when empty.
  [[nodiscard]] double quantile_us(double q) const;

 private:
  std::vector<std::uint64_t> buckets_;  // index = floor(log(ns) / log(1.02))
  std::uint64_t count_ = 0;
  std::uint64_t sum_ns_ = 0;
};

// ---------------------------------------------------------------- rows --

/// One generated base row the driver knows is live, with its values, so
/// modify() can be built without reading the table (no read races with
/// concurrent writers, and generation never calls into the engine).
struct LiveRow {
  rel::TupleId tid;
  std::int64_t key = 0;
  std::int64_t grp = 0;
  std::string payload;
};

inline constexpr std::int64_t kKeySpace = 1'000'000;
inline constexpr std::size_t kPayloadWidth = 16;

/// Generator state of one sweep-shaped table: (key INT uniform in
/// [0, kKeySpace), grp INT in [0, groups), payload STRING). Owns nothing of
/// the engine; the driver's Rng is passed in by the owner.
class TableGen {
 public:
  TableGen(std::string name, std::size_t groups) : name_(std::move(name)), groups_(groups) {}

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Create the table and preload `rows` rows in 2048-row transactions.
  void create_and_load(cat::Database& db, std::size_t rows, common::Rng& rng);

  [[nodiscard]] std::vector<rel::Value> random_row(common::Rng& rng) const;

  /// Row index selector: uniform, or Zipf(theta) over a fixed rank space.
  struct Pick {
    double zipf_theta = 0.0;  // 0 = uniform
    std::uint64_t zipf_n = 0;
  };

  /// Queue `ops` updates on txn (⅓ insert, ⅓ modify, ⅓ delete; no row is
  /// touched twice), timing only the engine calls into `engine_ns`.
  /// Generator bookkeeping is staged until apply_staged().
  void queue_updates(cat::Transaction& txn, std::size_t ops, common::Rng& rng,
                     const Pick& pick, bool time_calls, std::uint64_t& engine_ns);
  /// Queue one insert (cross-writer traffic: the row is not tracked).
  void queue_untracked_insert(cat::Transaction& txn, common::Rng& rng, bool time_calls,
                              std::uint64_t& engine_ns) const;
  /// Fold the staged changes into the live set after a successful commit.
  void apply_staged();
  /// Drop the staged changes (the commit threw).
  void drop_staged();

 private:
  [[nodiscard]] std::size_t pick_index(common::Rng& rng, const Pick& pick) const;

  std::string name_;
  std::size_t groups_;
  std::vector<LiveRow> live_;
  std::vector<std::size_t> staged_deletes_;
  std::vector<std::pair<std::size_t, std::int64_t>> staged_modifies_;
  std::vector<LiveRow> staged_inserts_;
};

// ----------------------------------------------------------- run report --

/// Snapshot of the program's own work counters (CqManager::metrics() and
/// the per-CQ CqStats), taken only while the engine is quiescent.
struct Counters {
  std::int64_t delta_rows_scanned = 0;
  std::int64_t base_rows_scanned = 0;
  std::int64_t tuples_compared = 0;
  std::int64_t index_probes = 0;
  std::int64_t dra_invocations = 0;
  std::int64_t dra_terms = 0;
  std::int64_t dra_skipped = 0;
  std::int64_t trigger_checks = 0;
  std::int64_t triggers_fired = 0;
  std::uint64_t cq_executions = 0;
  std::uint64_t cq_exec_ns = 0;
  std::uint64_t rows_delivered = 0;

  static Counters read(const core::CqManager& manager);
  Counters& operator+=(const Counters& o);
  [[nodiscard]] Counters operator-(const Counters& o) const;
};

/// Per-kind traced durations (merged from every thread's recorder).
enum class Span : std::uint8_t {
  kTxnOps,         // insert/modify/erase calls of one transaction
  kCommit,         // Transaction::commit()
  kFirstCheck,     // commit() entry -> first trigger-decorator call
  kCommitTail,     // last sink return -> commit() return
  kDispatchSpread, // first sink call -> last sink return, one commit
  kTriggerCheck,   // one Trigger::should_fire
  kSink,           // one ResultSink::on_result
  kGc,             // one CqManager::collect_garbage / Database::garbage_collect
  kPoll,           // CqManager::poll
  kSync,           // Mediator::sync_report
  kPull,           // InformationSource::pull_deltas
  kRefresh,        // sync_report() entry -> poll() return
  kCount
};
[[nodiscard]] const char* span_name(Span s) noexcept;

/// What a measured slice has switched on.
///   kPlain  nothing: the end-to-end numbers come only from these slices;
///   kBench  the benchmark's own timers and decorators (per-layer timings);
///   kObs    the program's observability layer (obs::set_enabled), whose
///           dra_exec_us / pool_task_wait_us histograms only fill then.
/// Keeping kBench and kObs apart stops the program's much heavier tracing
/// from inflating the phase timings the decorators take.
enum class Mode : std::uint8_t { kPlain, kBench, kObs, kCount };

struct ModeTotals {
  std::uint64_t wall_ns = 0;
  Samples slice_rates;  // base-row changes per second, one per slice
  Counters counters;    // deltas accumulated over this mode's slices
};

/// Everything a workload measured; metrics are derived in one place.
struct RunStats {
  std::vector<double> setup_s;
  std::size_t drivers = 1;
  std::array<ModeTotals, static_cast<std::size_t>(Mode::kCount)> modes;

  [[nodiscard]] ModeTotals& mode(Mode m) { return modes[static_cast<std::size_t>(m)]; }
  [[nodiscard]] const ModeTotals& mode(Mode m) const {
    return modes[static_cast<std::size_t>(m)];
  }

  // kPlain slices
  Samples commit_us;
  Samples refresh_us;  // mediator refreshes; empty on eager workloads

  // kBench slices (filled by the workload's drivers)
  std::uint64_t bench_batches = 0;  // commits (eager) or refreshes (mediator)
  std::uint64_t gen_ns = 0;
  std::uint64_t net_bytes = 0;
  std::uint64_t net_messages = 0;
  std::uint64_t rows_applied = 0;
  std::uint64_t gc_rows = 0;
  std::uint64_t gc_calls = 0;

  // kObs slices
  double dra_exec_us_mean = 0.0;
  double pool_task_wait_us_mean = 0.0;

  // every measured slice
  std::uint64_t delta_bytes_peak = 0;
  double shard_skew = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double peak_rss_mb = 0.0;
  std::uint64_t net_bytes_all = 0;
  std::uint64_t updates_all = 0;
  bool oracle_ok = true;
  std::vector<std::string> notes;  // one JSON object per line, printed first
};

// ------------------------------------------------------------ slice driver --

struct SliceHooks {
  /// One closed-loop iteration of driver `worker` in a slice of `mode`.
  /// Returns the base-row changes it committed.
  std::function<std::uint64_t(std::size_t worker, Mode mode)> iterate;
  /// Optional: runs once the warm-up slice has ended, drivers parked.
  std::function<void()> after_warmup;
};

/// Runs `workers` closed-loop driver threads for opt.seconds of measured
/// time, after an unmeasured warm-up slice. Time is cut into slices; between
/// slices every driver is parked, so the engine is quiescent while the
/// slice's counters are read from `manager` and its instruments switched.
/// Untraced runs measure only kPlain slices; traced runs cycle kPlain,
/// kBench, kObs, which is how a traced run reports its own overhead.
void run_slices(const Options& opt, std::size_t workers, const core::CqManager& manager,
                RunStats& stats, const SliceHooks& hooks);

/// Worlds per run. Each is built from its own seed derived from the run
/// seed (setup_s is the median of their set-up times), measured for
/// seconds / kWorlds, and checked by the oracle, so no single input, heap
/// layout or thread placement decides the run's numbers.
inline constexpr int kWorlds = 5;

/// Measures one world: build it from `world.seed`, drive it for
/// `world.seconds`, check it, and fold the results into the stats.
/// `first` marks the world that prints the determinism snapshot.
using MeasureWorld = std::function<void(const Options& world, bool first, RunStats& stats)>;

/// Runs kWorlds worlds of one workload with `drivers` driver threads each.
[[nodiscard]] RunStats run_worlds(const Options& opt, std::size_t drivers,
                                  const MeasureWorld& measure);

/// Process VmHWM in MiB.
[[nodiscard]] double peak_rss_mb();

/// max / min Database::shard_commits over the shards holding `tables`.
[[nodiscard]] double shard_skew(const cat::Database& db, const std::vector<TableGen>& tables);

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The end-to-end metric set (tracing off); every workload reports all.
[[nodiscard]] std::vector<Metric> end_to_end_metrics(const RunStats& s);
/// The per-layer metric set (tracing on); every workload reports all.
[[nodiscard]] std::vector<Metric> per_layer_metrics(const RunStats& s,
                                                    const std::map<Span, FineHist>& spans);

/// The layer claim the traced run checks for `workload`, as a JSON line
/// with the measured shares and whether the predicted layer dominated.
[[nodiscard]] std::string layer_check(const std::string& workload, const RunStats& s,
                                      const std::map<Span, FineHist>& spans);

/// Snapshot of deterministic counters + digest for the replay check.
[[nodiscard]] std::string determinism_note(const std::string& workload,
                                           std::uint64_t iterations, const Counters& c,
                                           std::uint64_t digest, std::uint64_t extra_bytes);

// ------------------------------------------------------------ workloads --

RunStats run_fanout_complete(const Options& opt);
RunStats run_writers_disjoint(const Options& opt);
RunStats run_mediator_refresh(const Options& opt);

}  // namespace cqbench
