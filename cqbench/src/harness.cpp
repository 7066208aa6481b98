#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "common/observability.hpp"
#include "tracing.hpp"

namespace cqbench {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

std::size_t scaled(const Options& opt, std::size_t rows) {
  return std::max<std::size_t>(64, static_cast<std::size_t>(static_cast<double>(rows) *
                                                            opt.scale));
}

// ------------------------------------------------------------- statistics --

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const double pos = q * static_cast<double>(values_.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values_[lo] + (values_[hi] - values_[lo]) * frac;
}

void Samples::add(double v) {
  ++seen_;
  if (values_.size() < kCap) {
    values_.push_back(v);
    sorted_ = false;
    return;
  }
  // splitmix64 step; keep v with probability kCap / seen_ (Algorithm R).
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  const std::uint64_t slot = (z ^ (z >> 31)) % seen_;
  if (slot < kCap) {
    values_[slot] = v;
    sorted_ = false;
  }
}

namespace {
const double kLogBase = std::log(1.02);
}

void FineHist::record_ns(std::uint64_t ns) {
  const auto idx =
      ns <= 1 ? 0u : static_cast<std::uint32_t>(std::log(static_cast<double>(ns)) / kLogBase);
  if (idx >= buckets_.size()) buckets_.resize(idx + 1, 0);
  ++buckets_[idx];
  ++count_;
  sum_ns_ += ns;
}

void FineHist::merge(const FineHist& other) {
  if (other.buckets_.size() > buckets_.size()) buckets_.resize(other.buckets_.size(), 0);
  for (std::size_t i = 0; i < other.buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ns_ += other.sum_ns_;
}

double FineHist::quantile_us(double q) const {
  if (count_ == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(count_ - 1));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen > rank) return std::exp((static_cast<double>(i) + 0.5) * kLogBase) / 1e3;
  }
  return 0.0;
}

// ------------------------------------------------------------ slice driver --

void run_slices(const Options& opt, std::size_t workers, const core::CqManager& manager,
                RunStats& stats, const SliceHooks& hooks) {
  constexpr double kSliceSeconds = 0.5;
  // A traced run cycles plain / bench / obs, so it measures whole cycles.
  const std::size_t cycle = opt.trace ? 3 : 1;
  std::size_t measured = std::max<std::size_t>(
      cycle, static_cast<std::size_t>(std::lround(opt.seconds / kSliceSeconds)));
  measured = (measured + cycle - 1) / cycle * cycle;
  const auto slice_len = std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(opt.seconds / static_cast<double>(measured)));
  const auto warmup_len = std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(std::min(kSliceSeconds, opt.seconds / 4)));

  std::mutex mu;
  std::condition_variable cv;
  std::uint64_t epoch = 0;
  bool stop = false;
  Mode current = Mode::kPlain;
  std::size_t parked = workers;
  std::uint64_t slice_updates = 0;
  std::exception_ptr error;
  std::atomic<bool> running{false};

  auto drive = [&](std::size_t worker) {
    std::uint64_t seen = 0;
    for (;;) {
      Mode mode = Mode::kPlain;
      {
        std::unique_lock lock(mu);
        cv.wait(lock, [&] { return stop || epoch != seen; });
        if (stop) return;
        seen = epoch;
        mode = current;
      }
      std::uint64_t updates = 0;
      try {
        while (running.load(std::memory_order_acquire)) updates += hooks.iterate(worker, mode);
      } catch (...) {
        std::lock_guard lock(mu);
        if (!error) error = std::current_exception();
        running.store(false, std::memory_order_release);
      }
      {
        std::lock_guard lock(mu);
        slice_updates += updates;
        ++parked;
      }
      cv.notify_all();
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) threads.emplace_back(drive, w);

  // One slice: release the drivers, sleep, park them; {wall ns, updates}.
  auto run_one = [&](Mode mode, std::chrono::steady_clock::duration len) {
    const std::uint64_t t0 = now_ns();
    {
      std::lock_guard lock(mu);
      parked = 0;
      current = mode;
      slice_updates = 0;
      running.store(true, std::memory_order_release);
      ++epoch;
    }
    cv.notify_all();
    std::this_thread::sleep_for(len);
    running.store(false, std::memory_order_release);
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return parked == workers; });
    return std::pair{now_ns() - t0, slice_updates};
  };
  auto failed = [&] {
    std::lock_guard lock(mu);
    return error != nullptr;
  };

  (void)run_one(Mode::kPlain, warmup_len);
  if (hooks.after_warmup && !failed()) hooks.after_warmup();
  for (std::size_t i = 0; i < measured && !failed(); ++i) {
    const Mode mode = static_cast<Mode>(i % cycle);
    const Counters before = mode == Mode::kPlain ? Counters{} : Counters::read(manager);
    if (mode == Mode::kBench) tracer::set_on(true);
    if (mode == Mode::kObs) common::obs::set_enabled(true);
    const auto [wall, updates] = run_one(mode, slice_len);
    tracer::set_on(false);
    common::obs::set_enabled(false);
    ModeTotals& totals = stats.mode(mode);
    totals.wall_ns += wall;
    if (mode != Mode::kPlain) totals.counters += Counters::read(manager) - before;
    totals.slice_rates.add(static_cast<double>(updates) / (static_cast<double>(wall) / 1e9));
    stats.updates_all += updates;
  }
  {
    std::lock_guard lock(mu);
    stop = true;
  }
  cv.notify_all();
  for (auto& t : threads) t.join();
  if (error) std::rethrow_exception(error);

  const auto& dra = common::obs::global().histogram(common::obs::hist::kDraExecUs);
  const auto& wait = common::obs::global().histogram(common::obs::hist::kPoolTaskWaitUs);
  stats.dra_exec_us_mean = dra.mean();
  stats.pool_task_wait_us_mean = wait.mean();
}

RunStats run_worlds(const Options& opt, std::size_t drivers, const MeasureWorld& measure) {
  RunStats stats;
  stats.drivers = drivers;
  Options world = opt;
  world.seconds = opt.seconds / kWorlds;
  for (int i = 0; i < kWorlds; ++i) {
    // splitmix64 of (run seed, world index): every world gets its own data,
    // and the same run seed replays all of them.
    std::uint64_t z = opt.seed + 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(i + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    world.seed = z ^ (z >> 31);
    measure(world, i == 0, stats);
  }
  return stats;
}

// ---------------------------------------------------------------- rows --

namespace {

LiveRow live_row_of(const std::vector<rel::Value>& values) {
  return {rel::TupleId(), values[0].as_int(), values[1].as_int(), values[2].as_string()};
}

}  // namespace

void TableGen::create_and_load(cat::Database& db, std::size_t rows, common::Rng& rng) {
  db.create_table(name_, rel::Schema::of({{"key", rel::ValueType::kInt},
                                          {"grp", rel::ValueType::kInt},
                                          {"payload", rel::ValueType::kString}}));
  live_.clear();
  live_.reserve(rows);
  std::size_t loaded = 0;
  while (loaded < rows) {
    auto txn = db.begin();
    const std::size_t batch = std::min<std::size_t>(rows - loaded, 2048);
    std::vector<LiveRow> pending;
    pending.reserve(batch);
    for (std::size_t i = 0; i < batch; ++i) {
      std::vector<rel::Value> values = random_row(rng);
      LiveRow row = live_row_of(values);
      row.tid = txn.insert(name_, std::move(values));
      pending.push_back(std::move(row));
    }
    txn.commit();
    for (auto& row : pending) live_.push_back(std::move(row));
    loaded += batch;
  }
}

std::vector<rel::Value> TableGen::random_row(common::Rng& rng) const {
  return {rel::Value(rng.uniform_int(0, kKeySpace - 1)),
          rel::Value(rng.uniform_int(0, static_cast<std::int64_t>(groups_) - 1)),
          rel::Value(rng.string(kPayloadWidth))};
}

std::size_t TableGen::pick_index(common::Rng& rng, const Pick& pick) const {
  if (pick.zipf_theta > 0.0) {
    return static_cast<std::size_t>(rng.zipf(pick.zipf_n, pick.zipf_theta) % live_.size());
  }
  return rng.index(live_.size());
}

void TableGen::queue_updates(cat::Transaction& txn, std::size_t ops, common::Rng& rng,
                             const Pick& pick, bool time_calls, std::uint64_t& engine_ns) {
  std::vector<std::size_t> touched;
  touched.reserve(ops);
  auto pick_untouched = [&](std::size_t& out) {
    for (int attempt = 0; attempt < 32; ++attempt) {
      const std::size_t idx = pick_index(rng, pick);
      if (std::find(touched.begin(), touched.end(), idx) == touched.end()) {
        out = idx;
        touched.push_back(idx);
        return true;
      }
    }
    return false;
  };
  auto timed = [&](auto&& call) {
    if (!time_calls) return call();
    const std::uint64_t t0 = now_ns();
    auto result = call();
    engine_ns += now_ns() - t0;
    return result;
  };

  for (std::size_t i = 0; i < ops; ++i) {
    const double roll = rng.uniform01();
    std::size_t idx = 0;
    if (roll < 1.0 / 3 && live_.size() > ops && pick_untouched(idx)) {
      timed([&] {
        txn.erase(name_, live_[idx].tid);
        return 0;
      });
      staged_deletes_.push_back(idx);
    } else if (roll < 2.0 / 3 && live_.size() > ops && pick_untouched(idx)) {
      const LiveRow& row = live_[idx];
      const std::int64_t key = rng.uniform_int(0, kKeySpace - 1);
      std::vector<rel::Value> values{rel::Value(key), rel::Value(row.grp),
                                     rel::Value(row.payload)};
      timed([&] {
        txn.modify(name_, row.tid, std::move(values));
        return 0;
      });
      staged_modifies_.emplace_back(idx, key);
    } else {
      std::vector<rel::Value> values = random_row(rng);
      LiveRow row = live_row_of(values);
      row.tid = timed([&] { return txn.insert(name_, std::move(values)); });
      staged_inserts_.push_back(std::move(row));
    }
  }
}

void TableGen::queue_untracked_insert(cat::Transaction& txn, common::Rng& rng,
                                      bool time_calls, std::uint64_t& engine_ns) const {
  std::vector<rel::Value> values = random_row(rng);
  const std::uint64_t t0 = time_calls ? now_ns() : 0;
  (void)txn.insert(name_, std::move(values));
  if (time_calls) engine_ns += now_ns() - t0;
}

void TableGen::apply_staged() {
  for (const auto& [idx, key] : staged_modifies_) live_[idx].key = key;
  std::sort(staged_deletes_.begin(), staged_deletes_.end(), std::greater<>());
  for (const std::size_t idx : staged_deletes_) {
    live_[idx] = std::move(live_.back());
    live_.pop_back();
  }
  for (auto& row : staged_inserts_) live_.push_back(std::move(row));
  drop_staged();
}

void TableGen::drop_staged() {
  staged_deletes_.clear();
  staged_modifies_.clear();
  staged_inserts_.clear();
}

// ----------------------------------------------------------- run report --

Counters Counters::read(const core::CqManager& manager) {
  using common::metric::Id;
  const common::Metrics& m = manager.metrics();
  Counters c;
  c.delta_rows_scanned = m.get(Id::kDeltaRowsScanned);
  c.base_rows_scanned = m.get(Id::kBaseRowsScanned);
  c.tuples_compared = m.get(Id::kTuplesCompared);
  c.index_probes = m.get(Id::kIndexProbes);
  c.dra_invocations = m.get(Id::kDraInvocations);
  c.dra_terms = m.get(Id::kDraTermsEvaluated);
  c.dra_skipped = m.get(Id::kDraSkippedIrrelevant);
  c.trigger_checks = m.get(Id::kTriggerChecks);
  c.triggers_fired = m.get(Id::kTriggersFired);
  for (const auto& [name, s] : manager.cq_stats()) {
    c.cq_executions += s.executions;
    c.cq_exec_ns += s.total_exec_ns;
    c.rows_delivered += s.rows_delivered;
  }
  return c;
}

Counters& Counters::operator+=(const Counters& o) {
  delta_rows_scanned += o.delta_rows_scanned;
  base_rows_scanned += o.base_rows_scanned;
  tuples_compared += o.tuples_compared;
  index_probes += o.index_probes;
  dra_invocations += o.dra_invocations;
  dra_terms += o.dra_terms;
  dra_skipped += o.dra_skipped;
  trigger_checks += o.trigger_checks;
  triggers_fired += o.triggers_fired;
  cq_executions += o.cq_executions;
  cq_exec_ns += o.cq_exec_ns;
  rows_delivered += o.rows_delivered;
  return *this;
}

Counters Counters::operator-(const Counters& o) const {
  Counters d = *this;
  d.delta_rows_scanned -= o.delta_rows_scanned;
  d.base_rows_scanned -= o.base_rows_scanned;
  d.tuples_compared -= o.tuples_compared;
  d.index_probes -= o.index_probes;
  d.dra_invocations -= o.dra_invocations;
  d.dra_terms -= o.dra_terms;
  d.dra_skipped -= o.dra_skipped;
  d.trigger_checks -= o.trigger_checks;
  d.triggers_fired -= o.triggers_fired;
  d.cq_executions -= o.cq_executions;
  d.cq_exec_ns -= o.cq_exec_ns;
  d.rows_delivered -= o.rows_delivered;
  return d;
}

const char* span_name(Span s) noexcept {
  switch (s) {
    case Span::kTxnOps: return "txn_ops";
    case Span::kCommit: return "commit";
    case Span::kFirstCheck: return "commit_to_first_check";
    case Span::kCommitTail: return "commit_tail";
    case Span::kDispatchSpread: return "dispatch_spread";
    case Span::kTriggerCheck: return "trigger_check";
    case Span::kSink: return "sink";
    case Span::kGc: return "gc";
    case Span::kPoll: return "poll";
    case Span::kSync: return "sync";
    case Span::kPull: return "pull";
    case Span::kRefresh: return "refresh";
    case Span::kCount: break;
  }
  return "?";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

double shard_skew(const cat::Database& db, const std::vector<TableGen>& tables) {
  std::set<std::size_t> occupied;
  for (const auto& t : tables) occupied.insert(cat::Database::shard_of(t.name()));
  std::uint64_t lo = ~std::uint64_t{0};
  std::uint64_t hi = 0;
  for (const std::size_t s : occupied) {
    lo = std::min(lo, db.shard_commits(s));
    hi = std::max(hi, db.shard_commits(s));
  }
  return lo == 0 ? 0.0 : static_cast<double>(hi) / static_cast<double>(lo);
}

namespace {

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

template <typename T>
double d(T v) {
  return static_cast<double>(v);
}

double p50(const std::map<Span, FineHist>& spans, Span s) {
  auto it = spans.find(s);
  return it == spans.end() ? 0.0 : it->second.quantile_us(0.5);
}

}  // namespace

std::vector<Metric> end_to_end_metrics(const RunStats& s) {
  // Eager workloads deliver every notification inside commit(): their
  // refresh (update batch -> last notification) is the commit itself.
  const Samples& refresh = s.refresh_us.size() > 0 ? s.refresh_us : s.commit_us;
  Samples setup;
  for (const double v : s.setup_s) setup.add(v);
  const ModeTotals& plain = s.mode(Mode::kPlain);
  return {
      {"updates_per_s", plain.slice_rates.quantile(0.5), "rows/s"},
      {"commit_p50_us", s.commit_us.quantile(0.5), "us"},
      {"refresh_p50_us", refresh.quantile(0.5), "us"},
      {"setup_s", setup.quantile(0.5), "s"},
      {"peak_rss_mb", s.peak_rss_mb, "MiB"},
  };
}

std::vector<Metric> per_layer_metrics(const RunStats& s, const std::map<Span, FineHist>& spans) {
  const ModeTotals& plain = s.mode(Mode::kPlain);
  const ModeTotals& bench = s.mode(Mode::kBench);
  const ModeTotals& obs = s.mode(Mode::kObs);
  const Counters& c = bench.counters;
  const double execs = d(c.cq_executions);
  const double dra = d(c.dra_invocations);
  const double plain_rate = plain.slice_rates.quantile(0.5);
  const double batches = d(s.bench_batches);
  // Both sides of the assembly gap come from the kObs slices, where the
  // program's dra_exec_us histogram is recording.
  const double execute_obs_us =
      ratio(d(obs.counters.cq_exec_ns) / 1e3, d(obs.counters.cq_executions));
  const Samples& refresh = s.refresh_us.size() > 0 ? s.refresh_us : s.commit_us;
  return {
      {"catalog.txn_ops_us", p50(spans, Span::kTxnOps), "us"},
      {"catalog.commit_to_first_check_us", p50(spans, Span::kFirstCheck), "us"},
      {"catalog.commit_tail_us", p50(spans, Span::kCommitTail), "us"},
      {"catalog.commit_us", p50(spans, Span::kCommit), "us"},
      {"catalog.shard_skew", s.shard_skew, "ratio"},
      {"delta.rows_read_per_exec", ratio(d(c.delta_rows_scanned), execs), "rows"},
      {"delta.bytes_peak", d(s.delta_bytes_peak), "B"},
      {"delta.gc_us", p50(spans, Span::kGc), "us"},
      {"delta.gc_rows_reclaimed", ratio(d(s.gc_rows), d(s.gc_calls)), "rows"},
      {"cq.trigger_check_us", p50(spans, Span::kTriggerCheck), "us"},
      {"cq.trigger_checks", ratio(d(c.trigger_checks), batches), "count"},
      {"cq.fire_ratio", ratio(d(c.triggers_fired), d(c.trigger_checks)), "ratio"},
      {"cq.execute_us", ratio(d(c.cq_exec_ns) / 1e3, execs), "us"},
      {"cq.assembly_gap_us", execute_obs_us - s.dra_exec_us_mean, "us"},
      {"cq.dispatch_spread_us", p50(spans, Span::kDispatchSpread), "us"},
      {"cq.rows_per_notification", ratio(d(c.rows_delivered), execs), "rows"},
      {"cq.poll_us", p50(spans, Span::kPoll), "us"},
      {"dra.exec_us", s.dra_exec_us_mean, "us"},
      {"dra.terms_per_exec", ratio(d(c.dra_terms), dra), "count"},
      {"dra.skipped_irrelevant", ratio(d(c.dra_skipped), dra), "count"},
      {"dra.index_probes", ratio(d(c.index_probes), dra), "count"},
      {"algebra.base_rows_scanned", ratio(d(c.base_rows_scanned), dra), "rows"},
      {"algebra.tuples_compared", ratio(d(c.tuples_compared), dra), "count"},
      {"pool.task_wait_us", s.pool_task_wait_us_mean, "us"},
      {"diom.sync_us", p50(spans, Span::kSync), "us"},
      {"diom.pull_us", p50(spans, Span::kPull), "us"},
      {"diom.bytes_per_refresh", ratio(d(s.net_bytes), batches), "B"},
      {"diom.messages_per_refresh", ratio(d(s.net_messages), batches), "count"},
      {"diom.rows_applied_per_refresh", ratio(d(s.rows_applied), batches), "rows"},
      {"sink.on_result_us", p50(spans, Span::kSink), "us"},
      {"gen.share_pct", 100.0 * ratio(d(s.gen_ns), d(s.drivers) * d(bench.wall_ns)), "%"},
      {"trace_overhead_pct",
       100.0 * ratio(plain_rate - bench.slice_rates.quantile(0.5), plain_rate), "%"},
      {"net_bytes_per_update", ratio(d(s.net_bytes_all), d(s.updates_all)), "B"},
      {"failed_op_ratio", ratio(d(s.failed), d(s.attempted)), "ratio"},
      {"commit_p99_us", s.commit_us.quantile(0.99), "us"},
      {"refresh_p99_us", refresh.quantile(0.99), "us"},
  };
}

std::string layer_check(const std::string& workload, const RunStats& s,
                        const std::map<Span, FineHist>& spans) {
  bool holds = false;
  std::ostringstream out;
  out << "{\"layer_check\": {\"workload\": \"" << workload << "\", ";
  const double commit = p50(spans, Span::kCommit);
  const double first_check = p50(spans, Span::kFirstCheck);
  const double tail = p50(spans, Span::kCommitTail);
  if (workload == "fanout_complete") {
    // At more than one lane the tail after the last sink call also frees
    // the whole dispatch's notification payloads (a CQ-layer cost), so
    // the catalog is judged on the phases before the first trigger check.
    const ModeTotals& obs = s.mode(Mode::kObs);
    const double gap = ratio(d(obs.counters.cq_exec_ns) / 1e3, d(obs.counters.cq_executions)) -
                       s.dra_exec_us_mean;
    const double share = ratio(first_check, commit);
    holds = gap > s.dra_exec_us_mean && share < 0.05;
    out << "\"claim\": \"assembly+delivery exceed the DRA and the catalog is under 5% of "
           "commit_us\", \"assembly_gap_us\": "
        << gap << ", \"dra_exec_us\": " << s.dra_exec_us_mean
        << ", \"catalog_share\": " << share << ", \"tail_share\": " << ratio(tail, commit);
  } else if (workload == "writers_disjoint") {
    const Counters& c = s.mode(Mode::kBench).counters;
    const double share = ratio(first_check + tail, commit);
    const double cq_share =
        ratio(d(c.cq_exec_ns) / 1e3, d(s.bench_batches)) / (commit == 0.0 ? 1.0 : commit);
    holds = share > 0.5;
    out << "\"claim\": \"catalog phases are more than half of commit_us\", "
           "\"catalog_share\": "
        << share << ", \"cq_execute_share\": " << cq_share;
  } else {
    // dra_exec_us records in kObs slices, the refresh span in kBench ones:
    // compare per-refresh means.
    const auto refreshes = spans.find(Span::kRefresh);
    const auto syncs = spans.find(Span::kSync);
    const double refresh_us = refreshes == spans.end() ? 0.0 : refreshes->second.mean_us();
    const double sync_us = syncs == spans.end() ? 0.0 : syncs->second.mean_us();
    const ModeTotals& bench = s.mode(Mode::kBench);
    const double dra_per_refresh =
        s.dra_exec_us_mean * ratio(d(bench.counters.dra_invocations), d(s.bench_batches));
    const double share = ratio(dra_per_refresh + sync_us, refresh_us);
    holds = share > 0.5;
    out << "\"claim\": \"dra.exec_us + diom.sync_us are the bulk of the refresh\", "
           "\"share\": "
        << share;
  }
  out << ", \"holds\": " << (holds ? "true" : "false") << "}}";
  return out.str();
}

std::string determinism_note(const std::string& workload, std::uint64_t iterations,
                             const Counters& c, std::uint64_t digest,
                             std::uint64_t extra_bytes) {
  char hex[32];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(digest));
  std::ostringstream out;
  out << "{\"determinism\": {\"workload\": \"" << workload << "\", \"iterations\": "
      << iterations << ", \"delta_rows_scanned\": " << c.delta_rows_scanned
      << ", \"base_rows_scanned\": " << c.base_rows_scanned
      << ", \"executions\": " << c.cq_executions << ", \"dra_terms\": " << c.dra_terms
      << ", \"trigger_fired\": " << c.triggers_fired
      << ", \"rows_delivered\": " << c.rows_delivered
      << ", \"bytes_shipped\": " << extra_bytes << ", \"digest\": \"" << hex << "\"}}";
  return out.str();
}

}  // namespace cqbench
