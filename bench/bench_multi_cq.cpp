// Parallel multi-CQ evaluation (engine scaling experiment): one eager
// CqManager carrying 64 standing queries over a hot table, driven commit
// by commit. Arg(0) is the evaluation lane count — the same workload at
// --threads 1 is the inline (no pool) baseline the determinism contract pins,
// and the 2/4-lane rows show the commit-to-notify speedup the dispatcher
// buys by snapshotting each relation's delta once and fanning the
// trigger-eligible CQs across the pool.
//
// Two companion rows bound the observability layer itself:
//   * BM_MultiCqTracedCommit runs the 4-lane workload with span tracing
//     AND lock-contention profiling on, timing every commit into the
//     multi_cq_traced_commit_us histogram — run with --trace-json to get
//     the Perfetto view of the commits it produced;
//   * BM_MultiCqObsOffCommit runs it with observability forced off,
//     timing every commit into multi_cq_off_commit_us — the committed
//     baseline for this histogram is the "disabled is free" guard CI
//     enforces with a tight threshold (see bench/baselines/multi_cq.json
//     _thresholds).
//
// BM_CompleteResultSize is the per-execution scaling row: one complete-mode
// CQ whose result holds 10^3, 10^4 or 10^5 rows, driven by commits of a
// fixed |Δ| = 8 updates. Its cq_exec_us counter (mean execution time over
// the timed commits) should stay flat across the sizes, because the saved
// result is patched in place and delivered without a copy (Section 4.2:
// an execution costs O(|Δ|), not O(|Q|)).
//
// BM_AggregateGroups is its aggregate twin: one GROUP BY grp SUM/COUNT CQ
// over a 20k-row table whose rows fall into 64, 512 or 4096 groups, under
// the same fixed |Δ| = 8 commits. The CQ patches the touched groups'
// rows of its delivered aggregate payload instead of rebuilding every
// group, so cq_exec_us and rows_assembled (payload rows built or patched
// per execution) should stay flat across the group counts.
//
// CI runs this binary under scripts/check_bench.py --strict (the
// bench-check job): the committed baseline encodes the expected >= 2x
// ratio between the 1-lane and 4-lane rows via the derived counters.
#include <benchmark/benchmark.h>

#include <memory>

#include "bench_support.hpp"
#include "common/lock_profile.hpp"
#include "common/rng.hpp"
#include "cq/manager.hpp"
#include "query/parser.hpp"
#include "workload/sweep.hpp"

namespace cq::bench {
namespace {

constexpr std::size_t kRows = 20000;
constexpr std::size_t kCqs = 64;
constexpr std::size_t kRounds = 12;
constexpr std::size_t kUpdatesPerRound = 96;
constexpr std::size_t kUpdatesPerCommit = 8;
constexpr std::size_t kCommits = kRounds * (kUpdatesPerRound / kUpdatesPerCommit);

/// The shared workload: a hot table, 64 overlapping standing queries, an
/// eager manager at the requested lane count. The table keeps a reference
/// to the generator for every later update, so the workload owns it.
struct MultiCqWorkload {
  explicit MultiCqWorkload(std::size_t threads) : rng(0x64c0 ^ threads) {}
  common::Rng rng;
  cat::Database db;
  std::unique_ptr<wl::SweepTable> table;
  std::unique_ptr<core::CqManager> manager;
};

std::unique_ptr<MultiCqWorkload> make_workload(std::size_t threads) {
  auto w = std::make_unique<MultiCqWorkload>(threads);
  w->table = std::make_unique<wl::SweepTable>(w->db, "S", kRows, 64, w->rng);
  w->manager = std::make_unique<core::CqManager>(w->db);
  for (std::size_t i = 0; i < kCqs; ++i) {
    // Overlapping 4%-wide key bands: every commit is relevant to every
    // CQ, so each commit fans all 64 evaluations across the lanes.
    const std::int64_t lo = static_cast<std::int64_t>(i) * wl::kSweepKeySpace /
                            static_cast<std::int64_t>(kCqs);
    core::CqSpec spec;
    spec.name = "cq" + std::to_string(i);
    qry::SpjQuery q;
    q.from.push_back({"S", ""});
    q.where = alg::Expr::between(alg::Expr::col("key"), rel::Value(lo),
                                 rel::Value(lo + wl::kSweepKeySpace / 25));
    spec.query = std::move(q);
    spec.trigger = core::triggers::on_change();
    spec.mode = core::DeliveryMode::kComplete;
    w->manager->install(std::move(spec), nullptr);
  }
  w->manager->set_parallelism(threads);
  w->manager->set_eager(true);
  return w;
}

void attach_commit_counters(benchmark::State& state, std::size_t threads) {
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kCommits));
  state.counters["commits_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * static_cast<std::int64_t>(kCommits)),
      benchmark::Counter::kIsRate);
  state.counters["lanes"] = static_cast<double>(threads);
}

void BM_MultiCqCommitToNotify(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));

  for (auto _ : state) {
    state.PauseTiming();
    auto w = make_workload(threads);
    state.ResumeTiming();

    // Timed region: the commit IS the dispatch (eager mode), so this
    // measures commit-to-notify latency across all standing queries.
    for (std::size_t round = 0; round < kRounds; ++round) {
      w->table->update(kUpdatesPerRound, {}, kUpdatesPerCommit);
    }

    state.PauseTiming();
    export_metrics(state, w->manager->metrics());
    state.ResumeTiming();
  }

  attach_commit_counters(state, threads);
}

void multi_cq_args(benchmark::internal::Benchmark* b) {
  for (std::int64_t threads : {1, 2, 4}) b->Arg(threads);
  b->Unit(benchmark::kMillisecond)->Iterations(3);
}

BENCHMARK(BM_MultiCqCommitToNotify)->Apply(multi_cq_args);

/// Run the commit schedule one commit at a time, recording each commit's
/// wall time in microseconds into `commit_us`.
void run_timed_commits(wl::SweepTable& table, common::obs::Histogram& commit_us) {
  for (std::size_t commit = 0; commit < kCommits; ++commit) {
    const std::uint64_t t0 = common::obs::now_ns();
    table.update(kUpdatesPerCommit, {}, kUpdatesPerCommit);
    commit_us.record((common::obs::now_ns() - t0) / 1000);
  }
}

/// RAII save/force/restore for the two observability switches, so the
/// companion rows can pin their instrumentation state regardless of the
/// --stats-json / --trace-json flags.
struct ObsState {
  ObsState(bool obs_on, bool lockprof_on)
      : obs_was_(common::obs::enabled()),
        lockprof_was_(common::lockprof::enabled()) {
    common::obs::set_enabled(obs_on);
    common::lockprof::set_enabled(lockprof_on);
  }
  ~ObsState() {
    common::obs::set_enabled(obs_was_);
    common::lockprof::set_enabled(lockprof_was_);
  }
  bool obs_was_;
  bool lockprof_was_;
};

void BM_MultiCqTracedCommit(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  static common::obs::Histogram& commit_us =
      common::obs::global().histogram("multi_cq_traced_commit_us");

  for (auto _ : state) {
    state.PauseTiming();
    auto w = make_workload(threads);
    const ObsState obs(/*obs_on=*/true, /*lockprof_on=*/true);
    state.ResumeTiming();

    run_timed_commits(*w->table, commit_us);

    state.PauseTiming();
    export_metrics(state, w->manager->metrics());
    state.ResumeTiming();
  }

  attach_commit_counters(state, threads);
}

BENCHMARK(BM_MultiCqTracedCommit)->Arg(4)->Unit(benchmark::kMillisecond)->Iterations(3);

void BM_MultiCqObsOffCommit(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  static common::obs::Histogram& commit_us =
      common::obs::global().histogram("multi_cq_off_commit_us");

  for (auto _ : state) {
    state.PauseTiming();
    auto w = make_workload(threads);
    const ObsState obs(/*obs_on=*/false, /*lockprof_on=*/false);
    state.ResumeTiming();

    run_timed_commits(*w->table, commit_us);

    state.PauseTiming();
    export_metrics(state, w->manager->metrics());
    state.ResumeTiming();
  }

  attach_commit_counters(state, threads);
}

BENCHMARK(BM_MultiCqObsOffCommit)->Arg(4)->Unit(benchmark::kMillisecond)->Iterations(3);

/// Lineage companion rows: the same 4-lane workload with notification
/// provenance collection ON (multi_cq_lineage_commit_us — every commit
/// tags deltas, merges sets through the DRA, and retains per-CQ records)
/// and with it OFF (multi_cq_lineage_off_commit_us — the committed
/// baseline's tight threshold is the "lineage off is free" guard: the
/// per-tuple provenance pointer and the enabled() branch must not move
/// commit latency).
void BM_MultiCqLineageCommit(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  const bool lineage_on = state.range(1) != 0;
  static common::obs::Histogram& on_us =
      common::obs::global().histogram("multi_cq_lineage_commit_us");
  static common::obs::Histogram& off_us =
      common::obs::global().histogram("multi_cq_lineage_off_commit_us");

  for (auto _ : state) {
    state.PauseTiming();
    auto w = make_workload(threads);
    const ObsState obs(/*obs_on=*/false, /*lockprof_on=*/false);
    w->manager->set_lineage(lineage_on);
    state.ResumeTiming();

    run_timed_commits(*w->table, lineage_on ? on_us : off_us);

    state.PauseTiming();
    w->manager->set_lineage(false);
    export_metrics(state, w->manager->metrics());
    state.ResumeTiming();
  }

  attach_commit_counters(state, threads);
  state.counters["lineage"] = lineage_on ? 1.0 : 0.0;
}

BENCHMARK(BM_MultiCqLineageCommit)
    ->Args({4, 1})
    ->Args({4, 0})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

void BM_CompleteResultSize(benchmark::State& state) {
  constexpr std::size_t kSizeCommits = 32;
  const auto rows = static_cast<std::size_t>(state.range(0));
  const ObsState obs(/*obs_on=*/false, /*lockprof_on=*/false);
  common::Rng rng(0x51e ^ rows);
  cat::Database db;
  wl::SweepTable table(db, "S", rows, 64, rng);
  core::CqManager manager(db);
  core::CqSpec spec;
  spec.name = "all";
  spec.query = table.selection_query(1.0);  // the result is the whole table
  spec.trigger = core::triggers::on_change();
  spec.mode = core::DeliveryMode::kComplete;
  const core::CqHandle handle = manager.install(std::move(spec), nullptr);
  manager.set_eager(true);

  const core::CqStats before = manager.stats(handle);
  for (auto _ : state) {
    table.update(kSizeCommits * kUpdatesPerCommit, {}, kUpdatesPerCommit);
  }
  const core::CqStats after = manager.stats(handle);
  const auto executions = static_cast<double>(after.executions - before.executions);
  state.counters["result_rows"] = static_cast<double>(db.table("S").size());
  state.counters["cq_exec_us"] =
      static_cast<double>(after.total_exec_ns - before.total_exec_ns) / 1e3 / executions;
}

BENCHMARK(BM_CompleteResultSize)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

void BM_AggregateGroups(benchmark::State& state) {
  constexpr std::size_t kGroupCommits = 32;
  const auto groups = static_cast<std::size_t>(state.range(0));
  const ObsState obs(/*obs_on=*/false, /*lockprof_on=*/false);
  common::Rng rng(0xa66 ^ groups);
  cat::Database db;
  wl::SweepTable table(db, "S", kRows, groups, rng);
  core::CqManager manager(db);
  core::CqSpec spec;
  spec.name = "by_grp";
  spec.query =
      qry::parse_query("SELECT grp, SUM(key) AS total, COUNT(*) AS n FROM S GROUP BY grp");
  spec.trigger = core::triggers::on_change();
  const core::CqHandle handle = manager.install(std::move(spec), nullptr);
  manager.set_eager(true);

  const core::CqStats before = manager.stats(handle);
  const std::int64_t assembled_before =
      manager.metrics().get(common::metric::kRowsAssembled);
  for (auto _ : state) {
    table.update(kGroupCommits * kUpdatesPerCommit, {}, kUpdatesPerCommit);
  }
  const core::CqStats after = manager.stats(handle);
  const auto executions = static_cast<double>(after.executions - before.executions);
  state.counters["groups"] = static_cast<double>(groups);
  state.counters["cq_exec_us"] =
      static_cast<double>(after.total_exec_ns - before.total_exec_ns) / 1e3 / executions;
  state.counters["rows_assembled"] =
      static_cast<double>(manager.metrics().get(common::metric::kRowsAssembled) -
                          assembled_before) /
      executions;
}

BENCHMARK(BM_AggregateGroups)
    ->Arg(64)
    ->Arg(512)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

}  // namespace
}  // namespace cq::bench

CQ_BENCH_MAIN()
