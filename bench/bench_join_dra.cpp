// Experiment E3 (DESIGN.md): multi-relation SPJ continual queries —
// Algorithm 1's truth-table expansion. Series: number of join relations
// (2, 3) x number of *changed* relations k (1..n), DRA vs recompute.
// The DRA evaluates 2^k − 1 differential terms; recompute pays the full
// join each time. Also a k = 2 row whose deltas mix inserts, deletes and
// modifications.
#include "bench_support.hpp"

namespace cq::bench {
namespace {

constexpr std::size_t kRows = 4000;
constexpr std::size_t kUpdates = 150;

void BM_DraJoin(benchmark::State& state) {
  const auto n_tables = static_cast<std::size_t>(state.range(0));
  const auto changed = static_cast<std::size_t>(state.range(1));
  const JoinScenario& s = join_scenario(n_tables, kRows, kUpdates, changed);
  common::Metrics metrics;
  core::DraStats stats;
  for (auto _ : state) {
    const core::DiffResult d =
        core::dra_differential(s.query, s.db, s.t0, &metrics, &stats);
    benchmark::DoNotOptimize(&d);
  }
  export_metrics(state, metrics);
  state.counters["terms"] = static_cast<double>(stats.terms_evaluated);
  state.counters["changed_k"] = static_cast<double>(stats.changed_relations);
}

void BM_RecomputeJoin(benchmark::State& state) {
  const auto n_tables = static_cast<std::size_t>(state.range(0));
  const auto changed = static_cast<std::size_t>(state.range(1));
  const JoinScenario& s = join_scenario(n_tables, kRows, kUpdates, changed);
  common::Metrics metrics;
  for (auto _ : state) {
    const core::DiffResult d = core::propagate(s.query, s.db, s.before, &metrics);
    benchmark::DoNotOptimize(&d);
  }
  export_metrics(state, metrics);
}

void join_args(benchmark::internal::Benchmark* b) {
  b->Args({2, 1})->Args({2, 2})->Args({3, 1})->Args({3, 2})->Args({3, 3});
  b->Unit(benchmark::kMicrosecond);
}

// Every row runs a fixed iteration count: the registry counters in
// --stats-json sum over every iteration, so they stay a function of the
// code, not of host speed.
BENCHMARK(BM_DraJoin)->Apply(join_args)->Iterations(20);
BENCHMARK(BM_RecomputeJoin)->Apply(join_args)->Iterations(3);

/// Persistent-index extension: with a maintained index on the join column,
/// unchanged-side inputs are *probed* rather than scanned, so the DRA's
/// join terms become sublinear in base size. Sweep N with/without indexes.
void BM_DraJoinIndexed(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  const JoinScenario& s = join_scenario(2, rows, kUpdates, 1, 0.2, /*indexes=*/true);
  common::Metrics metrics;
  core::DraStats stats;
  for (auto _ : state) {
    const core::DiffResult d =
        core::dra_differential(s.query, s.db, s.t0, &metrics, &stats);
    benchmark::DoNotOptimize(&d);
  }
  export_metrics(state, metrics);
  state.counters["index_probes"] = static_cast<double>(stats.index_probes);
}

void BM_DraJoinScan(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  const JoinScenario& s = join_scenario(2, rows, kUpdates, 1, 0.2, /*indexes=*/false);
  common::Metrics metrics;
  for (auto _ : state) {
    const core::DiffResult d = core::dra_differential(s.query, s.db, s.t0, &metrics);
    benchmark::DoNotOptimize(&d);
  }
  export_metrics(state, metrics);
}

void base_size_args(benchmark::internal::Benchmark* b) {
  for (std::int64_t n : {4000, 20000, 100000}) b->Arg(n);
  b->Unit(benchmark::kMicrosecond);
}

BENCHMARK(BM_DraJoinIndexed)->Apply(base_size_args)->Iterations(100);
BENCHMARK(BM_DraJoinScan)->Apply(base_size_args)->Iterations(10);

/// Index-probed join terms cost per *surviving* row: at fixed |Δ| (T0's
/// updates, no filter on it) and fixed fan-out (~32 T1 rows per group),
/// only the probed side's filter varies (arg = % of T1 it keeps). The
/// filter runs on each matched base row before a joined row is built, so
/// time falls with selectivity while tuples_compared (every index match)
/// stays flat.
void BM_DraJoinIndexedSelective(benchmark::State& state) {
  const double keep = static_cast<double>(state.range(0)) / 100.0;
  const JoinScenario& s = join_scenario(2, 20000, kUpdates, 1, 1.0, /*indexes=*/true);
  qry::SpjQuery query;
  query.from = {{s.tables[0]->name(), "j0"}, {s.tables[1]->name(), "j1"}};
  query.where = alg::Expr::logical_and(
      alg::Expr::cmp(alg::CmpOp::kEq, alg::Expr::col("j0.grp"), alg::Expr::col("j1.grp")),
      s.tables[1]->selection(keep, "j1"));
  common::Metrics metrics;
  core::DraStats stats;
  std::size_t result_rows = 0;
  for (auto _ : state) {
    const core::DiffResult d =
        core::dra_differential(query, s.db, s.t0, &metrics, &stats);
    result_rows = d.inserted.size() + d.deleted.size();
    benchmark::DoNotOptimize(&d);
  }
  export_metrics(state, metrics);
  state.counters["index_probes"] = static_cast<double>(stats.index_probes);
  state.counters["tuples_compared"] = benchmark::Counter(
      static_cast<double>(metrics.get(common::metric::kTuplesCompared)),
      benchmark::Counter::kAvgIterations);
  state.counters["result_rows"] = static_cast<double>(result_rows);
}

BENCHMARK(BM_DraJoinIndexedSelective)->Arg(100)->Arg(10)->Arg(1)
    ->Unit(benchmark::kMicrosecond)->Iterations(10);

/// Both sides of an unindexed 2-way join changed (k = 2), each delta
/// holding inserts, deletes and modifications (arg = updates per table).
/// Every term joins weighted relations in one pass: a signed delta against
/// the other side's current base or its signed delta, probing each input
/// once whatever its mix of insertions and deletions.
void BM_DraJoinMixedDeltas(benchmark::State& state) {
  const auto updates = static_cast<std::size_t>(state.range(0));
  const JoinScenario& s = join_scenario(2, kRows, updates, 2);
  common::Metrics metrics;
  core::DraStats stats;
  std::size_t result_rows = 0;
  for (auto _ : state) {
    const core::DiffResult d =
        core::dra_differential(s.query, s.db, s.t0, &metrics, &stats);
    result_rows = d.size();
    benchmark::DoNotOptimize(&d);
  }
  export_metrics(state, metrics);
  state.counters["terms"] = static_cast<double>(stats.terms_evaluated);
  state.counters["tuples_compared"] = benchmark::Counter(
      static_cast<double>(metrics.get(common::metric::kTuplesCompared)),
      benchmark::Counter::kAvgIterations);
  state.counters["result_rows"] = static_cast<double>(result_rows);
}

BENCHMARK(BM_DraJoinMixedDeltas)->Arg(150)->Arg(1000)->Unit(benchmark::kMicrosecond)
    ->Iterations(10);

}  // namespace
}  // namespace cq::bench

CQ_BENCH_MAIN()
