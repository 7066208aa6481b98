// End-to-end system throughput (summary experiment; not tied to a single
// paper claim): K continual queries over one hot table, driven by rounds
// of updates + evaluation + GC. Compares a CQ manager running the DRA
// against the Propagate baseline — per query, a full recompute and a Diff
// against the previous result — at the whole-system level, and shows how
// cost scales with the number of standing queries: the monitoring-scale
// scenario the paper's Internet motivation implies.
#include <benchmark/benchmark.h>

#include "bench_support.hpp"
#include "common/rng.hpp"
#include "cq/manager.hpp"
#include "workload/sweep.hpp"

namespace cq::bench {
namespace {

constexpr std::size_t kRows = 20000;
constexpr std::size_t kUpdatesPerRound = 100;
constexpr int kRounds = 10;

/// Query `i` of `cq_count`: the queries spread over disjoint 2%-wide key
/// bands.
qry::SpjQuery band_query(std::size_t i, std::size_t cq_count) {
  const std::int64_t lo = static_cast<std::int64_t>(i) * wl::kSweepKeySpace /
                          static_cast<std::int64_t>(std::max<std::size_t>(cq_count, 1));
  qry::SpjQuery q;
  q.from.push_back({"S", ""});
  q.where = alg::Expr::between(alg::Expr::col("key"), rel::Value(lo),
                               rel::Value(lo + wl::kSweepKeySpace / 50));
  return q;
}

void record_counters(benchmark::State& state, const common::Metrics& metrics) {
  state.counters["executions"] =
      static_cast<double>(metrics.get(common::metric::kQueryExecutions));
  state.counters["delta_rows"] =
      static_cast<double>(metrics.get(common::metric::kDeltaRowsScanned));
  state.counters["base_rows"] =
      static_cast<double>(metrics.get(common::metric::kBaseRowsScanned));
}

void BM_SystemDra(benchmark::State& state) {
  const auto cq_count = static_cast<std::size_t>(state.range(0));

  for (auto _ : state) {
    state.PauseTiming();
    common::Rng rng(0x7412 ^ cq_count);
    cat::Database db;
    wl::SweepTable table(db, "S", kRows, 64, rng);
    core::CqManager manager(db);
    for (std::size_t i = 0; i < cq_count; ++i) {
      core::CqSpec spec;
      spec.name = "cq" + std::to_string(i);
      spec.query = band_query(i, cq_count);
      spec.trigger = core::triggers::on_change();
      spec.mode = core::DeliveryMode::kComplete;
      manager.install(std::move(spec), nullptr);
    }
    state.ResumeTiming();

    for (int round = 0; round < kRounds; ++round) {
      table.update(kUpdatesPerRound, {});
      manager.poll();
      manager.collect_garbage();
    }

    state.PauseTiming();
    record_counters(state, manager.metrics());
    state.ResumeTiming();
  }
  state.counters["updates_total"] = kRounds * static_cast<double>(kUpdatesPerRound);
}

/// The same rounds without a CQ manager: each query keeps its previous
/// result, and every round recomputes each query and diffs it against
/// that result (every query's table changed, so each would have fired).
void BM_SystemRecompute(benchmark::State& state) {
  const auto cq_count = static_cast<std::size_t>(state.range(0));

  for (auto _ : state) {
    state.PauseTiming();
    common::Rng rng(0x7412 ^ cq_count);
    cat::Database db;
    wl::SweepTable table(db, "S", kRows, 64, rng);
    common::Metrics metrics;
    std::vector<qry::SpjQuery> queries;
    std::vector<rel::Relation> previous;
    for (std::size_t i = 0; i < cq_count; ++i) {
      queries.push_back(band_query(i, cq_count));
      previous.push_back(core::recompute(queries.back(), db, &metrics));
      metrics.add(common::metric::kQueryExecutions);
    }
    state.ResumeTiming();

    for (int round = 0; round < kRounds; ++round) {
      table.update(kUpdatesPerRound, {});
      for (std::size_t i = 0; i < cq_count; ++i) {
        rel::Relation current = core::recompute(queries[i], db, &metrics);
        metrics.add(common::metric::kQueryExecutions);
        benchmark::DoNotOptimize(core::diff(previous[i], current));
        previous[i] = std::move(current);
      }
      (void)db.garbage_collect();
    }

    state.PauseTiming();
    record_counters(state, metrics);
    state.ResumeTiming();
  }
  state.counters["updates_total"] = kRounds * static_cast<double>(kUpdatesPerRound);
}

void throughput_args(benchmark::internal::Benchmark* b) {
  for (std::int64_t cqs : {1, 8, 32}) b->Arg(cqs);
  b->Unit(benchmark::kMillisecond)->Iterations(3);
}

BENCHMARK(BM_SystemDra)->Apply(throughput_args);
BENCHMARK(BM_SystemRecompute)->Apply(throughput_args);

}  // namespace
}  // namespace cq::bench

CQ_BENCH_MAIN()
