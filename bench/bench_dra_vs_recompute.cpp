// Experiment E1 (DESIGN.md): the paper's central performance claim —
// differential re-evaluation beats complete re-evaluation when the base
// relation is large, the query is selective, and the update volume since
// the last execution is small (conditions (i)-(iii) of Section 4.2).
//
// Series: base size N x update count U, single-relation selection CQ.
// Expected shape: DRA time grows with U and is nearly flat in N (modulo the
// net-effect scan); recompute grows linearly in N regardless of U.
#include "bench_support.hpp"

namespace cq::bench {
namespace {

constexpr double kSelectivity = 0.05;

void BM_DraSelection(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  const auto updates = static_cast<std::size_t>(state.range(1));
  const Scenario& s = selection_scenario(rows, updates, kSelectivity);
  common::Metrics metrics;
  std::size_t delta_size = 0;
  for (auto _ : state) {
    const core::DiffResult d = core::dra_differential(s.query, s.db, s.t0, &metrics);
    benchmark::DoNotOptimize(&d);
    delta_size = d.size();
  }
  export_metrics(state, metrics);
  state.counters["result_delta_rows"] = static_cast<double>(delta_size);
}

void BM_RecomputeSelection(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  const auto updates = static_cast<std::size_t>(state.range(1));
  const Scenario& s = selection_scenario(rows, updates, kSelectivity);
  common::Metrics metrics;
  for (auto _ : state) {
    const core::DiffResult d = core::propagate(s.query, s.db, s.before, &metrics);
    benchmark::DoNotOptimize(&d);
  }
  export_metrics(state, metrics);
}

void configure(benchmark::internal::Benchmark* b) {
  for (std::int64_t n : {1000, 10000, 100000, 400000}) {
    for (std::int64_t u : {10, 100, 1000}) {
      b->Args({n, u});
    }
  }
  b->Unit(benchmark::kMicrosecond);
}

// Fixed iteration counts: the registry counters in --stats-json sum over
// every iteration, so they stay a function of the code, not of host speed.
BENCHMARK(BM_DraSelection)->Apply(configure)->Iterations(200);
BENCHMARK(BM_RecomputeSelection)->Apply(configure)->Iterations(10);

}  // namespace
}  // namespace cq::bench

CQ_BENCH_MAIN()
