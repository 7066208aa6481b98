// Experiment E6 (DESIGN.md): garbage collection of differential relations
// (Section 5.4). K continual queries with staggered execution cadences
// define the system active delta zone; the bench reports steady-state
// delta-log size (rows and bytes) with GC on vs off, and with net-effect
// compaction exercised vs not (ablation A2: the compaction happens at read
// time, so we report the net/raw ratio).
#include <benchmark/benchmark.h>

#include "bench_support.hpp"
#include "common/rng.hpp"
#include "cq/manager.hpp"
#include "delta/delta_snapshot.hpp"
#include "workload/sweep.hpp"

namespace cq::bench {
namespace {

void run_gc_scenario(benchmark::State& state, bool gc_enabled) {
  const auto cq_count = static_cast<std::size_t>(state.range(0));
  const auto slow_factor = static_cast<std::size_t>(state.range(1));

  for (auto _ : state) {
    state.PauseTiming();
    common::Rng rng(0x6c ^ cq_count);
    cat::Database db;
    wl::SweepTable table(db, "S", 5000, 64, rng);
    core::CqManager manager(db);
    std::vector<core::CqHandle> handles;
    for (std::size_t i = 0; i < cq_count; ++i) {
      handles.push_back(manager.install(
          core::CqSpec::from_sql("cq" + std::to_string(i),
                                 "SELECT key FROM S WHERE key < 100000",
                                 core::triggers::manual()),
          nullptr));
    }
    std::size_t peak_rows = 0;
    std::size_t peak_bytes = 0;
    state.ResumeTiming();

    for (std::size_t round = 1; round <= 40; ++round) {
      table.update(100, {});
      for (std::size_t i = 0; i < handles.size(); ++i) {
        // CQ i executes every (1 + i*slow_factor) rounds.
        if (round % (1 + i * slow_factor) == 0) {
          (void)manager.execute_now(handles[i]);
        }
      }
      if (gc_enabled) manager.collect_garbage();
      peak_rows = std::max(peak_rows, db.delta("S").size());
      peak_bytes = std::max(peak_bytes, db.delta_bytes());
    }

    state.counters["peak_delta_rows"] = static_cast<double>(peak_rows);
    state.counters["peak_delta_bytes"] = static_cast<double>(peak_bytes);
  }
}

void BM_WithGc(benchmark::State& state) { run_gc_scenario(state, true); }
void BM_WithoutGc(benchmark::State& state) { run_gc_scenario(state, false); }

void gc_args(benchmark::internal::Benchmark* b) {
  // (number of CQs, cadence spread). Larger spread = older system zone.
  b->Args({1, 0})->Args({4, 1})->Args({4, 5})->Args({16, 1});
  b->Unit(benchmark::kMillisecond)->Iterations(3);
}

BENCHMARK(BM_WithGc)->Apply(gc_args);
BENCHMARK(BM_WithoutGc)->Apply(gc_args);

/// Ablation A2: how much the net-effect compaction shrinks what the DRA
/// actually reads, under update streams that revisit hot tuples (zipf-ish
/// behaviour approximated by a small table with many modifications).
void BM_NetEffectCompaction(benchmark::State& state) {
  const auto updates = static_cast<std::size_t>(state.range(0));
  common::Rng rng(0xc0117ac7);
  cat::Database db;
  wl::SweepTable table(db, "S", 500, 64, rng);  // small => many re-touches
  const common::Timestamp t0 = db.clock().now();
  table.update(updates, {.modify_fraction = 0.9, .delete_fraction = 0.05});

  for (auto _ : state) {
    // A fresh snapshot per read, as each dispatch takes one: a reused
    // snapshot would serve its memoized net effect.
    const delta::DeltaSnapshot snap(db.delta("S"));
    const auto& net = snap.net_effect(t0);
    benchmark::DoNotOptimize(&net);
    state.counters["raw_rows"] = static_cast<double>(db.delta("S").size());
    state.counters["net_rows"] = static_cast<double>(net.size());
  }
}

BENCHMARK(BM_NetEffectCompaction)->Arg(1000)->Arg(5000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace cq::bench

CQ_BENCH_MAIN()
