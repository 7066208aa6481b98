// Experiment E8 (DESIGN.md): the Section 5.2 query-refinement claim —
// updates that cannot affect the previous result ("irrelevant updates")
// should cost (almost) nothing. We steer every update inside or outside
// the query's selection range and compare the DRA on irrelevant updates
// (the check skips them), on relevant ones, and complete re-evaluation,
// which always pays full price.
#include <benchmark/benchmark.h>

#include "bench_support.hpp"
#include "catalog/transaction.hpp"

namespace cq::bench {
namespace {

constexpr std::size_t kRows = 50000;
constexpr std::size_t kUpdates = 500;

/// Scenario whose updates all land inside/outside key < 100000 (the query
/// selects key < 100000, i.e. selectivity 0.1 of the 1M key space).
struct SteeredScenario {
  cat::Database db;
  qry::SpjQuery query;
  rel::Relation before;
  common::Timestamp t0;
};

const SteeredScenario& steered(bool relevant) {
  static std::map<bool, std::unique_ptr<SteeredScenario>> cache;
  auto it = cache.find(relevant);
  if (it == cache.end()) {
    auto s = std::make_unique<SteeredScenario>();
    common::Rng rng(0x5711 ^ static_cast<unsigned>(relevant));
    wl::SweepTable table(s->db, "S", kRows, 64, rng);
    s->query = table.selection_query(0.1);
    s->before = core::recompute(s->query, s->db);
    s->t0 = s->db.clock().now();
    // Steered inserts: keys inside [0, 100k) when relevant, else
    // [500k, 1M). Committed in batches of 64.
    std::size_t done = 0;
    while (done < kUpdates) {
      auto txn = s->db.begin();
      const std::size_t end = std::min(kUpdates, done + 64);
      for (; done < end; ++done) {
        const std::int64_t key = relevant ? rng.uniform_int(0, 99999)
                                          : rng.uniform_int(500000, 999999);
        txn.insert("S", {rel::Value(key), rel::Value(rng.uniform_int(0, 63)),
                         rel::Value(rng.string(16))});
      }
      txn.commit();
    }
    it = cache.emplace(relevant, std::move(s)).first;
  }
  return *it->second;
}

void BM_DraIrrelevant_CheckOn(benchmark::State& state) {
  const SteeredScenario& s = steered(false);
  core::DraStats stats;
  for (auto _ : state) {
    const core::DiffResult d =
        core::dra_differential(s.query, s.db, s.t0, nullptr, &stats);
    benchmark::DoNotOptimize(&d);
  }
  state.counters["skipped"] = stats.skipped_irrelevant ? 1.0 : 0.0;
  state.counters["terms"] = static_cast<double>(stats.terms_evaluated);
}

void BM_DraRelevant(benchmark::State& state) {
  const SteeredScenario& s = steered(true);
  for (auto _ : state) {
    const core::DiffResult d = core::dra_differential(s.query, s.db, s.t0);
    benchmark::DoNotOptimize(&d);
  }
}

void BM_RecomputeIrrelevant(benchmark::State& state) {
  // Complete re-evaluation cannot tell irrelevant updates apart: it rescans
  // the base either way.
  const SteeredScenario& s = steered(false);
  for (auto _ : state) {
    const core::DiffResult d = core::propagate(s.query, s.db, s.before);
    benchmark::DoNotOptimize(&d);
  }
}

BENCHMARK(BM_DraIrrelevant_CheckOn)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_DraRelevant)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_RecomputeIrrelevant)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace cq::bench

CQ_BENCH_MAIN()
