// Shared benchmark scaffolding: deterministic database construction for
// the E1-E8 sweeps (DESIGN.md experiment index) and counter helpers.
//
// Conventions used by every bench binary:
//   * workloads are built once per Args combination and cached, so the
//     timed region contains only the algorithm under test;
//   * dra_differential / recompute are pure (they never consume the delta
//     log), so repeated iterations measure identical work;
//   * paper-relevant cost quantities (delta rows read, base rows scanned,
//     bytes shipped) are exported as benchmark counters next to wall time.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "catalog/database.hpp"
#include "common/observability.hpp"
#include "common/rng.hpp"
#include "cq/dra.hpp"
#include "cq/propagate.hpp"
#include "workload/sweep.hpp"

namespace cq::bench {

/// Observability collection off for its scope, restored after: scenario
/// set-up commits are not measured code, so they must not land in the
/// --stats-json histograms (commit_to_notify_us and the commit spans).
class CollectionPause {
 public:
  CollectionPause() { common::obs::set_enabled(false); }
  ~CollectionPause() { common::obs::set_enabled(was_enabled_); }
  CollectionPause(const CollectionPause&) = delete;
  CollectionPause& operator=(const CollectionPause&) = delete;

 private:
  bool was_enabled_ = common::obs::enabled();
};

/// One prepared scenario: a table of `rows`, a snapshot of the CQ result,
/// then `updates` random updates. The DRA evaluates (db, t0); the
/// recompute baseline evaluates (db) and diffs against `before`.
struct Scenario {
  cat::Database db;
  std::unique_ptr<wl::SweepTable> table;
  qry::SpjQuery query;
  rel::Relation before;
  common::Timestamp t0;
};

/// Build (or fetch the cached) single-table selection scenario.
inline const Scenario& selection_scenario(std::size_t rows, std::size_t updates,
                                          double selectivity,
                                          double modify_fraction = 1.0 / 3,
                                          double delete_fraction = 1.0 / 3) {
  using Key = std::tuple<std::size_t, std::size_t, int, int, int>;
  static std::map<Key, std::unique_ptr<Scenario>> cache;
  const Key key{rows, updates, static_cast<int>(selectivity * 1e6),
                static_cast<int>(modify_fraction * 1e6),
                static_cast<int>(delete_fraction * 1e6)};
  auto it = cache.find(key);
  if (it == cache.end()) {
    const CollectionPause pause;
    auto s = std::make_unique<Scenario>();
    common::Rng rng(0xbe11c0de ^ rows ^ (updates << 20));
    s->table = std::make_unique<wl::SweepTable>(s->db, "S", rows, 64, rng);
    s->query = s->table->selection_query(selectivity);
    s->before = core::recompute(s->query, s->db);
    s->t0 = s->db.clock().now();
    s->table->update(updates, {.modify_fraction = modify_fraction,
                               .delete_fraction = delete_fraction});
    it = cache.emplace(key, std::move(s)).first;
  }
  return *it->second;
}

/// Multi-table equi-join scenario; `changed` of the tables receive updates.
struct JoinScenario {
  cat::Database db;
  std::vector<std::unique_ptr<wl::SweepTable>> tables;
  qry::SpjQuery query;
  rel::Relation before;
  common::Timestamp t0;
};

inline const JoinScenario& join_scenario(std::size_t n_tables, std::size_t rows,
                                         std::size_t updates, std::size_t changed,
                                         double selectivity = 0.2,
                                         bool with_indexes = false) {
  using Key = std::tuple<std::size_t, std::size_t, std::size_t, std::size_t, int, bool>;
  static std::map<Key, std::unique_ptr<JoinScenario>> cache;
  const Key key{n_tables,
                rows,
                updates,
                changed,
                static_cast<int>(selectivity * 1e6),
                with_indexes};
  auto it = cache.find(key);
  if (it == cache.end()) {
    const CollectionPause pause;
    auto s = std::make_unique<JoinScenario>();
    common::Rng rng(0x10adf00d ^ rows ^ (n_tables << 8));
    std::vector<const wl::SweepTable*> refs;
    for (std::size_t i = 0; i < n_tables; ++i) {
      const std::string name = "T" + std::to_string(i);
      // Group count scales with table size so equi-join fan-out stays ~32
      // rows per key regardless of N (otherwise the answer itself grows
      // with N and masks the algorithmic scaling).
      const std::size_t groups = std::max<std::size_t>(128, rows / 32);
      s->tables.push_back(
          std::make_unique<wl::SweepTable>(s->db, name, rows, groups, rng));
      refs.push_back(s->tables.back().get());
      if (with_indexes) s->db.create_index(name, "by_grp", {"grp"});
    }
    s->query = wl::join_query(refs, selectivity);
    s->before = core::recompute(s->query, s->db);
    s->t0 = s->db.clock().now();
    for (std::size_t i = 0; i < changed && i < n_tables; ++i) {
      s->tables[i]->update(updates, {});
    }
    it = cache.emplace(key, std::move(s)).first;
  }
  return *it->second;
}

/// Attach the paper's cost quantities from a metrics bag to the state, and
/// fold them into the process-wide observability registry so a final
/// --stats-json export sees the cumulative engine work of the whole run.
inline void export_metrics(benchmark::State& state, const common::Metrics& metrics) {
  state.counters["delta_rows"] = benchmark::Counter(
      static_cast<double>(metrics.get(common::metric::kDeltaRowsScanned)),
      benchmark::Counter::kAvgIterations);
  state.counters["base_rows"] = benchmark::Counter(
      static_cast<double>(metrics.get(common::metric::kBaseRowsScanned)),
      benchmark::Counter::kAvgIterations);
  state.counters["rows_scanned"] = benchmark::Counter(
      static_cast<double>(metrics.get(common::metric::kRowsScanned)),
      benchmark::Counter::kAvgIterations);
  common::obs::global().metrics().merge(metrics);
}

/// BENCHMARK_MAIN() body plus three extra flags the Google Benchmark flag
/// parser would otherwise reject:
///   * `--stats-json <path>` turns observability on for the run and writes
///     the counters + latency-histogram JSON document there on exit;
///   * `--trace-json <path>` turns observability on and writes the span
///     collector's chrome://tracing dump there on exit (load it in
///     Perfetto: one track per evaluation lane, per-commit trace ids);
///   * `--threads <n>` shorthand for --benchmark_filter=/<n>$ — run only
///     the rows with that lane count.
/// All three accept `--flag=value` too.
inline int run_benchmarks_with_stats(int argc, char** argv) {
  std::string stats_path;
  std::string trace_path;
  std::string filter_flag;  // synthesized from --threads; must outlive Initialize
  std::vector<char*> passthrough;
  passthrough.reserve(static_cast<std::size_t>(argc) + 1);
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--stats-json" && i + 1 < argc) {
      stats_path = argv[++i];
    } else if (arg.rfind("--stats-json=", 0) == 0) {
      stats_path = arg.substr(std::string_view("--stats-json=").size());
    } else if (arg == "--trace-json" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg.rfind("--trace-json=", 0) == 0) {
      trace_path = arg.substr(std::string_view("--trace-json=").size());
    } else if (arg == "--threads" && i + 1 < argc) {
      // "/N" as a whole path segment: matches BM_Foo/N and BM_Foo/N/iterations:K.
      filter_flag = std::string("--benchmark_filter=/") + argv[++i] + "(/|$)";
    } else if (arg.rfind("--threads=", 0) == 0) {
      filter_flag = "--benchmark_filter=/" +
                    std::string(arg.substr(std::string_view("--threads=").size())) +
                    "(/|$)";
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (!filter_flag.empty()) passthrough.push_back(filter_flag.data());
  if (!stats_path.empty() || !trace_path.empty()) common::obs::set_enabled(true);

  int pass_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc, passthrough.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  if (!stats_path.empty()) {
    std::ofstream out(stats_path);
    out << common::obs::export_json(common::obs::global(), {}) << "\n";
    if (!out) {
      std::fprintf(stderr, "failed to write stats JSON to %s\n", stats_path.c_str());
      return 1;
    }
  }
  if (!trace_path.empty()) {
    common::obs::global().traces().write_chrome_trace(trace_path);
    std::fprintf(stderr, "wrote chrome trace to %s\n", trace_path.c_str());
  }
  return 0;
}

}  // namespace cq::bench

/// Use instead of BENCHMARK_MAIN() in every bench binary.
#define CQ_BENCH_MAIN()                                          \
  int main(int argc, char** argv) {                              \
    return ::cq::bench::run_benchmarks_with_stats(argc, argv);   \
  }
