// Experiment E5 (DESIGN.md): Section 5.3's claim — evaluating the
// differential form of T_CQ (scan ΔCheckingAccounts only) is cheaper than
// evaluating it against the base relation whenever |R| > |ΔR|.
// Series: base size |R| sweep at fixed delta size, plus a delta-size sweep.
// Also ablation A3: eager (per-commit) vs periodic trigger checking.
#include <benchmark/benchmark.h>

#include "bench_support.hpp"
#include "catalog/transaction.hpp"
#include "common/rng.hpp"
#include "cq/manager.hpp"
#include "delta/delta_snapshot.hpp"
#include "query/evaluate.hpp"
#include "query/parser.hpp"
#include "workload/accounts.hpp"

namespace cq::bench {
namespace {

struct TriggerScenario {
  cat::Database db;
  std::unique_ptr<wl::AccountsWorkload> accounts;
  common::Timestamp t0;
};

const TriggerScenario& trigger_scenario(std::size_t accounts, std::size_t movements) {
  using Key = std::pair<std::size_t, std::size_t>;
  static std::map<Key, std::unique_ptr<TriggerScenario>> cache;
  auto it = cache.find({accounts, movements});
  if (it == cache.end()) {
    auto s = std::make_unique<TriggerScenario>();
    static common::Rng rng(0xacc7);
    s->accounts = std::make_unique<wl::AccountsWorkload>(
        s->db, "CheckingAccounts", wl::AccountsConfig{.accounts = accounts}, rng);
    s->t0 = s->db.clock().now();
    s->accounts->step(movements);
    it = cache.emplace(Key{accounts, movements}, std::move(s)).first;
  }
  return *it->second;
}

/// Differential form: |SUM over insertions − SUM over deletions| from ΔR.
void BM_TriggerDifferential(benchmark::State& state) {
  const TriggerScenario& s = trigger_scenario(
      static_cast<std::size_t>(state.range(0)), static_cast<std::size_t>(state.range(1)));
  const auto trigger =
      core::triggers::aggregate_drift("CheckingAccounts", "amount", 1e15);
  const std::vector<std::string> relations{"CheckingAccounts"};
  for (auto _ : state) {
    // A fresh snapshot per check, as each dispatch takes one: a reused
    // snapshot would serve its memoized net effect instead of scanning ΔR.
    const delta::SnapshotMap snapshots = core::snapshot_deltas(s.db, relations);
    const core::TriggerContext ctx{s.db, relations, s.t0, s.db.clock().now(), 1, snapshots};
    benchmark::DoNotOptimize(trigger->should_fire(ctx));
  }
  const delta::DeltaSnapshot snap(s.db.delta("CheckingAccounts"));
  state.counters["delta_rows"] = static_cast<double>(snap.net_effect(s.t0).size());
}

/// Complete form: re-evaluate SUM(amount) over the whole base relation and
/// compare with the value at the previous execution.
void BM_TriggerBaseScan(benchmark::State& state) {
  const TriggerScenario& s = trigger_scenario(
      static_cast<std::size_t>(state.range(0)), static_cast<std::size_t>(state.range(1)));
  const auto query = qry::parse_query("SELECT SUM(amount) FROM CheckingAccounts");
  for (auto _ : state) {
    const rel::Relation sum = qry::evaluate(query, s.db);
    benchmark::DoNotOptimize(&sum);
  }
  state.counters["base_rows"] = static_cast<double>(s.db.table("CheckingAccounts").size());
}

void trigger_args(benchmark::internal::Benchmark* b) {
  // |R| sweep at fixed |ΔR| ~ 500, then |ΔR| sweep at fixed |R| = 100k.
  for (std::int64_t accounts : {1000, 10000, 100000}) b->Args({accounts, 500});
  for (std::int64_t movements : {50, 5000}) b->Args({100000, movements});
  b->Unit(benchmark::kMicrosecond);
}

BENCHMARK(BM_TriggerDifferential)->Apply(trigger_args);
BENCHMARK(BM_TriggerBaseScan)->Apply(trigger_args);

/// Ablation A3: cost of delivering U updates under eager (per-commit)
/// trigger checking vs one periodic poll at the end. Same trigger, same
/// query; eager pays U trigger checks (and possibly U executions).
void run_checking_strategy(benchmark::State& state, bool eager) {
  const auto updates = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    common::Rng rng(0xeaec ^ updates);
    cat::Database db;
    wl::AccountsWorkload accounts(db, "CheckingAccounts",
                                  wl::AccountsConfig{.accounts = 5000}, rng);
    core::CqManager manager(db);
    manager.install(
        core::CqSpec::from_sql("sum",
                               "SELECT SUM(amount) FROM CheckingAccounts",
                               core::triggers::aggregate_drift("CheckingAccounts",
                                                               "amount", 50'000.0)),
        nullptr);
    manager.set_eager(eager);
    state.ResumeTiming();

    accounts.step(updates);
    if (!eager) manager.poll();

    state.PauseTiming();
    state.counters["executions"] = static_cast<double>(
        manager.metrics().get(common::metric::kQueryExecutions));
    state.counters["trigger_checks"] = static_cast<double>(
        manager.metrics().get(common::metric::kTriggerChecks));
    state.ResumeTiming();
  }
}

void BM_EagerChecking(benchmark::State& state) { run_checking_strategy(state, true); }
void BM_PeriodicChecking(benchmark::State& state) { run_checking_strategy(state, false); }

BENCHMARK(BM_EagerChecking)->Arg(500)->Unit(benchmark::kMillisecond)->Iterations(5);
BENCHMARK(BM_PeriodicChecking)->Arg(500)->Unit(benchmark::kMillisecond)->Iterations(5);

}  // namespace
}  // namespace cq::bench

CQ_BENCH_MAIN()
