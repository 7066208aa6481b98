// Multi-writer commit pipeline scaling (sharded catalog experiment): M
// relations, each carrying one standing selection CQ, driven by N writer
// threads committing disjoint slices of the same total transaction
// schedule. Arg(0) is the writer count — the 1-writer row is the
// sequential baseline; the 2/4-writer rows show how far per-shard commit
// locks let disjoint commits (validate → apply → stamp → append →
// dispatch) overlap. The shard-lock acquisition wait lands in
// commit_lock_wait_us.
//
// Two table sets:
//   * BM_CommitPipelineWriters ("colliding shards"): tables R0..R7, which
//     hash onto shards {6,5,0,6,1,1,1,2}, so writers with disjoint table
//     sets still share shard locks. Commit latency lands in
//     commit_pipeline_w<N>_us.
//   * BM_CommitPipelineDisjoint ("disjoint shards"): eight table names
//     picked through cat::Database::shard_of onto eight distinct shards,
//     so the writers share no catalog lock at all; wall-clock time
//     (UseRealTime). Commit latency lands in
//     commit_pipeline_disjoint_w<N>_us.
//
// Every row also digests each CQ's full notification stream (sequence
// numbers, delivered tids and values — everything except the raw
// timestamps, whose allocation order legitimately depends on the
// interleaving) and requires the digest to be bit-identical to the
// 1-writer row's: more writers may only reorder commits *across*
// independent CQs, never change what any single CQ observes.
//
// CI runs this binary under scripts/check_bench.py --strict (bench-check
// job) against bench/baselines/commit_pipeline.json. See
// docs/performance.md §5 for the measured speedups and the multi-core
// status of the >= 2x commit-to-notify claim.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_support.hpp"
#include "catalog/transaction.hpp"
#include "cq/manager.hpp"
#include "cq/trigger.hpp"

namespace cq::bench {
namespace {

constexpr std::size_t kTables = 8;
constexpr std::size_t kTxnsPerTable = 60;
constexpr std::size_t kRowsPerTxn = 4;
constexpr std::size_t kCommits = kTables * kTxnsPerTable;

/// R0..R7: several share a shard.
std::vector<std::string> colliding_tables() {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < kTables; ++i) names.push_back("R" + std::to_string(i));
  return names;
}

/// The first kTables names D<i> that hash onto pairwise distinct shards.
std::vector<std::string> disjoint_tables() {
  static_assert(kTables <= cat::Database::kNumShards);
  std::vector<std::string> names;
  std::uint32_t used = 0;
  for (std::size_t i = 0; names.size() < kTables; ++i) {
    std::string name = "D" + std::to_string(i);
    const std::size_t shard = cat::Database::shard_of(name);
    if ((used & (1u << shard)) != 0) continue;
    used |= 1u << shard;
    names.push_back(std::move(name));
  }
  return names;
}

/// FNV-1a over each notification a CQ delivers: sequence, then every
/// inserted row's tid and key value. Deliveries for one CQ are serialized
/// by the committer's shard locks, so plain members suffice.
class DigestSink final : public core::ResultSink {
 public:
  void on_result(const core::Notification& note) override {
    if (note.sequence == 0) return;  // initial execution, outside the timed run
    mix(note.sequence);
    for (const auto& row : note.delta.inserted.rows()) {
      mix(row.tid().raw());
      mix(static_cast<std::uint64_t>(row.at(0).as_int()));
    }
    mix(note.delta.deleted.size());
  }

  [[nodiscard]] std::uint64_t digest() const noexcept { return h_; }

 private:
  void mix(std::uint64_t v) noexcept {
    for (int byte = 0; byte < 8; ++byte) {
      h_ ^= (v >> (byte * 8)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

struct PipelineWorkload {
  std::vector<std::string> tables;
  cat::Database db;
  std::unique_ptr<core::CqManager> manager;
  std::vector<std::shared_ptr<DigestSink>> sinks;  // one per table, in order

  /// Order-independent combination (per-CQ streams are deterministic; the
  /// writer interleaving across CQs is not).
  [[nodiscard]] std::uint64_t combined_digest() const noexcept {
    std::uint64_t combined = 0;
    for (const auto& sink : sinks) combined += sink->digest() * 0x9e3779b97f4a7c15ull;
    return combined;
  }
};

std::unique_ptr<PipelineWorkload> make_workload(std::vector<std::string> tables) {
  auto w = std::make_unique<PipelineWorkload>();
  w->tables = std::move(tables);
  for (const auto& table : w->tables) {
    w->db.create_table(table, rel::Schema::of({{"key", rel::ValueType::kInt}}));
  }
  w->manager = std::make_unique<core::CqManager>(w->db);
  w->manager->set_eager(true);
  for (const auto& table : w->tables) {
    auto sink = std::make_shared<DigestSink>();
    w->manager->install(
        core::CqSpec::from_sql("cq_" + table, "SELECT * FROM " + table + " WHERE key >= 0",
                               core::triggers::on_change(), nullptr,
                               core::DeliveryMode::kDifferential),
        sink);
    w->sinks.push_back(std::move(sink));
  }
  return w;
}

/// Run the whole commit schedule with `writers` threads, tables dealt
/// round-robin so writer sets are disjoint. Per-commit wall time goes to
/// `commit_us`. Writer 0 runs on the calling thread.
void run_writers(PipelineWorkload& w, std::size_t writers,
                 common::obs::Histogram& commit_us) {
  auto drive = [&w, writers, &commit_us](std::size_t writer) {
    for (std::size_t t = writer; t < kTables; t += writers) {
      const std::string& table = w.tables[t];
      for (std::size_t i = 0; i < kTxnsPerTable; ++i) {
        const std::uint64_t t0 = common::obs::now_ns();
        auto txn = w.db.begin();
        for (std::size_t r = 0; r < kRowsPerTxn; ++r) {
          txn.insert(table,
                     {rel::Value(static_cast<std::int64_t>(i * kRowsPerTxn + r))});
        }
        txn.commit();
        commit_us.record((common::obs::now_ns() - t0) / 1000);
      }
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(writers - 1);
  for (std::size_t wtr = 1; wtr < writers; ++wtr) threads.emplace_back(drive, wtr);
  drive(0);
  for (auto& t : threads) t.join();
}

/// The digest a writer-scaling family's 1-writer row (registered first,
/// run first) seeds and every other row must reproduce.
struct ReferenceDigest {
  std::uint64_t digest = 0;
  bool seeded = false;
};

/// One row of a writer-scaling family: the schedule over `tables` with
/// Arg(0) writers, commit latency into histogram <hist_prefix><N>_us.
void run_scaling_row(benchmark::State& state, const std::vector<std::string>& tables,
                     const std::string& hist_prefix, ReferenceDigest& reference) {
  const auto writers = static_cast<std::size_t>(state.range(0));
  common::obs::Histogram& hist =
      common::obs::global().histogram(hist_prefix + std::to_string(writers) + "_us");

  for (auto _ : state) {
    state.PauseTiming();
    auto w = make_workload(tables);
    state.ResumeTiming();

    run_writers(*w, writers, hist);

    state.PauseTiming();
    const std::uint64_t digest = w->combined_digest();
    if (!reference.seeded) {
      reference = {digest, true};
    } else if (digest != reference.digest) {
      state.SkipWithError("notification streams diverged from the 1-writer run");
    }
    export_metrics(state, w->manager->metrics());
    state.ResumeTiming();
  }

  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kCommits));
  state.counters["commits_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * static_cast<std::int64_t>(kCommits)),
      benchmark::Counter::kIsRate);
  state.counters["writers"] = static_cast<double>(writers);
}

void BM_CommitPipelineWriters(benchmark::State& state) {
  static ReferenceDigest reference;
  state.SetLabel("colliding shards");
  run_scaling_row(state, colliding_tables(), "commit_pipeline_w", reference);
}

BENCHMARK(BM_CommitPipelineWriters)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

void BM_CommitPipelineDisjoint(benchmark::State& state) {
  static ReferenceDigest reference;
  state.SetLabel("disjoint shards");
  run_scaling_row(state, disjoint_tables(), "commit_pipeline_disjoint_w", reference);
}

BENCHMARK(BM_CommitPipelineDisjoint)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Iterations(3);

/// Contended companion row: every transaction also writes a shared hot
/// table, so all closures meet on one shard and the pipeline degenerates
/// to the serialized order — the lower bound the disjoint rows are
/// measured against (and a direct read on shard-lock wait time via the
/// commit_lock_wait_us histogram).
void BM_CommitPipelineContended(benchmark::State& state) {
  const auto writers = static_cast<std::size_t>(state.range(0));
  static common::obs::Histogram& commit_us =
      common::obs::global().histogram("commit_pipeline_contended_us");

  for (auto _ : state) {
    state.PauseTiming();
    auto w = make_workload(colliding_tables());
    w->db.create_table("HOT", rel::Schema::of({{"key", rel::ValueType::kInt}}));
    state.ResumeTiming();

    auto drive = [&w, writers](std::size_t writer) {
      for (std::size_t t = writer; t < kTables; t += writers) {
        const std::string& table = w->tables[t];
        for (std::size_t i = 0; i < kTxnsPerTable; ++i) {
          const std::uint64_t t0 = common::obs::now_ns();
          auto txn = w->db.begin();
          txn.insert(table, {rel::Value(static_cast<std::int64_t>(i))});
          txn.insert("HOT", {rel::Value(static_cast<std::int64_t>(i))});
          txn.commit();
          commit_us.record((common::obs::now_ns() - t0) / 1000);
        }
      }
    };
    std::vector<std::thread> threads;
    threads.reserve(writers - 1);
    for (std::size_t wtr = 1; wtr < writers; ++wtr) threads.emplace_back(drive, wtr);
    drive(0);
    for (auto& t : threads) t.join();

    state.PauseTiming();
    export_metrics(state, w->manager->metrics());
    state.ResumeTiming();
  }

  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kCommits));
  state.counters["writers"] = static_cast<double>(writers);
}

BENCHMARK(BM_CommitPipelineContended)->Arg(4)->Unit(benchmark::kMillisecond)->Iterations(3);

}  // namespace
}  // namespace cq::bench

CQ_BENCH_MAIN()
