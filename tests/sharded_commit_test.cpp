// Multi-writer commit pipeline tests: transactions over disjoint catalog
// shards commit — validate, apply, stamp, append, dispatch — fully
// concurrently with NO engine lock; transactions whose commit closures
// overlap serialize on their shared shards. These are the tests the
// `tsan` and `lockcheck` presets exist for: a single-core schedule passes
// trivially, the sanitizer and the runtime lock-order checker are what
// turn a latent race or a shard-lock inversion into a failure.
//
// The acceptance contract pinned here:
//  * every committed row lands, none torn, none double-applied;
//  * timestamp allocation totally orders commits (global sequence ==
//    commits, per-shard delta logs are ts-monotone);
//  * each CQ's notification stream is serializable — sequence numbers
//    gapless from 1, timestamps strictly increasing — because eager
//    dispatch runs while the committer still holds the closure's shards;
//  * a sink committing mid-dispatch reuses the held shards (reentrant
//    ShardLockSet) instead of deadlocking, provided it only climbs the
//    shard order;
//  * the DRA script oracle delivers the same digest at 1 and 4 lanes;
//  * writers on disjoint shards take no manager-wide lock (cq_entries,
//    cq_stats), while stats readers running beside them stay race-free.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "catalog/database.hpp"
#include "catalog/transaction.hpp"
#include "common/lock_profile.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/sync.hpp"
#include "cq/manager.hpp"
#include "cq/trigger.hpp"
#include "testing/dra_script.hpp"

namespace cq {
namespace {

using common::Timestamp;
using rel::Value;
using rel::ValueType;

rel::Schema two_col_schema() {
  return rel::Schema::of({{"id", ValueType::kInt}, {"s", ValueType::kString}});
}

core::CqSpec watch_spec(const std::string& cq_name, const std::string& table) {
  return core::CqSpec::from_sql(cq_name, "SELECT * FROM " + table + " WHERE id >= 0",
                                core::triggers::on_change(), nullptr,
                                core::DeliveryMode::kDifferential);
}

/// Sink asserting the serializability contract as the stream arrives: the
/// dispatching commit holds this CQ's shard locks, so deliveries are
/// mutually excluded and must carry gapless sequences and strictly
/// increasing timestamps. Violations are counted, not asserted, so the
/// sink stays usable off the main thread.
class OrderCheckingSink final : public core::ResultSink {
 public:
  void on_result(const core::Notification& note) override {
    if (note.sequence == 0) return;  // initial execution, before the writers
    if (note.sequence != last_sequence_ + 1) ++gaps_;
    if (!(last_ts_ < note.at)) ++ts_regressions_;
    last_sequence_ = note.sequence;
    last_ts_ = note.at;
    rows_ += note.delta.inserted.size();
    ++deliveries_;
  }

  [[nodiscard]] std::uint64_t gaps() const noexcept { return gaps_; }
  [[nodiscard]] std::uint64_t ts_regressions() const noexcept { return ts_regressions_; }
  [[nodiscard]] std::uint64_t deliveries() const noexcept { return deliveries_; }
  [[nodiscard]] std::uint64_t rows() const noexcept { return rows_; }

 private:
  std::uint64_t last_sequence_ = 0;
  Timestamp last_ts_ = Timestamp::min();
  std::uint64_t gaps_ = 0;
  std::uint64_t ts_regressions_ = 0;
  std::uint64_t deliveries_ = 0;
  std::uint64_t rows_ = 0;
};

TEST(ShardedCommit, DisjointWritersCommitAndNotifyConcurrently) {
  constexpr int kWriters = 4;
  constexpr int kTxnsPerWriter = 50;

  cat::Database db;
  core::CqManager manager(db);
  std::vector<std::string> tables;
  std::vector<std::shared_ptr<OrderCheckingSink>> sinks;
  for (int w = 0; w < kWriters; ++w) {
    const std::string name = "T" + std::to_string(w);
    db.create_table(name, two_col_schema());
    tables.push_back(name);
  }
  manager.set_eager(true);
  for (int w = 0; w < kWriters; ++w) {
    auto sink = std::make_shared<OrderCheckingSink>();
    manager.install(watch_spec("watch_" + tables[static_cast<std::size_t>(w)],
                               tables[static_cast<std::size_t>(w)]),
                    sink);
    sinks.push_back(std::move(sink));
  }

  // Each writer owns one table; their commit closures share a shard only
  // when the table names happen to hash together, and even then the
  // pipeline must stay correct — just less concurrent.
  const std::uint64_t seq_before = db.commit_sequence();
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([w, &db, &tables] {
      const std::string& table = tables[static_cast<std::size_t>(w)];
      for (int i = 0; i < kTxnsPerWriter; ++i) {
        auto txn = db.begin();
        txn.insert(table, {Value(static_cast<std::int64_t>(i)), Value(std::string("r"))});
        if (i % 3 == 0) {
          txn.insert(table,
                     {Value(static_cast<std::int64_t>(1000 + i)), Value(std::string("x"))});
        }
        txn.commit();
      }
    });
  }
  for (auto& t : writers) t.join();

  EXPECT_EQ(db.commit_sequence() - seq_before,
            static_cast<std::uint64_t>(kWriters) * kTxnsPerWriter);
  std::uint64_t shard_total = 0;
  for (std::size_t s = 0; s < cat::Database::kNumShards; ++s) {
    shard_total += db.shard_commits(s);
  }
  EXPECT_EQ(shard_total, static_cast<std::uint64_t>(kWriters) * kTxnsPerWriter);

  for (int w = 0; w < kWriters; ++w) {
    const auto& table = tables[static_cast<std::size_t>(w)];
    const std::size_t extra = (kTxnsPerWriter + 2) / 3;  // i % 3 == 0 inserts
    const std::size_t expected_rows = kTxnsPerWriter + extra;
    EXPECT_EQ(db.table(table).size(), expected_rows) << table;
    // Per-relation delta log is timestamp-monotone: appends happen under
    // the shard lock, stamped inside it.
    Timestamp prev = Timestamp::min();
    for (const auto& row : db.delta(table).rows()) {
      EXPECT_LE(prev, row.ts) << table;
      prev = row.ts;
    }
    const auto& sink = *sinks[static_cast<std::size_t>(w)];
    EXPECT_EQ(sink.gaps(), 0u) << table;
    EXPECT_EQ(sink.ts_regressions(), 0u) << table;
    EXPECT_EQ(sink.deliveries(), static_cast<std::uint64_t>(kTxnsPerWriter)) << table;
    EXPECT_EQ(sink.rows(), expected_rows) << table;
  }
}

TEST(ShardedCommit, OverlappingClosuresSerializeOnTheSharedShard) {
  constexpr int kWriters = 4;
  constexpr int kTxnsPerWriter = 40;

  cat::Database db;
  db.create_table("HOT", two_col_schema());
  std::vector<std::string> privates;
  for (int w = 0; w < kWriters; ++w) {
    const std::string name = "P" + std::to_string(w);
    db.create_table(name, two_col_schema());
    privates.push_back(name);
  }
  core::CqManager manager(db);
  manager.set_eager(true);
  auto hot_sink = std::make_shared<OrderCheckingSink>();
  manager.install(watch_spec("watch_hot", "HOT"), hot_sink);

  // Every transaction writes HOT plus the writer's private table: all
  // closures meet on HOT's shard, so the dispatches to watch_hot are
  // totally ordered no matter how the writers interleave.
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([w, &db, &privates] {
      const std::string& mine = privates[static_cast<std::size_t>(w)];
      for (int i = 0; i < kTxnsPerWriter; ++i) {
        auto txn = db.begin();
        txn.insert("HOT",
                   {Value(static_cast<std::int64_t>(w * 1000 + i)), Value(std::string("h"))});
        txn.insert(mine, {Value(static_cast<std::int64_t>(i)), Value(std::string("p"))});
        txn.commit();
      }
    });
  }
  for (auto& t : writers) t.join();

  const auto total = static_cast<std::uint64_t>(kWriters) * kTxnsPerWriter;
  EXPECT_EQ(db.table("HOT").size(), total);
  for (const auto& name : privates) {
    EXPECT_EQ(db.table(name).size(), static_cast<std::uint64_t>(kTxnsPerWriter));
  }
  EXPECT_EQ(hot_sink->gaps(), 0u);
  EXPECT_EQ(hot_sink->ts_regressions(), 0u);
  EXPECT_EQ(hot_sink->deliveries(), total);
  EXPECT_EQ(hot_sink->rows(), total);
  const core::CqStats s = manager.cq_stats().at("watch_hot");
  EXPECT_EQ(s.trigger_checks, s.fired + s.suppressed);
  EXPECT_EQ(s.fired, total);
}

TEST(ShardedCommit, AbortedWritersLeaveCommittedStateIntact) {
  // Writers interleave commits with aborts; aborted transactions return
  // their reserved tids when still on top, and committed state must be
  // exactly the committed inserts regardless of the interleaving.
  constexpr int kWriters = 4;
  constexpr int kTxnsPerWriter = 60;

  cat::Database db;
  db.create_table("T", two_col_schema());

  std::atomic<std::uint64_t> committed_rows{0};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([w, &db, &committed_rows] {
      common::Rng rng(static_cast<std::uint64_t>(w) + 1);
      for (int i = 0; i < kTxnsPerWriter; ++i) {
        auto txn = db.begin();
        txn.insert("T", {Value(static_cast<std::int64_t>(w * 10000 + i)),
                         Value(std::string("v"))});
        if (rng.index(3) == 0) {
          txn.abort();
        } else {
          txn.commit();
          committed_rows.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : writers) t.join();

  EXPECT_EQ(db.table("T").size(), committed_rows.load());
  EXPECT_EQ(db.delta("T").size(), committed_rows.load());
  // No two committed rows share a tid (reservation is shard-atomic).
  std::vector<std::uint64_t> tids;
  for (const auto& row : db.delta("T").rows()) tids.push_back(row.tid.raw());
  std::sort(tids.begin(), tids.end());
  EXPECT_TRUE(std::adjacent_find(tids.begin(), tids.end()) == tids.end());
}

TEST(ShardedCommit, SinkCommitMidDispatchReusesHeldShards) {
  // A result sink that writes back to the database during eager dispatch:
  // the nested commit's ShardLockSet must skip shards the enclosing
  // commit already holds and may add higher ones. Pick two tables whose
  // shard indexes are strictly ordered so the climb is legal.
  std::string low = "A";
  std::string high = "B";
  bool found = false;
  for (char a = 'A'; a <= 'Z' && !found; ++a) {
    for (char b = 'A'; b <= 'Z' && !found; ++b) {
      const std::string na(1, a);
      const std::string nb(1, b);
      if (cat::Database::shard_of(na) < cat::Database::shard_of(nb)) {
        low = na;
        high = nb;
        found = true;
      }
    }
  }
  ASSERT_TRUE(found) << "all single-letter names hash to one shard?";

  cat::Database db;
  db.create_table(low, two_col_schema());
  db.create_table(high, two_col_schema());
  core::CqManager manager(db);
  manager.set_eager(true);

  auto audit_sink = std::make_shared<core::CallbackSink>([&db, high](
                                                             const core::Notification& n) {
    if (n.sequence == 0) return;
    // Runs on the committing thread, inside its shard lock set.
    auto txn = db.begin();
    txn.insert(high, {Value(static_cast<std::int64_t>(n.sequence)),
                      Value(std::string("audit"))});
    txn.commit();
  });
  manager.install(watch_spec("watch_low", low), audit_sink);

  constexpr int kCommits = 25;
  for (int i = 0; i < kCommits; ++i) {
    auto txn = db.begin();
    txn.insert(low, {Value(static_cast<std::int64_t>(i)), Value(std::string("r"))});
    txn.commit();
  }

  EXPECT_EQ(db.table(low).size(), static_cast<std::size_t>(kCommits));
  // Every dispatch appended exactly one audit row via the nested commit.
  EXPECT_EQ(db.table(high).size(), static_cast<std::size_t>(kCommits));
}

/// `n` table names that hash onto `n` distinct catalog shards.
std::vector<std::string> shard_disjoint_tables(std::size_t n) {
  std::vector<std::string> names;
  std::uint32_t used = 0;
  for (int i = 0; names.size() < n; ++i) {
    std::string name = "D" + std::to_string(i);
    const std::size_t shard = cat::Database::shard_of(name);
    if ((used & (1u << shard)) != 0) continue;
    used |= 1u << shard;
    names.push_back(std::move(name));
  }
  return names;
}

/// Acquisitions recorded against a lock-profiler site; 0 before the site
/// was first taken with profiling on.
std::uint64_t site_acquisitions(const char* site) {
  namespace lockprof = common::lockprof;
  for (std::size_t i = 0; i < lockprof::site_count(); ++i) {
    const char* name = lockprof::site(i).name.load(std::memory_order_acquire);
    if (name != nullptr && std::string(name) == site) {
      return lockprof::site(i).acquisitions.load(std::memory_order_relaxed);
    }
  }
  return 0;
}

/// Four writers, each committing to its own table on its own shard, with
/// one eager CQ per table. Returns after every writer joined.
void run_disjoint_writers(cat::Database& db, const std::vector<std::string>& tables,
                          int txns_per_writer) {
  std::vector<std::thread> writers;
  writers.reserve(tables.size());
  for (const auto& table : tables) {
    writers.emplace_back([&db, &table, txns_per_writer] {
      for (int i = 0; i < txns_per_writer; ++i) {
        auto txn = db.begin();
        txn.insert(table, {Value(static_cast<std::int64_t>(i)), Value(std::string("r"))});
        txn.commit();
      }
    });
  }
  for (auto& t : writers) t.join();
}

TEST(ShardedCommit, DisjointWritersTakeNoManagerWideLock) {
  constexpr int kTxnsPerWriter = 200;
  namespace lockprof = common::lockprof;
  const std::vector<std::string> tables = shard_disjoint_tables(4);
  cat::Database db;
  core::CqManager manager(db);
  for (const auto& table : tables) db.create_table(table, two_col_schema());
  lockprof::set_enabled(true);
  manager.set_eager(true);
  for (const auto& table : tables) manager.install(watch_spec("watch_" + table, table), nullptr);

  const std::uint64_t entries_before = site_acquisitions("cq_entries");
  const std::uint64_t stats_before = site_acquisitions("cq_stats");
  run_disjoint_writers(db, tables, kTxnsPerWriter);
  const std::uint64_t entries_after = site_acquisitions("cq_entries");
  const std::uint64_t stats_after = site_acquisitions("cq_stats");
  lockprof::set_enabled(false);

  EXPECT_EQ(entries_after, entries_before);
  EXPECT_EQ(stats_after, stats_before);
  for (const auto& table : tables) {
    EXPECT_EQ(manager.cq_stats().at("watch_" + table).executions,
              static_cast<std::uint64_t>(kTxnsPerWriter) + 1);
  }
}

TEST(ShardedCommit, StatsReadersRaceDisjointWritersCleanly) {
  // The tsan preset is what this test is for: a reader folds every CQ's
  // stats and metrics while the writers update them.
  constexpr int kTxnsPerWriter = 150;
  const std::vector<std::string> tables = shard_disjoint_tables(4);
  cat::Database db;
  core::CqManager manager(db);
  for (const auto& table : tables) db.create_table(table, two_col_schema());
  manager.set_eager(true);
  for (const auto& table : tables) manager.install(watch_spec("watch_" + table, table), nullptr);

  std::atomic<bool> done{false};
  std::uint64_t torn = 0;
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      for (const auto& [name, s] : manager.cq_stats()) {
        if (s.trigger_checks != s.fired + s.suppressed) ++torn;
      }
      common::obs::JsonWriter w;
      manager.write_stats_json(w);
      const common::Metrics& m = manager.metrics();
      if (m.get(common::metric::kTriggersFired) > m.get(common::metric::kTriggerChecks)) ++torn;
    }
  });
  run_disjoint_writers(db, tables, kTxnsPerWriter);
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(torn, 0u);
  const auto total = static_cast<std::int64_t>(tables.size()) * kTxnsPerWriter;
  EXPECT_EQ(manager.metrics().get(common::metric::kTriggerChecks), total);
  EXPECT_EQ(manager.metrics().get(common::metric::kTriggersFired), total);
  std::uint64_t checks = 0;
  for (const auto& [name, s] : manager.cq_stats()) checks += s.trigger_checks;
  EXPECT_EQ(checks, static_cast<std::uint64_t>(total));
}

TEST(ShardedCommit, DraScriptDigestIdenticalAtOneAndFourLanes) {
  // The determinism contract end-to-end: one busy DRA oracle script, the
  // full notification stream digested, sequential vs 4 evaluation lanes.
  common::Rng rng(0xc0117);
  std::vector<std::uint8_t> script;
  for (int attempt = 0; attempt < 32 && script.empty(); ++attempt) {
    std::vector<std::uint8_t> candidate(384);
    for (auto& b : candidate) b = static_cast<std::uint8_t>(rng.index(256));
    const testing::DraScriptReport probe =
        testing::run_dra_oracle_script(candidate.data(), candidate.size());
    if (probe.ok && probe.commits >= 3 && !probe.digest.empty()) {
      script = std::move(candidate);
    }
  }
  ASSERT_FALSE(script.empty()) << "no generated script reached 3 commits";

  const testing::DraScriptReport sequential =
      testing::run_dra_oracle_script(script.data(), script.size());
  ASSERT_TRUE(sequential.ok) << sequential.message;

  testing::DraScriptConfig cfg;
  cfg.eval_threads = 4;
  const testing::DraScriptReport parallel =
      testing::run_dra_oracle_script(script.data(), script.size(), cfg);
  ASSERT_TRUE(parallel.ok) << parallel.message;
  EXPECT_EQ(parallel.digest, sequential.digest);
  EXPECT_EQ(parallel.commits, sequential.commits);
  EXPECT_EQ(parallel.executions, sequential.executions);
}

}  // namespace
}  // namespace cq
