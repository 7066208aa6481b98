#include "cq/manager.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "catalog/transaction.hpp"
#include "common/error.hpp"
#include "cq/stop.hpp"
#include "query/parser.hpp"

namespace cq::core {
namespace {

using common::Duration;
using common::Timestamp;
using rel::Tuple;
using rel::Value;
using rel::ValueType;

struct Fixture {
  cat::Database db;
  CqManager manager{db};
  std::shared_ptr<CollectingSink> sink = std::make_shared<CollectingSink>();

  Fixture() {
    db.create_table("Stocks", rel::Schema::of({{"name", ValueType::kString},
                                               {"price", ValueType::kInt}}));
    db.insert("Stocks", {Value("DEC"), Value(150)});
    db.insert("Stocks", {Value("IBM"), Value(80)});
  }

  CqSpec spec(const std::string& name, TriggerPtr trigger, StopPtr stop = nullptr) {
    return CqSpec::from_sql(name, "SELECT * FROM Stocks WHERE price > 120",
                            std::move(trigger), std::move(stop));
  }
};

TEST(CqManager, InstallRunsInitialExecution) {
  Fixture f;
  const CqHandle h = f.manager.install(f.spec("q", triggers::on_change()), f.sink);
  EXPECT_TRUE(f.manager.contains(h));
  ASSERT_EQ(f.sink->notifications().size(), 1u);
  EXPECT_EQ(f.sink->notifications()[0].sequence, 0u);
  EXPECT_EQ(f.sink->notifications()[0].complete->size(), 1u);
  EXPECT_EQ(f.db.zones().active_count(), 1u);
}

TEST(CqManager, PollExecutesFiredTriggers) {
  Fixture f;
  f.manager.install(f.spec("q", triggers::on_change()), f.sink);
  EXPECT_EQ(f.manager.poll(), 0u);  // nothing changed yet
  f.db.insert("Stocks", {Value("MAC"), Value(130)});
  EXPECT_EQ(f.manager.poll(), 1u);
  ASSERT_EQ(f.sink->notifications().size(), 2u);
  EXPECT_EQ(f.sink->notifications()[1].delta.inserted.size(), 1u);
  EXPECT_EQ(f.manager.poll(), 0u);  // consumed
}

TEST(CqManager, EagerModeExecutesOnCommit) {
  Fixture f;
  f.manager.install(f.spec("q", triggers::on_change()), f.sink);
  f.manager.set_eager(true);
  f.db.insert("Stocks", {Value("MAC"), Value(130)});
  // No poll needed: the commit hook drove the execution.
  ASSERT_EQ(f.sink->notifications().size(), 2u);
  EXPECT_EQ(f.sink->notifications()[1].delta.inserted.size(), 1u);
}

TEST(CqManager, EagerIgnoresIrrelevantTables) {
  Fixture f;
  f.db.create_table("Other", rel::Schema::of({{"x", ValueType::kInt}}));
  f.manager.install(f.spec("q", triggers::on_change()), f.sink);
  f.manager.set_eager(true);
  f.db.insert("Other", {Value(1)});
  EXPECT_EQ(f.sink->notifications().size(), 1u);  // only the initial one
}

TEST(CqManager, PeriodicTriggerViaVirtualClock) {
  Fixture f;
  auto& clock = dynamic_cast<common::VirtualClock&>(f.db.clock());
  f.manager.install(f.spec("q", triggers::periodic(Duration(100))), f.sink);
  f.db.insert("Stocks", {Value("MAC"), Value(130)});
  EXPECT_EQ(f.manager.poll(), 0u);  // interval not yet elapsed
  clock.advance(Duration(100));
  EXPECT_EQ(f.manager.poll(), 1u);
}

TEST(CqManager, StopConditionUninstallsCq) {
  Fixture f;
  const CqHandle h = f.manager.install(
      f.spec("q", triggers::on_change(), stop::after_executions(2)), f.sink);
  f.db.insert("Stocks", {Value("MAC"), Value(130)});
  f.manager.poll();  // second execution -> stop fires
  EXPECT_FALSE(f.manager.contains(h));
  EXPECT_EQ(f.manager.active_count(), 0u);
  EXPECT_EQ(f.db.zones().active_count(), 0u);
}

TEST(CqManager, ExecuteNowBypassesTrigger) {
  Fixture f;
  const CqHandle h = f.manager.install(f.spec("q", triggers::manual()), f.sink);
  f.db.insert("Stocks", {Value("MAC"), Value(130)});
  EXPECT_EQ(f.manager.poll(), 0u);  // manual trigger never fires
  const Notification n = f.manager.execute_now(h);
  EXPECT_EQ(n.delta.inserted.size(), 1u);
}

TEST(CqManager, RemoveReleasesZone) {
  Fixture f;
  const CqHandle h = f.manager.install(f.spec("q", triggers::on_change()), f.sink);
  f.manager.remove(h);
  EXPECT_EQ(f.db.zones().active_count(), 0u);
  EXPECT_THROW(f.manager.remove(h), common::NotFound);
  EXPECT_THROW(static_cast<void>(f.manager.execute_now(h)), common::NotFound);
  EXPECT_THROW(static_cast<void>(f.manager.cq(h)), common::NotFound);
}

TEST(CqManager, MultipleCqsIndependentCursors) {
  Fixture f;
  auto sink_a = std::make_shared<CollectingSink>();
  auto sink_b = std::make_shared<CollectingSink>();
  f.manager.install(f.spec("a", triggers::on_change()), sink_a);
  f.db.insert("Stocks", {Value("MAC"), Value(130)});
  f.manager.poll();  // only A exists; consumes the change
  f.manager.install(f.spec("b", triggers::on_change()), sink_b);
  f.db.insert("Stocks", {Value("SUN"), Value(140)});
  f.manager.poll();
  // A saw both changes across two executions; B only the second.
  EXPECT_EQ(sink_a->notifications().size(), 3u);
  EXPECT_EQ(sink_b->notifications().size(), 2u);
  EXPECT_EQ(sink_b->notifications()[1].delta.inserted.size(), 1u);
}

TEST(CqManager, GarbageCollectionRespectsSlowestCq) {
  Fixture f;
  // Fast CQ re-executes on every poll; slow CQ never fires.
  f.manager.install(f.spec("fast", triggers::on_change()), nullptr);
  f.manager.install(f.spec("slow", triggers::manual()), nullptr);
  for (int i = 0; i < 10; ++i) {
    f.db.insert("Stocks", {Value("S" + std::to_string(i)), Value(130)});
    f.manager.poll();
  }
  // The slow CQ still needs everything since its installation: only the
  // two fixture rows loaded *before* any CQ existed are reclaimable.
  EXPECT_EQ(f.manager.collect_garbage(), 2u);
  EXPECT_EQ(f.db.delta("Stocks").size(), 10u);
}

TEST(CqManager, GarbageCollectionReclaimsAfterAllCqsAdvance) {
  Fixture f;
  const CqHandle h = f.manager.install(f.spec("only", triggers::on_change()), nullptr);
  for (int i = 0; i < 10; ++i) {
    f.db.insert("Stocks", {Value("S" + std::to_string(i)), Value(130)});
  }
  f.manager.poll();  // CQ consumes all 10 changes; its zone advances
  // 10 new rows + the 2 fixture rows predating the CQ.
  EXPECT_EQ(f.manager.collect_garbage(), 12u);
  EXPECT_TRUE(f.db.delta("Stocks").empty());
  // And the CQ still works after GC.
  f.db.insert("Stocks", {Value("NEW"), Value(200)});
  EXPECT_EQ(f.manager.poll(), 1u);
  EXPECT_TRUE(f.manager.contains(h));
}

TEST(CqManager, MetricsAccumulate) {
  Fixture f;
  f.manager.install(f.spec("q", triggers::on_change()), nullptr);
  f.db.insert("Stocks", {Value("MAC"), Value(130)});
  f.manager.poll();
  EXPECT_GE(f.manager.metrics().get(common::metric::kQueryExecutions), 2);
  EXPECT_GE(f.manager.metrics().get(common::metric::kTriggerChecks), 1);
}

TEST(CqManager, CountsSuppressedVersusFiredTriggerChecks) {
  Fixture f;
  const CqHandle h =
      f.manager.install(f.spec("q", triggers::periodic(Duration(100))), f.sink);
  f.db.insert("Stocks", {Value("MAC"), Value(130)});
  EXPECT_EQ(f.manager.poll(), 0u);  // interval not elapsed: suppressed
  EXPECT_EQ(f.manager.stats(h).trigger_checks, 1u);
  EXPECT_EQ(f.manager.stats(h).suppressed, 1u);
  EXPECT_EQ(f.manager.stats(h).fired, 0u);
  EXPECT_GE(f.manager.metrics().get(common::metric::kTriggersSuppressed), 1);

  auto& clock = dynamic_cast<common::VirtualClock&>(f.db.clock());
  clock.advance(Duration(100));
  EXPECT_EQ(f.manager.poll(), 1u);  // now it fires
  EXPECT_EQ(f.manager.stats(h).trigger_checks, 2u);
  EXPECT_EQ(f.manager.stats(h).suppressed, 1u);
  EXPECT_EQ(f.manager.stats(h).fired, 1u);
  EXPECT_EQ(f.manager.stats(h).executions, 2u);
  EXPECT_GE(f.manager.metrics().get(common::metric::kTriggersFired), 1);
}

TEST(CqManager, LastDraStatsExposed) {
  Fixture f;
  const CqHandle h = f.manager.install(f.spec("q", triggers::manual()), nullptr);
  f.db.insert("Stocks", {Value("MAC"), Value(130)});
  (void)f.manager.execute_now(h);
  EXPECT_EQ(f.manager.last_dra_stats(h).changed_relations, 1u);
  EXPECT_THROW((void)f.manager.last_dra_stats(h + 1), common::NotFound);
}

TEST(CqManager, EagerToPeriodicSwitch) {
  Fixture f;
  f.manager.install(f.spec("q", triggers::on_change()), f.sink);
  f.manager.set_eager(true);
  EXPECT_TRUE(f.manager.eager());
  f.manager.set_eager(false);
  f.db.insert("Stocks", {Value("MAC"), Value(130)});
  EXPECT_EQ(f.sink->notifications().size(), 1u);  // no eager dispatch
  EXPECT_EQ(f.manager.poll(), 1u);                // but poll still works
}

// ---- parallel evaluation engine ----

/// Full serialization of one notification (no row truncation) so streams
/// from different thread counts can be compared byte-for-byte.
std::string note_string(const Notification& n) {
  std::string s = n.cq_name + "#" + std::to_string(n.sequence) + "@" +
                  std::to_string(n.at.ticks()) + "\n" + n.delta.to_string();
  if (n.complete) s += "complete:\n" + n.complete->to_string(n.complete->size());
  if (n.aggregate) s += "aggregate:\n" + n.aggregate->to_string(n.aggregate->size());
  return s;
}

struct ScenarioRun {
  std::vector<std::string> stream;  // serialized notifications, sink order
  std::map<std::string, CqStats> stats;
};

/// A mixed workload — several delivery modes and strategies, two base
/// tables, a join, an aggregate — driven by a fixed commit script. The
/// determinism contract says the observable output is a pure function of
/// the script, independent of `threads`.
ScenarioRun run_scenario(std::size_t threads, bool eager) {
  cat::Database db;
  db.create_table("Stocks", rel::Schema::of({{"name", ValueType::kString},
                                             {"price", ValueType::kInt}}));
  db.create_table("Trades", rel::Schema::of({{"sym", ValueType::kString},
                                             {"qty", ValueType::kInt}}));
  db.insert("Stocks", {Value("DEC"), Value(150)});
  db.insert("Stocks", {Value("IBM"), Value(80)});
  db.insert("Trades", {Value("DEC"), Value(5)});

  CqManager manager(db);
  manager.set_parallelism(threads);
  auto sink = std::make_shared<CollectingSink>();

  auto install = [&](const std::string& name, const std::string& sql,
                     DeliveryMode mode) {
    manager.install(CqSpec::from_sql(name, sql, triggers::on_change(), nullptr, mode),
                    sink);
  };
  install("hi", "SELECT * FROM Stocks WHERE price > 120", DeliveryMode::kDifferential);
  // Stops after its second execution, mid-run, with CQs after it in the
  // same dispatch.
  manager.install(CqSpec::from_sql("until", "SELECT * FROM Stocks", triggers::on_change(),
                                   stop::after_executions(2), DeliveryMode::kDifferential),
                  sink);
  install("lo", "SELECT * FROM Stocks WHERE price < 100", DeliveryMode::kComplete);
  install("names", "SELECT DISTINCT name FROM Stocks", DeliveryMode::kDifferential);
  install("vol", "SELECT * FROM Trades WHERE qty > 10", DeliveryMode::kDifferential);
  install("cnt", "SELECT COUNT(*) FROM Trades", DeliveryMode::kDifferential);
  install("traded", "SELECT s.name FROM Stocks s, Trades t WHERE s.name = t.sym",
          DeliveryMode::kDifferential);

  if (eager) manager.set_eager(true);

  const auto step = [&] {
    if (!eager) (void)manager.poll();
  };
  db.insert("Stocks", {Value("MAC"), Value(130)});
  step();
  {
    auto txn = db.begin();
    txn.insert("Trades", {Value("MAC"), Value(40)});
    txn.insert("Trades", {Value("IBM"), Value(2)});
    txn.commit();
  }
  step();
  {
    // Cross-table transaction: both batches must see one coherent snapshot.
    auto txn = db.begin();
    txn.insert("Stocks", {Value("QLI"), Value(145)});
    txn.insert("Trades", {Value("QLI"), Value(60)});
    txn.commit();
  }
  step();
  db.erase("Stocks", db.table("Stocks").rows().front().tid());
  step();
  if (!eager) (void)manager.poll();  // drain any leftovers

  ScenarioRun run;
  for (const auto& n : sink->notifications()) run.stream.push_back(note_string(n));
  run.stats = manager.cq_stats();
  return run;
}

void expect_identical(const ScenarioRun& a, const ScenarioRun& b) {
  ASSERT_EQ(a.stream.size(), b.stream.size());
  for (std::size_t i = 0; i < a.stream.size(); ++i) {
    EXPECT_EQ(a.stream[i], b.stream[i]) << "notification " << i << " diverged";
  }
  ASSERT_EQ(a.stats.size(), b.stats.size());
  for (const auto& [name, sa] : a.stats) {
    const CqStats& sb = b.stats.at(name);
    EXPECT_EQ(sa.executions, sb.executions) << name;
    EXPECT_EQ(sa.trigger_checks, sb.trigger_checks) << name;
    EXPECT_EQ(sa.fired, sb.fired) << name;
    EXPECT_EQ(sa.suppressed, sb.suppressed) << name;
    EXPECT_EQ(sa.delta_rows_consumed, sb.delta_rows_consumed) << name;
    EXPECT_EQ(sa.rows_delivered, sb.rows_delivered) << name;
    EXPECT_EQ(sa.last_execution, sb.last_execution) << name;
    EXPECT_EQ(sa.finished, sb.finished) << name;
  }
}

TEST(CqManagerParallel, PolledDispatchMatchesSequential) {
  const ScenarioRun seq = run_scenario(1, /*eager=*/false);
  ASSERT_FALSE(seq.stream.empty());
  expect_identical(seq, run_scenario(2, false));
  expect_identical(seq, run_scenario(4, false));
}

TEST(CqManagerParallel, EagerDispatchMatchesSequential) {
  const ScenarioRun seq = run_scenario(1, /*eager=*/true);
  ASSERT_FALSE(seq.stream.empty());
  expect_identical(seq, run_scenario(2, true));
  expect_identical(seq, run_scenario(4, true));
}

TEST(CqManagerParallel, StopConditionMidRunMatchesAcrossLanes) {
  for (const bool eager : {false, true}) {
    SCOPED_TRACE(eager ? "eager" : "polled");
    const ScenarioRun seq = run_scenario(1, eager);
    const CqStats& until = seq.stats.at("until");
    EXPECT_TRUE(until.finished);
    EXPECT_EQ(until.executions, 2u);
    EXPECT_FALSE(seq.stats.at("traded").finished);
    expect_identical(seq, run_scenario(4, eager));
  }
}

TEST(CqManagerParallel, MoreLanesThanCqsMatchesSequential) {
  expect_identical(run_scenario(1, true), run_scenario(16, true));
}

/// Two CQs relevant to every commit, where the first one's sink commits
/// into the table the second reads. Evaluate-then-merge evaluates both
/// before any sink runs, so "b" sees the sink's row at the next dispatch,
/// never mid-dispatch — at every lane count.
std::vector<std::string> run_mutating_sink(std::size_t threads, bool eager) {
  cat::Database db;
  db.create_table("A", rel::Schema::of({{"k", ValueType::kInt}}));
  db.create_table("B", rel::Schema::of({{"k", ValueType::kInt}}));
  CqManager manager(db);
  manager.set_parallelism(threads);
  auto sink = std::make_shared<CollectingSink>();
  std::int64_t echoes = 0;
  auto echo = std::make_shared<CallbackSink>([&](const Notification& n) {
    sink->on_result(n);
    if (n.sequence > 0) db.insert("B", {Value(1000 + echoes++)});
  });
  manager.install(CqSpec::from_sql("a", "SELECT * FROM A", triggers::on_change()), echo);
  manager.install(CqSpec::from_sql("b", "SELECT * FROM B", triggers::on_change()), sink);
  if (eager) manager.set_eager(true);

  for (std::int64_t i = 1; i <= 3; ++i) {
    auto txn = db.begin();
    txn.insert("A", {Value(i)});
    txn.insert("B", {Value(i)});
    txn.commit();
    if (!eager) (void)manager.poll();
  }
  std::vector<std::string> stream;
  for (const auto& n : sink->notifications()) stream.push_back(note_string(n));
  return stream;
}

TEST(CqManagerParallel, CommittingSinkStreamsMatchAcrossLanes) {
  for (const bool eager : {false, true}) {
    SCOPED_TRACE(eager ? "eager" : "polled");
    const std::vector<std::string> inline_stream = run_mutating_sink(1, eager);
    EXPECT_EQ(inline_stream, run_mutating_sink(4, eager));

    // a#0, b#0, then a#i, b#i per commit. b#1 holds only the commit's own
    // row; the echo of a#1 (1000) arrives with b#2.
    ASSERT_EQ(inline_stream.size(), 8u);
    EXPECT_EQ(inline_stream[3].rfind("b#1@", 0), 0u);
    EXPECT_EQ(inline_stream[3].find("1000"), std::string::npos);
    EXPECT_EQ(inline_stream[5].rfind("b#2@", 0), 0u);
    EXPECT_NE(inline_stream[5].find("1000"), std::string::npos);
  }
}

/// Throws from should_fire while armed.
class FailingTrigger final : public Trigger {
 public:
  explicit FailingTrigger(std::shared_ptr<bool> armed) : armed_(std::move(armed)) {}
  bool should_fire(const TriggerContext& context) const override {
    if (*armed_) throw std::runtime_error("trigger failure");
    return triggers::on_change()->should_fire(context);
  }
  std::string describe() const override { return "failing"; }

 private:
  std::shared_ptr<bool> armed_;
};

TEST(CqManager, InlineDispatchStopsAtFailingTrigger) {
  Fixture f;
  auto armed = std::make_shared<bool>(true);
  for (const char* name : {"c0", "c1", "c2"}) {
    TriggerPtr trigger = std::string(name) == "c1"
                             ? std::make_shared<FailingTrigger>(armed)
                             : triggers::on_change();
    f.manager.install(f.spec(name, std::move(trigger)), f.sink);
  }
  f.manager.set_eager(true);
  f.sink->clear();

  // The commit is durable; the trigger's exception leaves commit().
  EXPECT_THROW(f.db.insert("Stocks", {Value("MAC"), Value(130)}), std::runtime_error);
  ASSERT_EQ(f.sink->notifications().size(), 1u);  // c0, before the failure
  EXPECT_EQ(f.sink->notifications()[0].cq_name, "c0");
  EXPECT_EQ(f.manager.cq_stats().at("c2").trigger_checks, 0u);  // never reached

  // The dispatch guard was restored: the next commit dispatches, and the
  // CQs at and after the failure catch up on both rows.
  *armed = false;
  f.db.insert("Stocks", {Value("SUN"), Value(125)});
  const auto& notes = f.sink->notifications();
  ASSERT_EQ(notes.size(), 4u);
  EXPECT_EQ(notes[1].cq_name, "c0");
  EXPECT_EQ(notes[1].delta.inserted.size(), 1u);
  EXPECT_EQ(notes[2].cq_name, "c1");
  EXPECT_EQ(notes[2].delta.inserted.size(), 2u);
  EXPECT_EQ(notes[3].cq_name, "c2");
  EXPECT_EQ(notes[3].delta.inserted.size(), 2u);
}

/// Three CQs on every commit; the middle one's sink throws once. The CQs
/// around it have already executed when it throws, so at every lane count
/// both are delivered in the same dispatch and their streams stay gapless.
TEST(CqManagerParallel, ThrowingSinkLosesNoOtherNotification) {
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    Fixture f;
    f.manager.set_parallelism(threads);
    bool armed = false;
    std::shared_ptr<ResultSink> faulty = std::make_shared<CallbackSink>([&](const Notification& n) {
      if (armed) {
        armed = false;
        throw std::runtime_error("sink failure");
      }
      f.sink->on_result(n);
    });
    for (const char* name : {"c0", "c1", "c2"}) {
      f.manager.install(f.spec(name, triggers::on_change()),
                        std::string(name) == "c1" ? faulty : f.sink);
    }
    f.manager.set_eager(true);
    f.sink->clear();

    armed = true;
    EXPECT_THROW(f.db.insert("Stocks", {Value("MAC"), Value(130)}), std::runtime_error);
    f.db.insert("Stocks", {Value("SUN"), Value(125)});

    std::map<std::string, std::vector<std::uint64_t>> sequences;
    std::map<std::string, std::size_t> rows;
    for (const auto& n : f.sink->notifications()) {
      sequences[n.cq_name].push_back(n.sequence);
      rows[n.cq_name] += n.delta.inserted.size();
    }
    for (const char* name : {"c0", "c2"}) {
      EXPECT_EQ(sequences[name], (std::vector<std::uint64_t>{1, 2})) << name;
      EXPECT_EQ(rows[name], 2u) << name;
    }
    // c1's first delta went to the throwing sink; its stream resumes at 2.
    EXPECT_EQ(sequences["c1"], (std::vector<std::uint64_t>{2})) << "c1";
  }
}

TEST(CqManagerParallel, SetParallelismClampsAndReports) {
  Fixture f;
  EXPECT_EQ(f.manager.parallelism(), 1u);
  f.manager.set_parallelism(4);
  EXPECT_EQ(f.manager.parallelism(), 4u);
  f.manager.set_parallelism(0);  // 0 is shorthand for "sequential"
  EXPECT_EQ(f.manager.parallelism(), 1u);
}

TEST(CqManagerParallel, StopConditionsHonoredInParallelMode) {
  Fixture f;
  f.manager.set_parallelism(4);
  const CqHandle h = f.manager.install(
      f.spec("until", triggers::on_change(), stop::after_executions(2)), f.sink);
  f.db.insert("Stocks", {Value("MAC"), Value(130)});
  (void)f.manager.poll();
  f.db.insert("Stocks", {Value("SUN"), Value(125)});
  (void)f.manager.poll();
  EXPECT_FALSE(f.manager.contains(h));  // stop reached and uninstalled
  EXPECT_TRUE(f.manager.cq_stats().at("until").finished);
}

}  // namespace
}  // namespace cq::core
