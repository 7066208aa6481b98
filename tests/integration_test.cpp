// End-to-end scenario test: autonomous sources feeding a DIOM mediator over
// the simulated network; several CQs with different triggers and delivery
// modes running against the mirror; garbage collection interleaved.
// Invariants checked every round:
//   * mirror == source contents,
//   * every complete-mode CQ result == fresh recompute,
//   * differential- and complete-mode CQs over one query deliver equivalent
//     deltas.
#include <gtest/gtest.h>

#include "catalog/transaction.hpp"
#include "cq/propagate.hpp"
#include "diom/file_source.hpp"
#include "diom/mediator.hpp"
#include "diom/network.hpp"
#include "query/parser.hpp"
#include "testing/random_db.hpp"
#include "workload/stocks.hpp"

namespace cq {
namespace {

using core::CqHandle;
using core::CqSpec;
using core::DeliveryMode;
using rel::Value;
using rel::ValueType;

TEST(Integration, MediatedMultiCqScenario) {
  common::Rng rng(2024);

  // --- server side: a stock exchange database + a file-based source ---
  cat::Database exchange;
  wl::StocksWorkload market(exchange, "Stocks", {.symbols = 300}, rng);
  auto files = std::make_shared<diom::FileSource>(
      "Notes", rel::Schema::of({{"sym", ValueType::kString},
                                {"rating", ValueType::kInt}}));
  files->write_line("SYM000001,4");
  files->write_line("SYM000002,9");

  // --- client side ---
  diom::Network net;
  net.set_default_link({.latency_ms = 2.0, .bandwidth_bytes_per_ms = 5000.0});
  diom::Mediator client("analyst", &net);
  client.attach(std::make_shared<diom::RelationalSource>("Stocks", exchange, "Stocks"));
  client.attach(files);

  auto& manager = client.manager();
  auto cheap_sink = std::make_shared<core::CollectingSink>();
  auto complete_sink = std::make_shared<core::CollectingSink>();
  auto join_sink = std::make_shared<core::CollectingSink>();

  const CqHandle cheap = manager.install(
      CqSpec::from_sql("cheap-stocks", "SELECT symbol, price FROM Stocks WHERE price < 40",
                       core::triggers::on_change()),
      cheap_sink);

  const CqHandle complete = manager.install(
      CqSpec::from_sql("cheap-complete", "SELECT symbol, price FROM Stocks WHERE price < 40",
                       core::triggers::on_change(), nullptr, DeliveryMode::kComplete),
      complete_sink);

  const CqHandle rated = manager.install(
      CqSpec::from_sql("rated-stocks",
                       "SELECT s.symbol, n.rating FROM Stocks s, Notes n "
                       "WHERE s.symbol = n.sym AND n.rating > 5",
                       core::triggers::change_count(5), nullptr,
                       DeliveryMode::kComplete),
      join_sink);

  const auto cheap_query = qry::parse_query(
      "SELECT symbol, price FROM Stocks WHERE price < 40");
  const auto rated_query = qry::parse_query(
      "SELECT s.symbol, n.rating FROM Stocks s, Notes n "
      "WHERE s.symbol = n.sym AND n.rating > 5");

  std::size_t line_counter = 2;
  for (int round = 0; round < 12; ++round) {
    // Market activity + occasional analyst notes.
    market.step(/*trades=*/40, /*listings=*/3, /*delistings=*/2);
    if (round % 3 == 0) {
      files->write_line(wl::StocksWorkload::symbol_name(rng.index(300)) + "," +
                        std::to_string(rng.uniform_int(0, 10)));
      ++line_counter;
    }

    client.sync();
    manager.poll();
    if (round % 4 == 3) manager.collect_garbage();

    // Invariant 1: the mirror tracks the sources exactly.
    ASSERT_TRUE(client.database().table("Stocks").equal_multiset(
        exchange.table("Stocks")))
        << "round " << round;
    ASSERT_TRUE(client.database().table("Notes").equal_multiset(files->snapshot()))
        << "round " << round;

    // Invariant 2: complete-mode CQs match fresh recomputes over the mirror.
    if (!complete_sink->notifications().empty()) {
      const auto& last = complete_sink->notifications().back();
      ASSERT_TRUE(last.complete->equal_multiset(
          core::recompute(cheap_query, client.database())))
          << "round " << round;
    }
    if (!join_sink->notifications().empty()) {
      const auto& last = join_sink->notifications().back();
      ASSERT_TRUE(last.complete->equal_multiset(
          core::recompute(rated_query, client.database())))
          << "round " << round;
    }

    // Invariant 3: the differential- and complete-mode CQs over the same
    // query have delivered the same history, delta for delta.
    ASSERT_EQ(cheap_sink->notifications().size(),
              complete_sink->notifications().size())
        << "round " << round;
    if (cheap_sink->notifications().size() > 1) {
      const auto& a = cheap_sink->notifications().back();
      const auto& b = complete_sink->notifications().back();
      ASSERT_TRUE(a.delta.equivalent(b.delta)) << "round " << round;
    }
  }

  // The join CQ (change_count trigger) must have fired at least once.
  EXPECT_GT(join_sink->notifications().size(), 1u);
  EXPECT_TRUE(manager.contains(cheap));
  EXPECT_TRUE(manager.contains(complete));
  EXPECT_TRUE(manager.contains(rated));
  EXPECT_GT(net.total_bytes(), 0u);
}

TEST(Integration, StopConditionEndsSequenceAndFreesZone) {
  common::Rng rng(7);
  cat::Database db;
  testing::make_stock_table(db, "S", 50, rng);
  core::CqManager manager(db);
  auto sink = std::make_shared<core::CollectingSink>();
  manager.install(
      CqSpec::from_sql("bounded", "SELECT * FROM S WHERE price > 500",
                       core::triggers::on_change(), core::stop::after_executions(3)),
      sink);

  for (int i = 0; i < 6; ++i) {
    testing::random_updates(db, "S", 5, {}, rng);
    manager.poll();
  }
  // Initial + 2 more before Stop (satisfied at executions >= 3).
  EXPECT_EQ(sink->notifications().size(), 3u);
  EXPECT_EQ(manager.active_count(), 0u);
  EXPECT_EQ(db.zones().active_count(), 0u);
  // With no CQs left, everything is collectable.
  manager.collect_garbage();
  EXPECT_TRUE(db.delta("S").empty());
}

TEST(Integration, EagerManagerDeliversPerCommit) {
  common::Rng rng(9);
  cat::Database db;
  testing::make_stock_table(db, "S", 30, rng);
  core::CqManager manager(db);
  manager.set_eager(true);
  auto sink = std::make_shared<core::CollectingSink>();
  manager.install(CqSpec::from_sql("eager", "SELECT * FROM S WHERE price >= 0",
                                   core::triggers::on_change()),
                  sink);
  for (int i = 0; i < 5; ++i) {
    db.insert("S", {Value(1000 + i), Value("tech"), Value(i), Value(1)});
  }
  // One notification per commit, plus the initial one.
  ASSERT_EQ(sink->notifications().size(), 6u);
  for (std::size_t i = 1; i < 6; ++i) {
    EXPECT_EQ(sink->notifications()[i].delta.inserted.size(), 1u);
  }
}

}  // namespace
}  // namespace cq
