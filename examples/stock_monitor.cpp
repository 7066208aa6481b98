// Stock-market monitoring: several continual queries with different
// trigger conditions and delivery modes over a live market, including the
// intro's Q3-style price-band query, driven by the CQ manager with eager
// (per-commit) trigger checking and periodic garbage collection.
#include <iostream>

#include "common/rng.hpp"
#include "cq/manager.hpp"
#include "workload/stocks.hpp"

int main() {
  using namespace cq;

  common::Rng rng(42);
  cat::Database db;
  wl::StocksWorkload market(db, "Stocks", {.symbols = 2000}, rng);
  core::CqManager manager(db);

  // CQ 1: differential watch on cheap stocks, re-run on every relevant
  // commit (eager strategy, Section 5.3 choice 1).
  auto cheap_sink = std::make_shared<core::CollectingSink>();
  manager.install(
      core::CqSpec::from_sql("cheap-stocks",
                             "SELECT symbol, price FROM Stocks WHERE price < 15",
                             core::triggers::on_change()),
      cheap_sink);

  // CQ 2: complete result of a band query, refreshed only when at least
  // 500 tuples changed (an epsilon spec on update volume).
  auto band_sink = std::make_shared<core::CollectingSink>();
  manager.install(
      core::CqSpec::from_sql(
          "mid-band", "SELECT symbol, price FROM Stocks WHERE price BETWEEN 90 AND 110",
          core::triggers::change_count(500), nullptr, core::DeliveryMode::kComplete),
      band_sink);

  // CQ 3: deletion notification — tell me when big-volume listings vanish
  // (the kind of query append-only continuous queries cannot express).
  auto delist_sink = std::make_shared<core::CollectingSink>();
  const core::CqHandle delisted = manager.install(
      core::CqSpec::from_sql("delisted",
                             "SELECT symbol FROM Stocks WHERE volume > 50000",
                             core::triggers::on_change(), nullptr,
                             core::DeliveryMode::kDeletionsOnly),
      delist_sink);

  std::cout << "Installed " << manager.active_count() << " continual queries\n\n";

  // --- run ten market sessions -----------------------------------------
  for (int session = 1; session <= 10; ++session) {
    market.step(/*trades=*/400, /*listings=*/20, /*delistings=*/15);
    manager.poll();
    const std::size_t reclaimed = manager.collect_garbage();

    std::cout << "session " << session << ": ";
    const auto& cheap = cheap_sink->notifications().back();
    std::cout << "cheap Δ+" << cheap.delta.inserted.size() << "/-"
              << cheap.delta.deleted.size();
    const auto& band = band_sink->notifications().back();
    std::cout << "  band |result|=" << (band.complete ? band.complete->size() : 0)
              << " (exec #" << band.sequence << ")";
    const auto& delist = delist_sink->notifications().back();
    std::cout << "  delisted=" << delist.delta.deleted.size();
    std::cout << "  gc=" << reclaimed << " rows\n";
  }

  std::cout << "\nWork counters across all executions:\n"
            << manager.metrics().to_string();
  const core::DraStats last = manager.last_dra_stats(delisted);
  std::cout << "Last DRA of 'delisted': " << last.changed_relations
            << " changed relations, " << last.terms_evaluated << " terms, "
            << last.delta_rows_read << " delta rows read\n";
  return 0;
}
