// Long-haul stress: thousands of mixed updates across several tables, a
// bank of heterogeneous CQs (selection / join / aggregate / distinct, with
// and without indexes), eager + periodic checking, aggressive GC, and a
// mid-stream snapshot/restore — with full recompute cross-checks at every
// checkpoint.
#include <gtest/gtest.h>

#include "catalog/transaction.hpp"
#include "cq/manager.hpp"
#include "cq/propagate.hpp"
#include "persist/snapshot.hpp"
#include "query/evaluate.hpp"
#include "query/parser.hpp"
#include "testing/random_db.hpp"

namespace cq {
namespace {

using core::CqHandle;
using core::CqSpec;
using core::DeliveryMode;

struct WatchedQuery {
  const char* name;
  const char* sql;
};

constexpr WatchedQuery kQueries[] = {
    {"band", "SELECT id, price FROM S WHERE price BETWEEN 200 AND 600"},
    {"join", "SELECT s.id, t.id FROM S s, T t WHERE s.category = t.category "
             "AND s.price > 700 AND t.price < 300"},
    {"sum", "SELECT category, SUM(price) AS total FROM S GROUP BY category"},
    {"distinct", "SELECT DISTINCT category FROM T"},
    {"having", "SELECT category, COUNT(*) AS n FROM S GROUP BY category HAVING n > 10"},
};

void verify_all(core::CqManager& manager, const std::vector<CqHandle>& handles,
                cat::Database& db, int round) {
  for (std::size_t i = 0; i < handles.size(); ++i) {
    const core::Notification n = manager.execute_now(handles[i]);
    const auto query = qry::parse_query(kQueries[i].sql);
    const rel::Relation fresh = qry::evaluate(query, db);
    const rel::Relation& maintained = n.aggregate ? *n.aggregate : *n.complete;
    ASSERT_TRUE(maintained.equal_multiset(fresh))
        << kQueries[i].name << " diverged at round " << round;
  }
}

TEST(Stress, EverythingAtOnce) {
  common::Rng rng(0x57E55);
  cat::Database db;
  testing::make_stock_table(db, "S", 400, rng);
  testing::make_stock_table(db, "T", 250, rng);
  db.create_index("S", "by_cat", {"category"});
  db.create_index("T", "by_cat", {"category"});

  auto manager = std::make_unique<core::CqManager>(db);
  std::vector<CqHandle> handles;
  for (const auto& wq : kQueries) {
    handles.push_back(manager->install(
        CqSpec::from_sql(wq.name, wq.sql, core::triggers::manual(), nullptr,
                         DeliveryMode::kComplete),
        nullptr));
  }

  const testing::UpdateMix mix{.modify_fraction = 0.4, .delete_fraction = 0.25};
  for (int round = 1; round <= 30; ++round) {
    testing::random_updates(db, "S", 40, mix, rng);
    testing::random_updates(db, "T", 25, mix, rng);
    if (round % 3 == 0) {
      verify_all(*manager, handles, db, round);
      manager->collect_garbage();
    }
  }

  // Mid-stream restart: snapshot, reload, re-install everything restored.
  testing::random_updates(db, "S", 30, mix, rng);  // pending at snapshot time
  persist::DecodedSnapshot snap =
      persist::decode_snapshot(persist::encode_snapshot(db, *manager));
  ASSERT_EQ(snap.cqs.size(), std::size(kQueries));

  cat::Database db2 = std::move(snap.db);
  auto manager2 = std::make_unique<core::CqManager>(db2);
  std::vector<CqHandle> handles2;
  for (const auto& entry : snap.cqs) {
    const WatchedQuery* wq = nullptr;
    for (const auto& q : kQueries) {
      if (entry.name == q.name) wq = &q;
    }
    ASSERT_NE(wq, nullptr);
    handles2.push_back(manager2->install_restored(
        CqSpec::from_sql(wq->name, wq->sql, core::triggers::manual(), nullptr,
                         DeliveryMode::kComplete),
        nullptr, entry.last_execution, entry.executions));
  }

  // Keep going on the restored deployment.
  for (int round = 31; round <= 45; ++round) {
    testing::random_updates(db2, "S", 40, mix, rng);
    testing::random_updates(db2, "T", 25, mix, rng);
    if (round % 3 == 0) {
      verify_all(*manager2, handles2, db2, round);
      manager2->collect_garbage();
    }
  }

  // Final sweep, then everything must still be alive and consistent.
  verify_all(*manager2, handles2, db2, 999);
  EXPECT_EQ(manager2->active_count(), std::size(kQueries));
}

TEST(Stress, EagerManagerUnderBurstyCommits) {
  common::Rng rng(0x57E56);
  cat::Database db;
  testing::make_stock_table(db, "S", 200, rng);
  core::CqManager manager(db);
  manager.set_eager(true);
  auto sink = std::make_shared<core::CollectingSink>();
  manager.install(CqSpec::from_sql("eager", "SELECT id FROM S WHERE price > 500",
                                   core::triggers::on_change()),
                  sink);

  const testing::UpdateMix mix{.modify_fraction = 0.5, .delete_fraction = 0.2};
  for (int burst = 0; burst < 50; ++burst) {
    testing::random_updates(db, "S", 10, mix, rng, /*txn_size=*/10);
  }
  // Eager checking delivered per relevant commit; the cumulative picture
  // must still match a recompute.
  core::CqManager probe(db);
  auto probe_sink = std::make_shared<core::CollectingSink>();
  probe.install(CqSpec::from_sql("probe", "SELECT id FROM S WHERE price > 500",
                                 core::triggers::manual(), nullptr,
                                 DeliveryMode::kComplete),
                probe_sink);
  const rel::Relation fresh = *probe_sink->notifications().front().complete;

  // Fold the eager CQ's diffs over its initial result.
  rel::Relation folded = *sink->notifications().front().complete;
  for (std::size_t i = 1; i < sink->notifications().size(); ++i) {
    folded = core::apply_diff(folded,
                              sink->notifications()[i].delta.consolidated());
  }
  EXPECT_TRUE(folded.equal_multiset(fresh));
  EXPECT_GT(sink->notifications().size(), 10u);
}

}  // namespace
}  // namespace cq
