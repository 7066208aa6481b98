// Property test of the commit path: random multi-op transactions over
// three tables, with and without maintained indexes, checked after every
// transaction against a model that runs the plain nested-map algorithm
// (validate over a per-table liveness map, apply composing a per-(table,
// tid) net change, append the changes in map order). Base rows, byte
// totals, index contents and every delta row (tid, halves, ts, seq) must
// agree, and invalid transactions must throw the model's exception type
// and message.
//
// Every valid transaction is first committed with a fault injected after
// each op in turn: each failure must leave the database and the queued
// ops as they were, and the final retried commit must match both the
// model and a second database that committed the same ops with no fault.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <vector>

#include "catalog/database.hpp"
#include "catalog/transaction.hpp"
#include "common/error.hpp"
#include "common/observability.hpp"
#include "common/rng.hpp"

namespace cq::cat {
namespace {

using common::Timestamp;
using rel::TupleId;
using rel::Value;
using rel::ValueType;
using Values = std::vector<Value>;

// Created in this order; the net-effect rows are appended in name order.
const std::vector<std::string> kTables = {"orders", "accounts", "zeta"};

enum class Kind { kInsert, kDelete, kModify };

struct Op {
  Kind kind;
  std::string table;
  TupleId tid;
  Values values;
};

struct ModelRow {
  TupleId tid;
  std::optional<Values> old_values;
  std::optional<Values> new_values;
  Timestamp ts;
  std::uint64_t seq;
};

struct ModelTable {
  std::map<TupleId, Values> rows;
  std::vector<ModelRow> log;
  std::uint64_t next_seq = 0;
};

using Model = std::map<std::string, ModelTable>;

/// The reference validation: throws exactly what a commit of `ops` must
/// throw.
void model_validate(const Model& model, const std::vector<Op>& ops) {
  std::map<std::string, std::map<TupleId, bool>> exists;
  for (const auto& op : ops) {
    auto& table_exists = exists[op.table];
    auto it = table_exists.find(op.tid);
    const bool live =
        it != table_exists.end() ? it->second : model.at(op.table).rows.contains(op.tid);
    switch (op.kind) {
      case Kind::kInsert:
        if (live) {
          throw common::InvalidArgument("Transaction: duplicate insert of tid " +
                                        op.tid.to_string());
        }
        table_exists[op.tid] = true;
        break;
      case Kind::kDelete:
        if (!live) {
          throw common::NotFound("Transaction: delete of missing tid " +
                                 op.tid.to_string() + " in '" + op.table + "'");
        }
        table_exists[op.tid] = false;
        break;
      case Kind::kModify:
        if (!live) {
          throw common::NotFound("Transaction: modify of missing tid " +
                                 op.tid.to_string() + " in '" + op.table + "'");
        }
        break;
    }
  }
}

void model_apply(Model& model, const std::vector<Op>& ops, Timestamp ts) {
  struct NetChange {
    std::optional<Values> old_values;
    std::optional<Values> new_values;
    bool pre_existing = false;
  };
  std::map<std::string, std::map<TupleId, NetChange>> net;
  for (const auto& op : ops) {
    auto& rows = model[op.table].rows;
    auto [it, fresh] = net[op.table].try_emplace(op.tid);
    NetChange& change = it->second;
    switch (op.kind) {
      case Kind::kInsert:
        rows[op.tid] = op.values;
        change.new_values = op.values;
        break;
      case Kind::kDelete:
        if (fresh) {
          change.pre_existing = true;
          change.old_values = rows.at(op.tid);
        }
        rows.erase(op.tid);
        change.new_values.reset();
        break;
      case Kind::kModify:
        if (fresh) {
          change.pre_existing = true;
          change.old_values = rows.at(op.tid);
        }
        rows[op.tid] = op.values;
        change.new_values = op.values;
        break;
    }
  }
  for (auto& [name, changes] : net) {
    ModelTable& table = model[name];
    for (auto& [tid, change] : changes) {
      if (!change.pre_existing && !change.new_values) continue;
      table.log.push_back(ModelRow{tid, change.pre_existing ? change.old_values : std::nullopt,
                                   change.new_values, ts, table.next_seq++});
    }
  }
}

/// Rows of `table` keyed by tid.
std::map<TupleId, Values> rows_of(const Database& db, const std::string& table) {
  std::map<TupleId, Values> out;
  for (const auto& row : db.table(table).rows()) out.emplace(row.tid(), row.values());
  return out;
}

std::int64_t published_bytes(const Database& db, const std::string& table) {
  db.refresh_resource_gauges();
  return common::obs::global()
      .gauge(common::obs::gauge::kRelationBytes, {{"table", table}})
      .get();
}

/// Every observable of `db` agrees with `model`.
void expect_matches(const Database& db, const Model& model, bool indexed) {
  for (const auto& name : kTables) {
    SCOPED_TRACE(name);
    const ModelTable& m = model.at(name);
    ASSERT_EQ(rows_of(db, name), m.rows);

    std::size_t bytes = 0;
    for (const auto& [tid, values] : m.rows) bytes += rel::Tuple(values, tid).byte_size();
    EXPECT_EQ(published_bytes(db, name), static_cast<std::int64_t>(bytes));

    if (indexed) {
      const rel::MaintainedIndex& index = db.index(name, "by_k");
      std::map<Values, std::set<TupleId>> expected;
      for (const auto& [tid, values] : m.rows) expected[{values[0]}].insert(tid);
      EXPECT_EQ(index.entries(), m.rows.size());
      EXPECT_EQ(index.distinct_keys(), expected.size());
      for (const auto& [key, tids] : expected) {
        const auto& probed = index.probe(key);
        EXPECT_EQ(std::set<TupleId>(probed.begin(), probed.end()), tids);
        EXPECT_EQ(probed.size(), tids.size());
      }
    }

    const auto& log = db.delta(name).rows();
    ASSERT_EQ(log.size(), m.log.size());
    for (std::size_t i = 0; i < log.size(); ++i) {
      SCOPED_TRACE(i);
      EXPECT_EQ(log[i].tid, m.log[i].tid);
      EXPECT_EQ(log[i].old_values, m.log[i].old_values);
      EXPECT_EQ(log[i].new_values, m.log[i].new_values);
      EXPECT_EQ(log[i].ts, m.log[i].ts);
      EXPECT_EQ(log[i].seq, m.log[i].seq);
    }
  }
}

Database make_db(bool indexed) {
  Database db;
  for (const auto& name : kTables) {
    db.create_table(name, rel::Schema::of({{"k", ValueType::kInt},
                                           {"s", ValueType::kString},
                                           {"v", ValueType::kInt}}));
    if (indexed) db.create_index(name, "by_k", {"k"});
  }
  return db;
}

Values random_values(common::Rng& rng) {
  // 16 characters: past the small-string buffer, like a real payload.
  std::string s = "payload-";
  for (int i = 0; i < 8; ++i) s += static_cast<char>('a' + rng.uniform_int(0, 25));
  return {Value(rng.uniform_int(0, 6)), Value(std::move(s)), Value(rng.uniform_int(0, 999))};
}

/// Draw one random transaction's ops. Live tids come from `model` plus
/// the transaction's own effects; insert tids are reserved through
/// `probe`, which the caller aborts so the real transactions get the same
/// tids back. With `invalid` set, one op targets a dead tid.
std::vector<Op> random_ops(common::Rng& rng, const Model& model, Transaction& probe,
                           bool invalid) {
  std::vector<Op> ops;
  std::map<std::string, std::set<TupleId>> live;
  for (const auto& [name, table] : model) {
    for (const auto& [tid, values] : table.rows) live[name].insert(tid);
  }
  std::map<std::string, std::set<TupleId>> dead;

  const auto push = [&](Kind kind, const std::string& table, TupleId tid, Values values) {
    if (kind == Kind::kInsert) {
      tid = probe.insert(table, values);
      live[table].insert(tid);
    }
    if (kind == Kind::kDelete) {
      live[table].erase(tid);
      dead[table].insert(tid);
    }
    ops.push_back(Op{kind, table, tid, std::move(values)});
    return tid;
  };
  const auto pick_live = [&](const std::string& table) -> std::optional<TupleId> {
    const auto& tids = live[table];
    if (tids.empty()) return std::nullopt;
    return *std::next(tids.begin(), static_cast<std::ptrdiff_t>(rng.index(tids.size())));
  };

  const int n = static_cast<int>(rng.uniform_int(1, 8));
  for (int i = 0; i < n; ++i) {
    const std::string& table = kTables[rng.index(kTables.size())];
    const double roll = rng.uniform01();
    if (roll < 0.12) {
      // insert -> modify -> erase on one tid: no net effect
      const TupleId tid = push(Kind::kInsert, table, {}, random_values(rng));
      push(Kind::kModify, table, tid, random_values(rng));
      push(Kind::kDelete, table, tid, {});
    } else if (roll < 0.24) {
      // insert -> modify: a net insert of the modified values
      const TupleId tid = push(Kind::kInsert, table, {}, random_values(rng));
      push(Kind::kModify, table, tid, random_values(rng));
    } else if (roll < 0.45) {
      push(Kind::kInsert, table, {}, random_values(rng));
    } else if (auto tid = pick_live(table)) {
      if (roll < 0.65) {
        push(Kind::kModify, table, *tid, random_values(rng));
        if (rng.chance(0.4)) push(Kind::kModify, table, *tid, random_values(rng));
      } else if (roll < 0.8) {
        push(Kind::kDelete, table, *tid, {});
      } else {
        push(Kind::kModify, table, *tid, random_values(rng));
        push(Kind::kDelete, table, *tid, {});
      }
    }
  }
  if (invalid) {
    const std::string& table = kTables[rng.index(kTables.size())];
    const auto& gone = dead[table];
    const TupleId tid = gone.empty() ? TupleId(1u << 20) : *gone.begin();
    const Kind kind = rng.chance(0.5) ? Kind::kDelete : Kind::kModify;
    const auto at = static_cast<std::ptrdiff_t>(rng.index(ops.size() + 1));
    // Slot the bad op anywhere: later ops may also fail; the earliest wins.
    ops.insert(ops.begin() + at,
               Op{kind, table, tid, kind == Kind::kModify ? random_values(rng) : Values{}});
  }
  return ops;
}

void run_property(std::uint64_t seed, bool indexed) {
  SCOPED_TRACE("seed " + std::to_string(seed) + (indexed ? " indexed" : ""));
  common::Rng rng(seed);
  Database faulted = make_db(indexed);
  Database fresh = make_db(indexed);
  Model model;
  for (const auto& name : kTables) model[name];
  int rejected = 0;

  for (int round = 0; round < 120; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const bool invalid = rng.chance(0.15);
    // Draw the ops first, then queue them on both databases in op order
    // (an insert reserves its tid when queued; the aborted probe returns
    // its reservations, so both databases hand out the same tids again).
    std::vector<Op> ops;
    {
      Transaction probe = faulted.begin();
      ops = random_ops(rng, model, probe, invalid);
    }
    Transaction a = faulted.begin();
    Transaction b = fresh.begin();
    for (const auto& op : ops) {
      for (Transaction* txn : {&a, &b}) {
        switch (op.kind) {
          case Kind::kInsert:
            ASSERT_EQ(txn->insert(op.table, op.values), op.tid);
            break;
          case Kind::kDelete:
            txn->erase(op.table, op.tid);
            break;
          case Kind::kModify:
            txn->modify(op.table, op.tid, op.values);
            break;
        }
      }
    }

    std::optional<std::string> expected_error;
    const std::type_info* expected_type = nullptr;
    try {
      model_validate(model, ops);
    } catch (const std::exception& e) {
      expected_error = e.what();
      expected_type = &typeid(e);
    }
    if (expected_error) {
      for (Transaction* txn : {&a, &b}) {
        try {
          txn->commit();
          ADD_FAILURE() << "commit accepted an invalid transaction";
        } catch (const std::exception& e) {
          EXPECT_EQ(typeid(e), *expected_type);
          EXPECT_EQ(std::string(e.what()), *expected_error);
        }
        EXPECT_TRUE(txn->active());
        txn->abort();
      }
      expect_matches(faulted, model, indexed);
      expect_matches(fresh, model, indexed);
      ++rejected;
      continue;
    }

    for (std::size_t k = 1; k <= ops.size(); ++k) {
      a.set_apply_fault_hook_for_testing([k](std::size_t applied) {
        if (applied == k) throw std::runtime_error("injected");
      });
      EXPECT_THROW(a.commit(), std::runtime_error);
      ASSERT_TRUE(a.active());
      ASSERT_EQ(a.pending_ops(), ops.size());
      expect_matches(faulted, model, indexed);
    }
    a.set_apply_fault_hook_for_testing({});
    const Timestamp ts = a.commit();
    EXPECT_EQ(b.commit(), ts);
    model_apply(model, ops, ts);
    expect_matches(faulted, model, indexed);
    expect_matches(fresh, model, indexed);
  }
  EXPECT_GT(rejected, 0);
}

TEST(CommitPath, MatchesNestedMapModelWithoutIndexes) {
  for (std::uint64_t seed : {1u, 2u, 3u}) run_property(seed, /*indexed=*/false);
}

TEST(CommitPath, MatchesNestedMapModelWithIndexes) {
  for (std::uint64_t seed : {11u, 12u, 13u}) run_property(seed, /*indexed=*/true);
}

TEST(CommitPath, EarliestFailingOpThrowsAcrossTables) {
  // The failing ops sit in different groups: the grouped validation must
  // still report the one a sequential walk meets first.
  Database db = make_db(false);
  const TupleId z = db.insert("zeta", {Value(1), Value("z"), Value(1)});
  const TupleId a = db.insert("accounts", {Value(2), Value("a"), Value(2)});
  db.erase("zeta", z);
  db.erase("accounts", a);
  auto txn = db.begin();
  txn.modify("zeta", z, {Value(3), Value("z"), Value(3)});  // op 0: fails
  txn.erase("accounts", a);                                 // op 1: fails too
  try {
    txn.commit();
    FAIL() << "commit accepted a modify of a deleted row";
  } catch (const common::NotFound& e) {
    EXPECT_EQ(std::string(e.what()),
              "Transaction: modify of missing tid " + z.to_string() + " in 'zeta'");
  }
}

}  // namespace
}  // namespace cq::cat
