#include "relation/relation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "relation/index.hpp"

namespace cq::rel {
namespace {

Schema two_cols() {
  return Schema::of({{"k", ValueType::kInt}, {"v", ValueType::kString}});
}

TEST(Relation, InsertEraseUpdateByTid) {
  Relation r = Relation::keyed_table(two_cols());
  const TupleId a = r.insert_values({Value(1), Value("one")});
  const TupleId b = r.insert_values({Value(2), Value("two")});
  EXPECT_EQ(r.size(), 2u);
  EXPECT_TRUE(r.contains(a));
  ASSERT_NE(r.find(b), nullptr);
  EXPECT_EQ(r.find(b)->at(1).as_string(), "two");

  const Tuple old = r.update(b, {Value(2), Value("deux")});
  EXPECT_EQ(old.at(1).as_string(), "two");
  EXPECT_EQ(r.find(b)->at(1).as_string(), "deux");

  const Tuple removed = r.erase(a);
  EXPECT_EQ(removed.at(0).as_int(), 1);
  EXPECT_FALSE(r.contains(a));
  EXPECT_EQ(r.size(), 1u);
}

TEST(Relation, PositionalEditsKeepTheOrderOfOtherRows) {
  Relation r(two_cols());
  for (int k : {1, 3, 5}) r.append(Tuple({Value(k), Value("x")}));
  r.insert_at(1, Tuple({Value(2), Value("x")}));
  r.insert_at(4, Tuple({Value(6), Value("x")}));  // == size(): appends
  r.replace_at(2, Tuple({Value(3), Value("y")}));
  r.erase_at(0);
  std::vector<std::string> rows;
  for (const auto& t : r.rows()) rows.push_back(t.to_string());
  EXPECT_EQ(rows, (std::vector<std::string>{Tuple({Value(2), Value("x")}).to_string(),
                                            Tuple({Value(3), Value("y")}).to_string(),
                                            Tuple({Value(5), Value("x")}).to_string(),
                                            Tuple({Value(6), Value("x")}).to_string()}));
  EXPECT_THROW(r.erase_at(4), common::InvalidArgument);
  EXPECT_THROW(r.insert_at(5, Tuple({Value(7), Value("x")})), common::InvalidArgument);
  EXPECT_THROW(r.replace_at(0, Tuple({Value(7)})), common::SchemaMismatch);

  // Position-addressed edits would invalidate a tid index.
  Relation keyed = Relation::keyed_table(two_cols());
  (void)keyed.insert_values({Value(1), Value("x")});
  EXPECT_THROW(keyed.erase_at(0), common::InvalidArgument);
  Relation indexed(two_cols());
  indexed.append(Tuple({Value(1), Value("x")}, TupleId(1)));
  indexed.append(Tuple({Value(2), Value("x")}, TupleId(2)));
  EXPECT_TRUE(indexed.remove_one(Tuple({Value(1), Value("x")}, TupleId(1))));
  EXPECT_THROW(indexed.replace_at(0, Tuple({Value(3), Value("x")})), common::InvalidArgument);
}

TEST(Relation, EraseKeepsIndexConsistent) {
  Relation r = Relation::keyed_table(two_cols());
  std::vector<TupleId> tids;
  for (int i = 0; i < 10; ++i) tids.push_back(r.insert_values({Value(i), Value("x")}));
  r.erase(tids[0]);  // swap-and-pop moves the last row into slot 0
  for (int i = 1; i < 10; ++i) {
    ASSERT_NE(r.find(tids[i]), nullptr);
    EXPECT_EQ(r.find(tids[i])->at(0).as_int(), i);
  }
}

TEST(Relation, DuplicateTidRejected) {
  Relation r = Relation::keyed_table(two_cols());
  r.insert(Tuple({Value(1), Value("a")}, TupleId(7)));
  EXPECT_THROW(r.insert(Tuple({Value(2), Value("b")}, TupleId(7))),
               common::InvalidArgument);
}

TEST(Relation, ArityChecked) {
  Relation r = Relation::keyed_table(two_cols());
  EXPECT_THROW(r.insert_values({Value(1)}), common::SchemaMismatch);
  EXPECT_THROW(r.append(Tuple({Value(1), Value("a"), Value(2)})),
               common::SchemaMismatch);
}

TEST(Relation, EraseMissingThrows) {
  Relation r = Relation::keyed_table(two_cols());
  EXPECT_THROW(r.erase(TupleId(99)), common::NotFound);
  EXPECT_THROW(r.update(TupleId(99), {Value(1), Value("a")}), common::NotFound);
}

// ---- keyed tables: the paged tid → slot table ----

TEST(Relation, SlotTableCoversTidsFarBeyondSize) {
  Relation r = Relation::keyed_table(two_cols());
  // Tids in three different slot pages, none of them near size().
  for (const TupleId::rep raw : {5000u, 9000u, 70001u}) {
    r.insert(Tuple({Value(static_cast<std::int64_t>(raw)), Value("x")}, TupleId(raw)));
  }
  EXPECT_TRUE(r.keyed());
  EXPECT_EQ(r.size(), 3u);
  EXPECT_EQ(r.find(TupleId(9000))->at(0).as_int(), 9000);
  EXPECT_FALSE(r.contains(TupleId(9001)));
  EXPECT_FALSE(r.contains(TupleId(1u << 30)));  // beyond every page: absent
  EXPECT_EQ(r.update(TupleId(70001), {Value(1), Value("y")}).at(1).as_string(), "x");
  EXPECT_EQ(r.find(TupleId(70001))->at(1).as_string(), "y");
  EXPECT_EQ(r.erase(TupleId(5000)).at(0).as_int(), 5000);
  EXPECT_FALSE(r.contains(TupleId(5000)));
  EXPECT_EQ(r.find(TupleId(70001))->at(0).as_int(), 1);
  EXPECT_EQ(r.find(TupleId(9000))->at(0).as_int(), 9000);
  // The counter follows the largest tid inserted.
  EXPECT_EQ(r.insert_values({Value(0), Value("z")}), TupleId(70002));
  EXPECT_THROW(r.erase(TupleId(123456789)), common::NotFound);
}

/// Every 64-bit tid can be keyed: tids past the directly indexed pages
/// (2^32, 2^40, 2^64 - 2) insert, update, erase and re-key like low ones.
TEST(Relation, SlotTableKeysTheWholeTidRange) {
  const std::vector<TupleId::rep> high = {TupleId::rep{1} << 32, (TupleId::rep{1} << 40) + 7,
                                          ~TupleId::rep{0} - 1};
  Relation r = Relation::keyed_table(two_cols());
  r.insert_values({Value(0), Value("low")});
  for (const TupleId::rep raw : high) {
    r.insert(Tuple({Value(static_cast<std::int64_t>(raw & 0xffff)), Value("hi")}, TupleId(raw)));
  }
  EXPECT_EQ(r.slot_pages(), 4u);
  for (const TupleId::rep raw : high) {
    ASSERT_NE(r.find(TupleId(raw)), nullptr);
    EXPECT_EQ(r.find(TupleId(raw))->tid(), TupleId(raw));
    EXPECT_FALSE(r.contains(TupleId(raw + 1)));
  }
  EXPECT_THROW(r.insert(Tuple({Value(1), Value("dup")}, TupleId(high[1]))),
               common::InvalidArgument);
  EXPECT_EQ(r.update(TupleId(high[1]), {Value(8), Value("upd")}).at(1).as_string(), "hi");
  EXPECT_EQ(r.find(TupleId(high[1]))->at(1).as_string(), "upd");
  EXPECT_EQ(r.erase(TupleId(high[0])).tid(), TupleId(high[0]));
  EXPECT_FALSE(r.contains(TupleId(high[0])));
  EXPECT_EQ(r.slot_pages(), 3u);  // the emptied page is released
  EXPECT_THROW(r.erase(TupleId(high[0])), common::NotFound);
  // The counter follows the largest tid, past the 32-bit range.
  EXPECT_EQ(r.reserve_tid(), TupleId(~TupleId::rep{0}));

  // Re-keying the rows (as a snapshot restore does) finds them all again.
  Relation decoded(two_cols());
  for (const auto& row : r.rows()) decoded.append(row);
  decoded.key_by_tid();
  ASSERT_EQ(decoded.size(), r.size());
  for (const auto& row : r.rows()) {
    ASSERT_NE(decoded.find(row.tid()), nullptr);
    EXPECT_TRUE(decoded.find(row.tid())->same_values(row));
  }
  EXPECT_EQ(decoded.erase(TupleId(high[2])).at(1).as_string(), "hi");
  EXPECT_EQ(decoded.find(TupleId(high[1]))->at(1).as_string(), "upd");
}

/// Pages are freed when their last row leaves, so a table whose size stays
/// steady under churn keeps a steady slot-table footprint however many tids
/// it has issued.
TEST(Relation, SlotPagesFollowLiveRowsUnderChurn) {
  constexpr std::size_t kLive = 1000;
  constexpr std::size_t kCycles = 200'000;  // ~50 pages' worth of tids
  Relation r = Relation::keyed_table(two_cols());
  std::vector<TupleId> fifo;
  for (std::size_t i = 0; i < kLive; ++i) fifo.push_back(r.insert_values({Value(1), Value("x")}));
  std::size_t head = 0;
  std::size_t max_pages = 0;
  for (std::size_t c = 0; c < kCycles; ++c) {
    fifo.push_back(r.insert_values({Value(2), Value("y")}));
    r.erase(fifo[head++]);
    max_pages = std::max(max_pages, r.slot_pages());
  }
  EXPECT_EQ(r.size(), kLive);
  EXPECT_GT(r.reserve_tid().raw(), kCycles);
  // 1000 consecutive live tids span at most two 4096-slot pages.
  EXPECT_LE(max_pages, 2u);
  for (std::size_t i = head; i < fifo.size(); ++i) ASSERT_TRUE(r.contains(fifo[i]));

  // Random erasure: survivors pin their pages, but every page is released
  // once the table is emptied.
  std::mt19937 rng(7);
  std::vector<TupleId> live(fifo.begin() + static_cast<std::ptrdiff_t>(head), fifo.end());
  for (std::size_t c = 0; c < 50'000; ++c) {
    std::swap(live[rng() % live.size()], live.back());
    r.erase(live.back());
    live.back() = r.insert_values({Value(3), Value("z")});
  }
  for (const TupleId tid : live) r.erase(tid);
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.slot_pages(), 0u);
  // A copy of a keyed table has its own pages.
  const TupleId again = r.insert_values({Value(4), Value("w")});
  Relation copy = r;
  EXPECT_EQ(copy.erase(again).at(0).as_int(), 4);
  EXPECT_TRUE(r.contains(again));
  EXPECT_EQ(copy.slot_pages(), 0u);
  EXPECT_EQ(r.slot_pages(), 1u);
}

/// Only a keyed table takes tid-keyed mutations; a derived relation stays
/// derived.
TEST(Relation, TidMutationsNeedAKeyedTable) {
  Relation r(two_cols());
  r.append(Tuple({Value(1), Value("a")}, TupleId(3)));
  EXPECT_THROW(r.insert(Tuple({Value(2), Value("b")}, TupleId(4))), common::InvalidArgument);
  EXPECT_THROW(r.insert_values({Value(2), Value("b")}), common::InvalidArgument);
  EXPECT_THROW(r.erase(TupleId(3)), common::InvalidArgument);
  EXPECT_THROW(r.update(TupleId(3), {Value(2), Value("b")}), common::InvalidArgument);
  EXPECT_FALSE(r.keyed());
  EXPECT_EQ(r.size(), 1u);
}

/// The tid counter of a relation filled through append or the rows
/// constructor stays above every tid it holds, so a later reservation or
/// insert_values hands out a fresh tid.
TEST(Relation, AppendedTidsAdvanceTheCounter) {
  Relation r(two_cols());
  r.append(Tuple({Value(1), Value("a")}, TupleId(9)));
  r.append(Tuple({Value(2), Value("b")}, TupleId(4)));
  r.append(Tuple({Value(3), Value("c")}));
  EXPECT_EQ(r.reserve_tid(), TupleId(10));
  r.key_by_tid();
  EXPECT_EQ(r.insert_values({Value(4), Value("d")}), TupleId(11));

  Relation built(two_cols(), {Tuple({Value(1), Value("a")}, TupleId(20)),
                              Tuple({Value(2), Value("b")}, TupleId(5))});
  EXPECT_EQ(built.reserve_tid(), TupleId(21));
  built.key_by_tid();
  EXPECT_EQ(built.insert_values({Value(3), Value("c")}), TupleId(22));
  EXPECT_EQ(built.find(TupleId(5))->at(0).as_int(), 2);
}

TEST(Relation, UnreservedTidIsReinserted) {
  Relation r = Relation::keyed_table(two_cols());
  r.insert_values({Value(1), Value("a")});
  const TupleId reserved = r.reserve_tid();
  EXPECT_FALSE(r.contains(reserved));
  EXPECT_TRUE(r.unreserve_tid(reserved));
  EXPECT_EQ(r.insert_values({Value(2), Value("b")}), reserved);
  EXPECT_EQ(r.find(reserved)->at(0).as_int(), 2);
  // Only the newest reservation can be returned.
  const TupleId first = r.reserve_tid();
  const TupleId second = r.reserve_tid();
  EXPECT_FALSE(r.unreserve_tid(first));
  EXPECT_TRUE(r.unreserve_tid(second));
  r.insert(Tuple({Value(3), Value("c")}, first));
  EXPECT_EQ(r.find(first)->at(0).as_int(), 3);
  EXPECT_THROW(r.insert(Tuple({Value(4), Value("d")}, first)), common::InvalidArgument);
}

TEST(Relation, SurvivorsFindTheirRowsAfterManyErases) {
  Relation r = Relation::keyed_table(two_cols());
  std::vector<TupleId> tids;
  for (int i = 0; i < 5000; ++i) tids.push_back(r.insert_values({Value(i), Value("x")}));
  std::mt19937 rng(42);
  std::vector<TupleId> order = tids;
  std::shuffle(order.begin(), order.end(), rng);
  const std::vector<TupleId> erased(order.begin(), order.begin() + 3000);
  for (const TupleId tid : erased) {
    EXPECT_EQ(r.erase(tid).at(0).as_int(), static_cast<std::int64_t>(tid.raw()) - 1);
  }
  EXPECT_EQ(r.size(), 2000u);
  for (const TupleId tid : erased) {
    EXPECT_FALSE(r.contains(tid));
    EXPECT_THROW(r.erase(tid), common::NotFound);
  }
  for (auto it = order.begin() + 3000; it != order.end(); ++it) {
    const Tuple* row = r.find(*it);
    ASSERT_NE(row, nullptr);
    EXPECT_EQ(row->tid(), *it);
    EXPECT_EQ(row->at(0).as_int(), static_cast<std::int64_t>(it->raw()) - 1);
  }
}

TEST(Relation, KeyByTidIndexesAppendedRows) {
  Relation r(two_cols());
  r.append(Tuple({Value(1), Value("a")}, TupleId(40)));
  r.append(Tuple({Value(2), Value("b")}));  // tid-less rows stay unindexed
  r.append(Tuple({Value(3), Value("c")}, TupleId(7)));
  EXPECT_FALSE(r.keyed());
  r.key_by_tid();
  EXPECT_TRUE(r.keyed());
  EXPECT_EQ(r.find(TupleId(7))->at(0).as_int(), 3);
  EXPECT_EQ(r.insert_values({Value(4), Value("d")}), TupleId(41));
  EXPECT_EQ(r.erase(TupleId(40)).at(0).as_int(), 1);
  EXPECT_EQ(r.find(TupleId(41))->at(0).as_int(), 4);

  Relation dup(two_cols());
  dup.append(Tuple({Value(1), Value("a")}, TupleId(3)));
  dup.append(Tuple({Value(2), Value("b")}, TupleId(3)));
  EXPECT_THROW(dup.key_by_tid(), common::InvalidArgument);
  EXPECT_FALSE(dup.keyed());
}

TEST(Relation, ConcurrentReadersShareOneKeyedTable) {
  Relation r = Relation::keyed_table(two_cols());
  std::vector<TupleId> tids;
  for (int i = 0; i < 4000; ++i) tids.push_back(r.insert_values({Value(i), Value("x")}));
  for (int i = 0; i < 4000; i += 3) r.erase(tids[static_cast<std::size_t>(i)]);
  const Relation& shared = r;
  std::atomic<std::size_t> wrong{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      for (int round = 0; round < 20; ++round) {
        for (std::size_t i = static_cast<std::size_t>(t); i < tids.size(); ++i) {
          const bool live = i % 3 != 0;
          const Tuple* row = shared.find(tids[i]);
          if (shared.contains(tids[i]) != live || (row != nullptr) != live ||
              (row != nullptr && row->tid() != tids[i])) {
            wrong.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& th : readers) th.join();
  EXPECT_EQ(wrong.load(), 0u);
}

// ---- derived relations: no index until remove_one needs one ----

TEST(Relation, DerivedRemoveOneByTidAndByValue) {
  Relation r(two_cols());
  r.append(Tuple({Value(1), Value("a")}, TupleId(10)));
  r.append(Tuple({Value(2), Value("b")}));
  r.append(Tuple({Value(1), Value("a")}, TupleId(11)));
  r.append(Tuple({Value(3), Value("c")}, TupleId(12)));
  EXPECT_FALSE(r.keyed());
  EXPECT_EQ(r.find(TupleId(12))->at(0).as_int(), 3);  // a scan
  EXPECT_EQ(r.find(TupleId(99)), nullptr);
  EXPECT_EQ(r.find(TupleId::invalid()), nullptr);

  // By tid: the tid decides, even when another row has the same values.
  EXPECT_TRUE(r.remove_one(Tuple({Value(1), Value("a")}, TupleId(11))));
  EXPECT_FALSE(r.contains(TupleId(11)));
  EXPECT_TRUE(r.contains(TupleId(10)));
  // Rows appended after the index was built are found by tid too.
  r.append(Tuple({Value(4), Value("d")}, TupleId(13)));
  EXPECT_TRUE(r.remove_one(Tuple({Value(4), Value("d")}, TupleId(13))));
  // A tid-less row, and an unknown tid, fall back to the values.
  EXPECT_TRUE(r.remove_one(Tuple({Value(2), Value("b")})));
  EXPECT_TRUE(r.remove_one(Tuple({Value(3), Value("c")}, TupleId(77))));
  EXPECT_FALSE(r.remove_one(Tuple({Value(9), Value("z")}, TupleId(78))));
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.rows()[0].tid(), TupleId(10));
  EXPECT_FALSE(r.keyed());
}

TEST(Relation, CopyOfSavedResultStillRemovesByTid) {
  Relation saved(two_cols());
  for (int i = 1; i <= 6; ++i) {
    saved.append(Tuple({Value(i), Value("v")}, TupleId(static_cast<TupleId::rep>(i))));
  }
  ASSERT_TRUE(saved.remove_one(Tuple({Value(1), Value("v")}, TupleId(1))));  // builds the index
  saved.append(Tuple({Value(7), Value("v")}, TupleId(7)));

  Relation copy = saved;  // copy-on-write: a sink kept the last payload
  EXPECT_TRUE(copy.remove_one(Tuple({Value(0), Value("?")}, TupleId(4))));
  EXPECT_TRUE(copy.remove_one(Tuple({Value(0), Value("?")}, TupleId(7))));
  EXPECT_FALSE(copy.contains(TupleId(4)));
  EXPECT_EQ(copy.size(), 4u);
  // The original is untouched and keeps its own index.
  EXPECT_EQ(saved.size(), 6u);
  EXPECT_TRUE(saved.remove_one(Tuple({Value(0), Value("?")}, TupleId(4))));
  EXPECT_TRUE(saved.contains(TupleId(7)));
}

TEST(Relation, MultisetAppendAllowsDuplicates) {
  Relation r(two_cols());
  r.append(Tuple({Value(1), Value("a")}));
  r.append(Tuple({Value(1), Value("a")}));
  EXPECT_EQ(r.size(), 2u);
  EXPECT_EQ(r.count_value(Tuple({Value(1), Value("a")})), 2u);
}

TEST(Relation, RemoveOneByValue) {
  Relation r(two_cols());
  r.append(Tuple({Value(1), Value("a")}));
  r.append(Tuple({Value(1), Value("a")}));
  EXPECT_TRUE(r.remove_one_by_value(Tuple({Value(1), Value("a")})));
  EXPECT_EQ(r.size(), 1u);
  EXPECT_FALSE(r.remove_one_by_value(Tuple({Value(9), Value("z")})));
}

TEST(Relation, EqualMultisetIgnoresOrderAndTids) {
  Relation a = Relation::keyed_table(two_cols());
  Relation b(two_cols());
  a.insert_values({Value(1), Value("x")});
  a.insert_values({Value(2), Value("y")});
  b.append(Tuple({Value(2), Value("y")}));
  b.append(Tuple({Value(1), Value("x")}));
  EXPECT_TRUE(a.equal_multiset(b));
  b.append(Tuple({Value(1), Value("x")}));
  EXPECT_FALSE(a.equal_multiset(b));
}

TEST(Relation, EqualMultisetRespectsMultiplicity) {
  Relation a(two_cols());
  Relation b(two_cols());
  a.append(Tuple({Value(1), Value("x")}));
  a.append(Tuple({Value(1), Value("x")}));
  a.append(Tuple({Value(2), Value("y")}));
  b.append(Tuple({Value(1), Value("x")}));
  b.append(Tuple({Value(2), Value("y")}));
  b.append(Tuple({Value(2), Value("y")}));
  EXPECT_FALSE(a.equal_multiset(b));
}

TEST(Relation, SortedRowsDeterministic) {
  Relation r = Relation::keyed_table(two_cols());
  r.insert_values({Value(3), Value("c")});
  r.insert_values({Value(1), Value("a")});
  r.insert_values({Value(2), Value("b")});
  const auto sorted = r.sorted_rows();
  EXPECT_EQ(sorted[0].at(0).as_int(), 1);
  EXPECT_EQ(sorted[1].at(0).as_int(), 2);
  EXPECT_EQ(sorted[2].at(0).as_int(), 3);
}

TEST(TupleBag, CountsAndCancels) {
  TupleBag bag;
  const Tuple t({Value(1), Value("a")});
  bag.add(t, +2);
  EXPECT_EQ(bag.count(t), 2);
  bag.add(t, -2);
  EXPECT_EQ(bag.count(t), 0);
  EXPECT_TRUE(bag.all_zero());
}

TEST(TupleBag, IgnoresTids) {
  TupleBag bag;
  bag.add(Tuple({Value(1)}, TupleId(5)), +1);
  bag.add(Tuple({Value(1)}, TupleId(9)), -1);
  EXPECT_TRUE(bag.all_zero());
}

TEST(TupleBag, IgnoresWeightsAndLineageInLookups) {
  TupleBag bag;
  Tuple weighted({Value(1)}, TupleId(5));
  weighted.set_weight(-3);
  weighted.set_prov(prov::leaf({1, 1, 1}));
  bag.add(weighted, +2);
  EXPECT_EQ(bag.count(Tuple({Value(1)})), 2);
  bag.add(Tuple({Value(1)}), -2);
  EXPECT_TRUE(bag.all_zero());
}

TEST(TupleBag, EntriesPersistAtZeroWeight) {
  TupleBag bag;
  TupleBag::Entry& e = bag.entry(Tuple({Value(7)}));
  e.weight += 1;
  bag.entry(Tuple({Value(7)}, TupleId(3))).weight -= 1;
  EXPECT_EQ(&bag.entry(Tuple({Value(7)})), &e);
  EXPECT_EQ(bag.count(Tuple({Value(7)})), 0);
  EXPECT_TRUE(bag.all_zero());
  e.weight = 2;
  EXPECT_FALSE(bag.all_zero());
}

TEST(HashIndex, ProbesByKey) {
  Relation r = Relation::keyed_table(two_cols());
  r.insert_values({Value(1), Value("a")});
  r.insert_values({Value(2), Value("b")});
  r.insert_values({Value(1), Value("c")});
  HashIndex idx(r, {0});
  const Tuple probe({Value(1), Value("zzz")});
  EXPECT_EQ(idx.probe(probe, {0}).size(), 2u);
  const Tuple miss({Value(42), Value("zzz")});
  EXPECT_TRUE(idx.probe(miss, {0}).empty());
  EXPECT_EQ(idx.distinct_keys(), 2u);
}

TEST(HashIndex, CompositeKey) {
  Relation r = Relation::keyed_table(two_cols());
  r.insert_values({Value(1), Value("a")});
  r.insert_values({Value(1), Value("b")});
  HashIndex idx(r, {0, 1});
  EXPECT_EQ(idx.probe(Tuple({Value(1), Value("a")}), {0, 1}).size(), 1u);
}

TEST(Tuple, ConcatMultipliesWeightsAndProjectKeepsThem) {
  Tuple a({Value(1)});
  Tuple b({Value(2)});
  EXPECT_EQ(a.weight(), 1);
  a.set_weight(-1);
  EXPECT_EQ(a.concat(b).weight(), -1);
  b.set_weight(-1);
  EXPECT_EQ(a.concat(b).weight(), 1);
  EXPECT_EQ(b.concat(Tuple({Value(3)})).weight(), -1);
  EXPECT_EQ(a.concat(b).project({1}).weight(), 1);
  EXPECT_EQ(a.project({0}).weight(), -1);
}

TEST(Tuple, ConcatAndProject) {
  const Tuple a({Value(1), Value("x")});
  const Tuple b({Value(2.5)});
  const Tuple c = a.concat(b);
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c.at(2).as_double(), 2.5);
  const Tuple p = c.project({2, 0});
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(p.at(0).as_double(), 2.5);
  EXPECT_EQ(p.at(1).as_int(), 1);
}

}  // namespace
}  // namespace cq::rel
