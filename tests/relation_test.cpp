#include "relation/relation.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "relation/index.hpp"

namespace cq::rel {
namespace {

Schema two_cols() {
  return Schema::of({{"k", ValueType::kInt}, {"v", ValueType::kString}});
}

TEST(Relation, InsertEraseUpdateByTid) {
  Relation r(two_cols());
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

TEST(Relation, EraseKeepsIndexConsistent) {
  Relation r(two_cols());
  std::vector<TupleId> tids;
  for (int i = 0; i < 10; ++i) tids.push_back(r.insert_values({Value(i), Value("x")}));
  r.erase(tids[0]);  // swap-and-pop moves the last row into slot 0
  for (int i = 1; i < 10; ++i) {
    ASSERT_NE(r.find(tids[i]), nullptr);
    EXPECT_EQ(r.find(tids[i])->at(0).as_int(), i);
  }
}

TEST(Relation, DuplicateTidRejected) {
  Relation r(two_cols());
  r.insert(Tuple({Value(1), Value("a")}, TupleId(7)));
  EXPECT_THROW(r.insert(Tuple({Value(2), Value("b")}, TupleId(7))),
               common::InvalidArgument);
}

TEST(Relation, ArityChecked) {
  Relation r(two_cols());
  EXPECT_THROW(r.insert_values({Value(1)}), common::SchemaMismatch);
  EXPECT_THROW(r.append(Tuple({Value(1), Value("a"), Value(2)})),
               common::SchemaMismatch);
}

TEST(Relation, EraseMissingThrows) {
  Relation r(two_cols());
  EXPECT_THROW(r.erase(TupleId(99)), common::NotFound);
  EXPECT_THROW(r.update(TupleId(99), {Value(1), Value("a")}), common::NotFound);
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
  Relation a(two_cols());
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
  Relation r(two_cols());
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
  Relation r(two_cols());
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
  Relation r(two_cols());
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
