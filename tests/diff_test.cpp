#include "cq/diff.hpp"

#include <gtest/gtest.h>

#include <unordered_map>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "relation/provenance.hpp"

namespace cq::core {
namespace {

using rel::Relation;
using rel::Schema;
using rel::Tuple;
using rel::TupleId;
using rel::Value;
using rel::ValueType;

Schema one_col() { return Schema::of({{"x", ValueType::kInt}}); }

Relation rel_of(std::initializer_list<int> xs) {
  Relation r(one_col());
  for (int x : xs) r.append(Tuple({Value(x)}));
  return r;
}

TEST(Diff, BasicInsertDelete) {
  const DiffResult d = diff(rel_of({1, 2, 3}), rel_of({2, 3, 4}));
  EXPECT_EQ(d.inserted.count_value(Tuple({Value(4)})), 1u);
  EXPECT_EQ(d.deleted.count_value(Tuple({Value(1)})), 1u);
  EXPECT_EQ(d.size(), 2u);
}

TEST(Diff, IdenticalRelationsYieldEmpty) {
  const DiffResult d = diff(rel_of({1, 2}), rel_of({2, 1}));
  EXPECT_TRUE(d.empty());
}

TEST(Diff, MultisetMultiplicity) {
  const DiffResult d = diff(rel_of({1, 1, 2}), rel_of({1, 2, 2}));
  EXPECT_EQ(d.inserted.count_value(Tuple({Value(2)})), 1u);
  EXPECT_EQ(d.deleted.count_value(Tuple({Value(1)})), 1u);
}

TEST(DiffResult, ConsolidatedCancelsCommonRows) {
  DiffResult d;
  d.inserted = rel_of({1, 2, 2});
  d.deleted = rel_of({2, 3});
  const DiffResult c = d.consolidated();
  EXPECT_EQ(c.inserted.count_value(Tuple({Value(1)})), 1u);
  EXPECT_EQ(c.inserted.count_value(Tuple({Value(2)})), 1u);
  EXPECT_EQ(c.deleted.count_value(Tuple({Value(3)})), 1u);
  EXPECT_EQ(c.deleted.count_value(Tuple({Value(2)})), 0u);
}

TEST(DiffResult, EquivalenceIsConsolidationAware) {
  DiffResult a;
  a.inserted = rel_of({1, 5});
  a.deleted = rel_of({5});
  DiffResult b;
  b.inserted = rel_of({1});
  b.deleted = rel_of({});
  EXPECT_TRUE(a.equivalent(b));
  DiffResult c;
  c.inserted = rel_of({2});
  c.deleted = rel_of({});
  EXPECT_FALSE(a.equivalent(c));
}

TEST(Consolidate, KeepsTheLastRowsOfTheNetSignInStreamOrder) {
  // Value 1: +3 −1 → the last two positive rows survive. Value 2: +1 −2 →
  // the last negative row survives. Value 3 cancels completely.
  Relation stream(one_col());
  auto push = [&](int x, std::uint64_t tid, std::int64_t weight) {
    stream.append(Tuple({Value(x)}, TupleId(tid)));
    stream.mutable_rows().back().set_weight(weight);
  };
  push(1, 10, +1);
  push(2, 20, -1);
  push(1, 11, +1);
  push(3, 30, +1);
  push(1, 12, -1);
  push(2, 21, +1);
  push(3, 31, -1);
  push(1, 13, +1);
  push(2, 22, -1);
  const DiffResult c = consolidate(std::move(stream));
  ASSERT_EQ(c.inserted.size(), 2u);
  EXPECT_EQ(c.inserted.row(0).tid(), TupleId(11));
  EXPECT_EQ(c.inserted.row(1).tid(), TupleId(13));
  ASSERT_EQ(c.deleted.size(), 1u);
  EXPECT_EQ(c.deleted.row(0).tid(), TupleId(22));
  for (const Relation* side : {&c.inserted, &c.deleted}) {
    for (const auto& row : side->rows()) EXPECT_EQ(row.weight(), 1);
  }
}

// ---- reference: consolidation as two multiset-difference passes plus a
// value-keyed lineage merge, written independently of rel::TupleBag ----

std::size_t count_same(const std::vector<Tuple>& rows, const Tuple& row) {
  std::size_t n = 0;
  for (const auto& r : rows) n += r.same_values(row) ? 1 : 0;
  return n;
}

/// Multiset a − b: drops the first count_b(v) rows of each value v.
Relation reference_difference(const Relation& a, const Relation& b) {
  std::vector<Tuple> removed;
  Relation out(a.schema());
  for (const auto& row : a.rows()) {
    if (count_same(removed, row) < count_same(b.rows(), row)) {
      removed.push_back(row);
    } else {
      out.append(row);
    }
  }
  return out;
}

/// Every surviving row takes the union of the lineage of all value-equal
/// rows on either side.
void reference_merge_value_provenance(const DiffResult& raw, DiffResult& out) {
  std::unordered_map<std::size_t,
                     std::vector<std::pair<const Tuple*, rel::prov::ProvSetPtr>>>
      by_value;
  auto fold = [&](const Relation& r) {
    for (const auto& row : r.rows()) {
      if (row.prov() == nullptr) continue;
      auto& bucket = by_value[row.value_hash()];
      bool found = false;
      for (auto& [exemplar, set] : bucket) {
        if (exemplar->same_values(row)) {
          set = rel::prov::merge(set, row.prov());
          found = true;
          break;
        }
      }
      if (!found) bucket.emplace_back(&row, row.prov());
    }
  };
  fold(raw.inserted);
  fold(raw.deleted);
  auto attach = [&](Relation& r) {
    for (auto& row : r.mutable_rows()) {
      auto it = by_value.find(row.value_hash());
      if (it == by_value.end()) continue;
      for (const auto& [exemplar, set] : it->second) {
        if (exemplar->same_values(row)) {
          row.set_prov(set);
          break;
        }
      }
    }
  };
  attach(out.inserted);
  attach(out.deleted);
}

DiffResult reference_consolidated(const DiffResult& d) {
  DiffResult out;
  out.inserted = reference_difference(d.inserted, d.deleted);
  out.deleted = reference_difference(d.deleted, d.inserted);
  if (rel::prov::enabled()) reference_merge_value_provenance(d, out);
  return out;
}

void expect_same_rows(const Relation& got, const Relation& want, int round) {
  ASSERT_EQ(got.size(), want.size()) << "round " << round;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const Tuple& g = got.row(i);
    const Tuple& w = want.row(i);
    EXPECT_TRUE(g.same_values(w)) << "round " << round << " row " << i;
    EXPECT_EQ(g.tid(), w.tid()) << "round " << round << " row " << i;
    EXPECT_EQ(g.weight(), 1) << "round " << round << " row " << i;
    ASSERT_EQ(g.prov() == nullptr, w.prov() == nullptr) << "round " << round;
    if (g.prov() != nullptr) {
      EXPECT_EQ(*g.prov(), *w.prov()) << "round " << round;
    }
  }
}

/// Random signed streams, value-equal rows under different tids, lineage
/// on: consolidate() must keep exactly the rows the two-pass reference
/// kept, in the same order, with the same tids and lineage sets — both for
/// a DiffResult's (inserted, deleted) stream and for an interleaved one.
TEST(Consolidate, MatchesTwoPassDifferenceReference) {
  rel::prov::set_enabled(true);
  common::Rng rng(0xc0501);
  const Schema schema = Schema::of({{"a", ValueType::kInt}, {"b", ValueType::kInt}});
  for (int round = 0; round < 300; ++round) {
    DiffResult d;
    d.inserted = Relation(schema);
    d.deleted = Relation(schema);
    Relation stream(schema);
    const std::size_t n = rng.index(40);
    for (std::size_t i = 0; i < n; ++i) {
      Tuple row({Value(static_cast<std::int64_t>(rng.index(3))),
                 Value(static_cast<std::int64_t>(rng.index(2)))},
                TupleId(1 + rng.index(6)));
      if (rng.index(4) != 0) {
        row.set_prov(rel::prov::leaf(
            {static_cast<std::int64_t>(rng.index(5)), 1, rng.index(8)}));
      }
      const bool positive = rng.index(2) == 0;
      (positive ? d.inserted : d.deleted).append(row);
      row.set_weight(positive ? 1 : -1);
      stream.append(std::move(row));
    }
    const DiffResult want = reference_consolidated(d);
    const DiffResult got = d.consolidated();
    expect_same_rows(got.inserted, want.inserted, round);
    expect_same_rows(got.deleted, want.deleted, round);
    const DiffResult interleaved = consolidate(std::move(stream));
    expect_same_rows(interleaved.inserted, want.inserted, round);
    expect_same_rows(interleaved.deleted, want.deleted, round);
  }
  rel::prov::set_enabled(false);
}

TEST(Consolidate, DiffMatchesTwoPassDifferenceReference) {
  common::Rng rng(0xd1ff);
  for (int round = 0; round < 200; ++round) {
    Relation before(one_col());
    Relation after(one_col());
    for (Relation* r : {&before, &after}) {
      const std::size_t n = rng.index(12);
      for (std::size_t i = 0; i < n; ++i) {
        r->append(Tuple({Value(static_cast<std::int64_t>(rng.index(4)))},
                        TupleId(1 + rng.index(5))));
      }
    }
    const DiffResult got = diff(before, after);
    expect_same_rows(got.inserted, reference_difference(after, before), round);
    expect_same_rows(got.deleted, reference_difference(before, after), round);
  }
}

TEST(ApplyDiff, PatchesResult) {
  const DiffResult d = diff(rel_of({1, 2, 3}), rel_of({2, 3, 4}));
  const Relation patched = apply_diff(rel_of({1, 2, 3}), d);
  EXPECT_TRUE(patched.equal_multiset(rel_of({2, 3, 4})));
}

TEST(ApplyDiff, MissingDeletedRowThrows) {
  DiffResult d;
  d.inserted = rel_of({});
  d.deleted = rel_of({42});
  EXPECT_THROW(apply_diff(rel_of({1}), d), common::InternalError);
}

TEST(Classify, SplitsByTid) {
  DiffResult d;
  d.inserted = Relation(one_col());
  d.deleted = Relation(one_col());
  // tid 7 on both sides: a modification.
  d.deleted.append(Tuple({Value(150)}, TupleId(7)));
  d.inserted.append(Tuple({Value(149)}, TupleId(7)));
  // tid 8 only deleted; tid-less row only inserted.
  d.deleted.append(Tuple({Value(1)}, TupleId(8)));
  d.inserted.append(Tuple({Value(2)}));

  const ClassifiedDiff c = classify(d);
  ASSERT_EQ(c.modified.size(), 1u);
  EXPECT_EQ(c.modified[0].first.at(0), Value(150));
  EXPECT_EQ(c.modified[0].second.at(0), Value(149));
  EXPECT_EQ(c.pure_deletions.size(), 1u);
  EXPECT_EQ(c.pure_insertions.size(), 1u);
}

}  // namespace
}  // namespace cq::core
