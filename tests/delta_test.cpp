#include "delta/delta_relation.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "delta/delta_snapshot.hpp"
#include "delta/delta_zone.hpp"

namespace cq::delta {
namespace {

using common::Timestamp;
using rel::Schema;
using rel::Tuple;
using rel::TupleId;
using rel::Value;
using rel::ValueType;

Schema stocks_schema() {
  return Schema::of({{"name", ValueType::kString}, {"price", ValueType::kInt}});
}

TEST(DeltaRelation, RecordAndViews) {
  DeltaRelation d(stocks_schema());
  d.record_insert(TupleId(1), {Value("MAC"), Value(117)}, Timestamp(10));
  d.record_modify(TupleId(2), {Value("DEC"), Value(150)}, {Value("DEC"), Value(149)},
                  Timestamp(11));
  d.record_delete(TupleId(3), {Value("QLI"), Value(145)}, Timestamp(12));
  const DeltaSnapshot snap(d);

  // insertions = inserts + new halves of modifications (Section 4.1).
  const auto& ins = snap.insertions(Timestamp::min());
  EXPECT_EQ(ins.size(), 2u);
  EXPECT_EQ(ins.count_value(Tuple({Value("MAC"), Value(117)})), 1u);
  EXPECT_EQ(ins.count_value(Tuple({Value("DEC"), Value(149)})), 1u);

  // deletions = deletes + old halves of modifications.
  const auto& del = snap.deletions(Timestamp::min());
  EXPECT_EQ(del.size(), 2u);
  EXPECT_EQ(del.count_value(Tuple({Value("DEC"), Value(150)})), 1u);
  EXPECT_EQ(del.count_value(Tuple({Value("QLI"), Value(145)})), 1u);
}

TEST(DeltaRelation, TimestampWindow) {
  DeltaRelation d(stocks_schema());
  d.record_insert(TupleId(1), {Value("A"), Value(1)}, Timestamp(5));
  d.record_insert(TupleId(2), {Value("B"), Value(2)}, Timestamp(10));
  // ts > since is strict: a CQ executed exactly at ts=5 must not re-see it.
  const DeltaSnapshot snap(d);
  EXPECT_EQ(snap.insertions(Timestamp(5)).size(), 1u);
  EXPECT_EQ(snap.insertions(Timestamp(4)).size(), 2u);
  EXPECT_EQ(snap.insertions(Timestamp(10)).size(), 0u);
  EXPECT_TRUE(d.changed_since(Timestamp(9)));
  EXPECT_FALSE(d.changed_since(Timestamp(10)));
}

TEST(DeltaRelation, NetEffectInsertThenModify) {
  DeltaRelation d(stocks_schema());
  d.record_insert(TupleId(1), {Value("A"), Value(1)}, Timestamp(1));
  d.record_modify(TupleId(1), {Value("A"), Value(1)}, {Value("A"), Value(9)},
                  Timestamp(2));
  const DeltaSnapshot snap(d);
  const auto& net = snap.net_effect(Timestamp::min());
  ASSERT_EQ(net.size(), 1u);
  EXPECT_EQ(net[0].kind(), ChangeKind::kInsert);
  EXPECT_EQ((*net[0].new_values)[1], Value(9));
}

TEST(DeltaRelation, NetEffectInsertThenDelete) {
  DeltaRelation d(stocks_schema());
  d.record_insert(TupleId(1), {Value("A"), Value(1)}, Timestamp(1));
  d.record_delete(TupleId(1), {Value("A"), Value(1)}, Timestamp(2));
  const DeltaSnapshot snap(d);
  EXPECT_TRUE(snap.net_effect(Timestamp::min()).empty());
  EXPECT_TRUE(snap.insertions(Timestamp::min()).empty());
  EXPECT_TRUE(snap.deletions(Timestamp::min()).empty());
  // Raw log still holds both rows (several transactions' history).
  EXPECT_EQ(d.size(), 2u);
}

TEST(DeltaRelation, NetEffectModifyChain) {
  DeltaRelation d(stocks_schema());
  d.record_modify(TupleId(1), {Value("A"), Value(1)}, {Value("A"), Value(2)},
                  Timestamp(1));
  d.record_modify(TupleId(1), {Value("A"), Value(2)}, {Value("A"), Value(3)},
                  Timestamp(2));
  const DeltaSnapshot snap(d);
  const auto& net = snap.net_effect(Timestamp::min());
  ASSERT_EQ(net.size(), 1u);
  EXPECT_EQ(net[0].kind(), ChangeKind::kModify);
  EXPECT_EQ((*net[0].old_values)[1], Value(1));  // earliest old
  EXPECT_EQ((*net[0].new_values)[1], Value(3));  // latest new
}

TEST(DeltaRelation, NetEffectModifyBackToOriginalCollapses) {
  DeltaRelation d(stocks_schema());
  d.record_modify(TupleId(1), {Value("A"), Value(1)}, {Value("A"), Value(2)},
                  Timestamp(1));
  d.record_modify(TupleId(1), {Value("A"), Value(2)}, {Value("A"), Value(1)},
                  Timestamp(2));
  const DeltaSnapshot snap(d);
  EXPECT_TRUE(snap.net_effect(Timestamp::min()).empty());
}

TEST(DeltaRelation, NetEffectModifyThenDelete) {
  DeltaRelation d(stocks_schema());
  d.record_modify(TupleId(1), {Value("A"), Value(1)}, {Value("A"), Value(2)},
                  Timestamp(1));
  d.record_delete(TupleId(1), {Value("A"), Value(2)}, Timestamp(2));
  const DeltaSnapshot snap(d);
  const auto& net = snap.net_effect(Timestamp::min());
  ASSERT_EQ(net.size(), 1u);
  EXPECT_EQ(net[0].kind(), ChangeKind::kDelete);
  EXPECT_EQ((*net[0].old_values)[1], Value(1));  // the pre-window value
}

TEST(DeltaRelation, NoTidAppearsTwiceInNetEffect) {
  DeltaRelation d(stocks_schema());
  for (int i = 0; i < 5; ++i) {
    d.record_modify(TupleId(7), {Value("A"), Value(i)}, {Value("A"), Value(i + 1)},
                    Timestamp(i));
  }
  d.record_insert(TupleId(8), {Value("B"), Value(0)}, Timestamp(10));
  const DeltaSnapshot snap(d);
  const auto& net = snap.net_effect(Timestamp::min());
  EXPECT_EQ(net.size(), 2u);  // paper: "No tid can appear in multiple rows"
}

TEST(DeltaRelation, WideRelationLayout) {
  DeltaRelation d(stocks_schema());
  d.record_modify(TupleId(2), {Value("DEC"), Value(150)}, {Value("DEC"), Value(149)},
                  Timestamp(11));
  const DeltaSnapshot snap(d);
  const auto wide = snap.as_wide_relation(Timestamp::min());
  ASSERT_EQ(wide.size(), 1u);
  const auto& schema = wide.schema();
  EXPECT_EQ(schema.index_of("name_old"), 0u);
  EXPECT_EQ(schema.index_of("price_old"), 1u);
  EXPECT_EQ(schema.index_of("name_new"), 2u);
  EXPECT_EQ(schema.index_of("price_new"), 3u);
  EXPECT_EQ(schema.index_of("__tid"), 4u);
  EXPECT_EQ(schema.index_of("__ts"), 5u);
  const auto& row = wide.row(0);
  EXPECT_EQ(row.at(1), Value(150));
  EXPECT_EQ(row.at(3), Value(149));
  EXPECT_EQ(row.at(4), Value(2));
  EXPECT_EQ(row.at(5), Value(11));
}

TEST(DeltaRelation, WideRelationNullHalves) {
  DeltaRelation d(stocks_schema());
  d.record_insert(TupleId(1), {Value("MAC"), Value(117)}, Timestamp(1));
  d.record_delete(TupleId(2), {Value("QLI"), Value(145)}, Timestamp(2));
  const DeltaSnapshot snap(d);
  const auto wide = snap.as_wide_relation(Timestamp::min());
  ASSERT_EQ(wide.size(), 2u);
  const auto rows = wide.sorted_rows();
  // Insert row: old half null. Delete row: new half null.
  bool saw_insert = false;
  bool saw_delete = false;
  for (const auto& row : rows) {
    if (row.at(0).is_null()) {
      saw_insert = true;
      EXPECT_EQ(row.at(2), Value("MAC"));
    }
    if (row.at(2).is_null()) {
      saw_delete = true;
      EXPECT_EQ(row.at(0), Value("QLI"));
    }
  }
  EXPECT_TRUE(saw_insert);
  EXPECT_TRUE(saw_delete);
}

TEST(DeltaRelation, TruncateBefore) {
  DeltaRelation d(stocks_schema());
  for (int i = 1; i <= 10; ++i) {
    d.record_insert(TupleId(static_cast<unsigned>(i)), {Value("A"), Value(i)},
                    Timestamp(i));
  }
  EXPECT_EQ(d.truncate_before(Timestamp(5)), 5u);
  EXPECT_EQ(d.size(), 5u);
  {
    const DeltaSnapshot snap(d);
    EXPECT_EQ(snap.insertions(Timestamp::min()).size(), 5u);
  }
  EXPECT_EQ(d.truncate_before(Timestamp(100)), 5u);
  EXPECT_TRUE(d.empty());
}

TEST(DeltaRelation, ValidationErrors) {
  DeltaRelation d(stocks_schema());
  EXPECT_THROW(d.record_insert(TupleId(), {Value("A"), Value(1)}, Timestamp(1)),
               common::InvalidArgument);  // invalid tid
  EXPECT_THROW(d.record_insert(TupleId(1), {Value("A")}, Timestamp(1)),
               common::SchemaMismatch);  // arity
  EXPECT_THROW(d.append(DeltaRow{TupleId(1), std::nullopt, std::nullopt, Timestamp(1)}),
               common::InvalidArgument);  // no values at all
  d.record_insert(TupleId(1), {Value("A"), Value(1)}, Timestamp(5));
  EXPECT_THROW(d.record_insert(TupleId(2), {Value("B"), Value(2)}, Timestamp(4)),
               common::InvalidArgument);  // timestamps must not go backwards
}

TEST(DeltaRelation, ByteSizeGrowsAndShrinks) {
  DeltaRelation d(stocks_schema());
  EXPECT_EQ(d.byte_size(), 0u);
  d.record_insert(TupleId(1), {Value("A"), Value(1)}, Timestamp(1));
  const auto one = d.byte_size();
  EXPECT_GT(one, 0u);
  d.record_insert(TupleId(2), {Value("B"), Value(2)}, Timestamp(2));
  EXPECT_GT(d.byte_size(), one);
  d.truncate_before(Timestamp(10));
  EXPECT_EQ(d.byte_size(), 0u);
}

TEST(DeltaZone, RegistryTracksMinimum) {
  DeltaZoneRegistry reg;
  EXPECT_FALSE(reg.system_zone_start().has_value());
  const CqId a = reg.register_cq(Timestamp(10));
  const CqId b = reg.register_cq(Timestamp(5));
  EXPECT_EQ(reg.system_zone_start(), Timestamp(5));
  reg.advance(b, Timestamp(20));
  EXPECT_EQ(reg.system_zone_start(), Timestamp(10));
  reg.unregister(a);
  EXPECT_EQ(reg.system_zone_start(), Timestamp(20));
  reg.unregister(b);
  EXPECT_FALSE(reg.system_zone_start().has_value());
}

TEST(DeltaZone, ZoneNeverMovesBackwards) {
  DeltaZoneRegistry reg;
  const CqId a = reg.register_cq(Timestamp(10));
  EXPECT_THROW(reg.advance(a, Timestamp(5)), common::InvalidArgument);
  EXPECT_THROW(reg.advance(999, Timestamp(50)), common::NotFound);
  EXPECT_THROW(reg.unregister(999), common::NotFound);
}

}  // namespace
}  // namespace cq::delta
