#include "diom/wire.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace cq::diom {
namespace {

// Keeps corruption-fuzz results observable so nothing is optimized away.
std::size_t benchmark_sink_ = 0;

using common::Timestamp;
using rel::Relation;
using rel::Schema;
using rel::Tuple;
using rel::TupleId;
using rel::Value;
using rel::ValueType;

Schema mixed_schema() {
  return Schema::of({{"i", ValueType::kInt},
                     {"d", ValueType::kDouble},
                     {"s", ValueType::kString},
                     {"b", ValueType::kBool}});
}

TEST(Wire, ValueRoundTripAllTypes) {
  Encoder enc;
  enc.put_value(Value::null());
  enc.put_value(Value(true));
  enc.put_value(Value(-42));
  enc.put_value(Value(3.25));
  enc.put_value(Value("hello"));
  Decoder dec(enc.bytes());
  EXPECT_TRUE(dec.get_value().is_null());
  EXPECT_EQ(dec.get_value(), Value(true));
  EXPECT_EQ(dec.get_value(), Value(-42));
  EXPECT_EQ(dec.get_value(), Value(3.25));
  EXPECT_EQ(dec.get_value(), Value("hello"));
  EXPECT_TRUE(dec.done());
}

TEST(Wire, RelationRoundTrip) {
  Relation r = Relation::keyed_table(mixed_schema());
  r.insert(Tuple({Value(1), Value(1.5), Value("a"), Value(true)}, TupleId(10)));
  r.insert(Tuple({Value(2), Value::null(), Value(""), Value(false)}, TupleId(20)));
  const Bytes payload = encode_relation(r);
  const Relation back = decode_relation(payload, r.schema());
  EXPECT_TRUE(r.equal_multiset(back));
  // Tids survive the trip.
  EXPECT_NE(back.find(TupleId(10)), nullptr);
}

/// The DRA's weight annotation is not part of a row's value: it changes
/// no comparison, hash, size or encoding, and decoded rows weigh +1.
TEST(Wire, TupleWeightIsInvisibleOutsideTheDra) {
  const Tuple plain({Value(1), Value(1.5), Value("a"), Value(true)}, TupleId(10));
  Tuple weighted = plain;
  weighted.set_weight(-1);
  EXPECT_TRUE(weighted.same_values(plain));
  EXPECT_EQ(weighted.value_hash(), plain.value_hash());
  EXPECT_EQ(weighted.byte_size(), plain.byte_size());
  EXPECT_EQ(weighted.to_string(), plain.to_string());

  Relation a = Relation::keyed_table(mixed_schema());
  a.insert(plain);
  Relation b = Relation::keyed_table(mixed_schema());
  b.insert(weighted);
  EXPECT_TRUE(a.equal_multiset(b));
  EXPECT_EQ(a.byte_size(), b.byte_size());
  const Bytes encoded = encode_relation(b);
  EXPECT_EQ(encoded, encode_relation(a));
  const Relation back = decode_relation(encoded, b.schema());
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back.row(0).weight(), 1);
}

TEST(Wire, EmptyRelation) {
  const Relation r(mixed_schema());
  const Relation back = decode_relation(encode_relation(r), r.schema());
  EXPECT_TRUE(back.empty());
}

TEST(Wire, DeltaRoundTripAllKinds) {
  std::vector<delta::DeltaRow> rows;
  rows.push_back({TupleId(1), std::nullopt,
                  std::vector<Value>{Value(1), Value(0.5), Value("x"), Value(true)},
                  Timestamp(5)});
  rows.push_back({TupleId(2),
                  std::vector<Value>{Value(2), Value(1.5), Value("y"), Value(false)},
                  std::nullopt, Timestamp(6)});
  rows.push_back({TupleId(3),
                  std::vector<Value>{Value(3), Value(2.5), Value("z"), Value(true)},
                  std::vector<Value>{Value(3), Value(9.5), Value("z"), Value(true)},
                  Timestamp(7)});
  const Bytes payload = encode_deltas(rows);
  const auto back = decode_deltas(payload, 4);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back[0].kind(), delta::ChangeKind::kInsert);
  EXPECT_EQ(back[1].kind(), delta::ChangeKind::kDelete);
  EXPECT_EQ(back[2].kind(), delta::ChangeKind::kModify);
  EXPECT_EQ(back[2].ts, Timestamp(7));
  EXPECT_EQ((*back[2].new_values)[1], Value(9.5));
}

TEST(Wire, TruncatedMessageThrows) {
  Relation r = Relation::keyed_table(mixed_schema());
  r.insert_values({Value(1), Value(1.5), Value("abc"), Value(true)});
  Bytes payload = encode_relation(r);
  payload.resize(payload.size() - 3);
  EXPECT_THROW(static_cast<void>(decode_relation(payload, r.schema())),
               common::InvalidArgument);
}

TEST(Wire, TrailingBytesThrow) {
  const Relation r(mixed_schema());
  Bytes payload = encode_relation(r);
  payload.push_back(0xff);
  EXPECT_THROW(static_cast<void>(decode_relation(payload, r.schema())),
               common::InvalidArgument);
}

TEST(Wire, DeltaArityMismatchThrows) {
  std::vector<delta::DeltaRow> rows;
  rows.push_back({TupleId(1), std::nullopt, std::vector<Value>{Value(1)}, Timestamp(1)});
  const Bytes payload = encode_deltas(rows);
  EXPECT_THROW(static_cast<void>(decode_deltas(payload, 4)), common::InvalidArgument);
}

TEST(Wire, DeltaBytesSmallerThanSnapshotForSmallChanges) {
  // The quantitative heart of the paper's network argument: encoding a few
  // delta rows must cost far less than re-encoding the whole relation.
  Relation r = Relation::keyed_table(mixed_schema());
  for (int i = 0; i < 1000; ++i) {
    r.insert_values({Value(i), Value(i * 0.5), Value("payload-" + std::to_string(i)),
                     Value(i % 2 == 0)});
  }
  std::vector<delta::DeltaRow> few;
  for (int i = 0; i < 10; ++i) {
    few.push_back({TupleId(static_cast<unsigned>(i + 1)), std::nullopt,
                   std::vector<Value>{Value(i), Value(0.0), Value("new"), Value(true)},
                   Timestamp(i)});
  }
  EXPECT_LT(encode_deltas(few).size() * 10, encode_relation(r).size());
}

TEST(Wire, RandomCorruptionNeverCrashes) {
  // Flip/truncate bytes of valid payloads at random; decoding must either
  // succeed (benign flips) or throw a typed error — never crash or hang.
  Relation r = Relation::keyed_table(mixed_schema());
  for (int i = 0; i < 50; ++i) {
    r.insert_values({Value(i), Value(i * 0.25), Value("row" + std::to_string(i)),
                     Value(i % 2 == 0)});
  }
  const Bytes original = encode_relation(r);
  common::Rng rng(0xc0442);
  for (int round = 0; round < 2000; ++round) {
    Bytes payload = original;
    const std::size_t mutations = 1 + rng.index(4);
    for (std::size_t m = 0; m < mutations; ++m) {
      if (rng.chance(0.3) && !payload.empty()) {
        payload.resize(rng.index(payload.size()));  // truncate
      } else if (!payload.empty()) {
        payload[rng.index(payload.size())] = static_cast<std::uint8_t>(rng.next());
      }
    }
    try {
      const Relation decoded = decode_relation(payload, r.schema());
      benchmark_sink_ += decoded.size();  // use the result
    } catch (const common::Error&) {
    } catch (const std::bad_alloc&) {
      // A corrupted length prefix may request a huge (but bounded by the
      // decoder's truncation check) allocation; must not happen.
      FAIL() << "decoder attempted oversized allocation";
    }
  }
}

TEST(Wire, DeltaCorruptionNeverCrashes) {
  std::vector<delta::DeltaRow> rows;
  for (int i = 1; i <= 30; ++i) {
    rows.push_back({TupleId(static_cast<unsigned>(i)),
                    std::vector<Value>{Value(i), Value(0.5), Value("x"), Value(true)},
                    std::vector<Value>{Value(i), Value(1.5), Value("y"), Value(false)},
                    Timestamp(i)});
  }
  const Bytes original = encode_deltas(rows);
  common::Rng rng(0xc0443);
  for (int round = 0; round < 2000; ++round) {
    Bytes payload = original;
    if (rng.chance(0.4) && !payload.empty()) payload.resize(rng.index(payload.size()));
    if (!payload.empty()) {
      payload[rng.index(payload.size())] = static_cast<std::uint8_t>(rng.next());
    }
    try {
      const auto decoded = decode_deltas(payload, 4);
      benchmark_sink_ += decoded.size();
    } catch (const common::Error&) {
    }
  }
}

}  // namespace
}  // namespace cq::diom
