#include "relation/schema.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "relation/relation.hpp"

namespace cq::rel {
namespace {

Schema stocks() {
  return Schema::of({{"name", ValueType::kString}, {"price", ValueType::kInt}});
}

TEST(Schema, BasicLookup) {
  const Schema s = stocks();
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.index_of("name"), 0u);
  EXPECT_EQ(s.index_of("price"), 1u);
  EXPECT_FALSE(s.find("volume").has_value());
  EXPECT_THROW(s.index_of("volume"), common::NotFound);
}

TEST(Schema, DuplicateNamesRejected) {
  EXPECT_THROW(Schema::of({{"a", ValueType::kInt}, {"a", ValueType::kInt}}),
               common::SchemaMismatch);
}

TEST(Schema, EmptyNameRejected) {
  EXPECT_THROW(Schema::of({{"", ValueType::kInt}}), common::InvalidArgument);
}

TEST(Schema, QualifiedLookupBySuffix) {
  const Schema q = stocks().qualified("S");
  EXPECT_EQ(q.at(0).name, "S.name");
  // Bare suffix resolves when unambiguous.
  EXPECT_EQ(q.index_of("price"), 1u);
  EXPECT_EQ(q.index_of("S.price"), 1u);
}

TEST(Schema, AmbiguousSuffixThrows) {
  const Schema joined = stocks().qualified("a").concat(stocks().qualified("b"));
  EXPECT_EQ(joined.size(), 4u);
  EXPECT_THROW(joined.index_of("price"), common::NotFound);  // ambiguous
  EXPECT_EQ(joined.index_of("a.price"), 1u);
  EXPECT_EQ(joined.index_of("b.price"), 3u);
}

TEST(Schema, RequalifyReplacesQualifier) {
  const Schema q = stocks().qualified("S").qualified("T");
  EXPECT_EQ(q.at(0).name, "T.name");
}

TEST(Schema, Unqualified) {
  const Schema q = stocks().qualified("S").unqualified();
  EXPECT_EQ(q.at(0).name, "name");
  EXPECT_EQ(q.at(1).name, "price");
}

TEST(Schema, ConcatRejectsCollision) {
  EXPECT_THROW(stocks().concat(stocks()), common::SchemaMismatch);
}

TEST(Schema, Project) {
  const Schema p = stocks().project({"price"});
  EXPECT_EQ(p.size(), 1u);
  EXPECT_EQ(p.at(0).name, "price");
  EXPECT_EQ(p.at(0).type, ValueType::kInt);
  EXPECT_THROW(stocks().project({"nope"}), common::NotFound);
}

TEST(Schema, DoubledForDeltaRelations) {
  const Schema d = stocks().doubled();
  ASSERT_EQ(d.size(), 4u);
  EXPECT_EQ(d.at(0).name, "name_old");
  EXPECT_EQ(d.at(1).name, "price_old");
  EXPECT_EQ(d.at(2).name, "name_new");
  EXPECT_EQ(d.at(3).name, "price_new");
  EXPECT_EQ(d.at(1).type, ValueType::kInt);
}

TEST(Schema, UnionCompatibility) {
  const Schema a = stocks();
  const Schema renamed =
      Schema::of({{"n", ValueType::kString}, {"p", ValueType::kInt}});
  const Schema reordered =
      Schema::of({{"price", ValueType::kInt}, {"name", ValueType::kString}});
  EXPECT_TRUE(a.union_compatible(renamed));     // names may differ
  EXPECT_FALSE(a.union_compatible(reordered));  // types positional
  EXPECT_FALSE(a.union_compatible(Schema::of({{"x", ValueType::kInt}})));
}

TEST(Schema, ToString) {
  EXPECT_EQ(stocks().to_string(), "(name:STRING, price:INT)");
}

TEST(Schema, CopySharesItsRepresentation) {
  const Schema a = stocks();
  const Schema b = a;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_TRUE(b.shares(a));
  EXPECT_EQ(&b.attributes(), &a.attributes());
  const Relation r(a);
  EXPECT_TRUE(Relation(r).schema().shares(a));  // copying a relation copies no schema
}

TEST(Schema, MovedFromSchemaIsEmptyAndCanBeReassigned) {
  Schema a = stocks();
  const Schema b = std::move(a);
  // NOLINTBEGIN(bugprone-use-after-move): a moved-from schema is specified empty
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.size(), 0u);
  EXPECT_FALSE(a.find("price").has_value());
  EXPECT_THROW((void)a.index_of("price"), common::NotFound);
  EXPECT_EQ(a, Schema());
  EXPECT_EQ(a.to_string(), "()");
  a = stocks().qualified("S");
  // NOLINTEND(bugprone-use-after-move)
  EXPECT_EQ(a.index_of("price"), 1u);
  EXPECT_EQ(a.at(0).name, "S.name");
  EXPECT_EQ(b, stocks());
}

TEST(Schema, SeparatelyBuiltSchemasCompareEqual) {
  const Schema a = stocks();
  const Schema b = stocks();
  EXPECT_FALSE(a.shares(b));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, stocks().qualified("S"));
  EXPECT_NE(a, Schema());
  EXPECT_EQ(Schema(), Schema(std::vector<Attribute>{}));
}

TEST(Schema, ConcurrentCopiesLookupsAndDestruction) {
  // Four threads copy one schema, look names up through the copies and
  // drop them, all at once; the last of them to finish frees the shared
  // representation. Run under TSan this checks that the sharing is
  // race-free.
  constexpr int kThreads = 4;
  constexpr int kRounds = 2000;
  auto original = std::make_unique<Schema>(stocks().qualified("S"));
  std::vector<Schema> seeds(kThreads, *original);
  std::atomic<int> ready{0};
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, seed = std::move(seeds[t])]() mutable {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (int i = 0; i < kRounds; ++i) {
        const Schema copy = seed;
        const Relation r(copy);
        if (copy.index_of("price") != 1 || r.schema().index_of("S.name") != 0 ||
            !copy.shares(seed) || !(r.schema() == seed)) {
          wrong.fetch_add(1);
        }
      }
      seed = Schema();  // drop this thread's reference
    });
  }
  original.reset();
  for (auto& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
}

TEST(BareName, StripsQualifier) {
  EXPECT_EQ(bare_name("S.price"), "price");
  EXPECT_EQ(bare_name("price"), "price");
  EXPECT_EQ(bare_name("a.b.c"), "c");
}

}  // namespace
}  // namespace cq::rel
