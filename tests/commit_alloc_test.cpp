// Heap allocations per commit, counted with a replaced global operator
// new over a 3-column table whose string column holds 16 characters (past
// the small-string buffer, so every copied row costs a vector and a
// string). No CQ is installed: this pins the catalog half of the commit
// path. Each shape is committed once to warm the table and its delta log,
// then measured on fresh transactions with a garbage-collect pass in
// between, so vector growth never lands inside a measured commit.
//
// The bounds are ceilings, not the counts taken today; docs/performance.md
// records those.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <new>
#include <string>
#include <vector>

#include "catalog/database.hpp"
#include "catalog/transaction.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

// GCC cannot see that the operator new above is what pairs with these.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpragmas"
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace cq::cat {
namespace {

using rel::TupleId;
using rel::Value;
using rel::ValueType;

std::vector<Value> row(std::int64_t k, char c) {
  return {Value(k), Value(std::string(16, c)), Value(k * 7)};
}

class CommitAllocations : public ::testing::Test {
 protected:
  void SetUp() override {
    db_.create_table("T", rel::Schema::of({{"k", ValueType::kInt},
                                           {"s", ValueType::kString},
                                           {"v", ValueType::kInt}}));
    for (std::int64_t k = 0; k < 16; ++k) tids_.push_back(db_.insert("T", row(k, 'a')));
  }

  /// Allocations inside commit() of a transaction `queue` fills; the
  /// median of several identical measurements.
  std::size_t measure(const std::function<void(Transaction&)>& queue) {
    std::vector<std::size_t> counts;
    for (int i = 0; i < 6; ++i) {
      auto txn = db_.begin();
      queue(txn);
      g_allocations.store(0);
      g_counting.store(true);
      txn.commit();
      g_counting.store(false);
      if (i > 0) counts.push_back(g_allocations.load());  // the first warms up
      (void)db_.garbage_collect();
    }
    std::sort(counts.begin(), counts.end());
    return counts[counts.size() / 2];
  }

  Database db_;
  std::vector<TupleId> tids_;
  char fill_ = 'b';
};

TEST_F(CommitAllocations, FourModifies) {
  const std::size_t n = measure([&](Transaction& txn) {
    ++fill_;
    for (int i = 0; i < 4; ++i) txn.modify("T", tids_[i], row(i, fill_));
  });
  RecordProperty("allocations", static_cast<int>(n));
  EXPECT_LE(n, 20u);
}

TEST_F(CommitAllocations, EightModifiesOverFourTids) {
  const std::size_t n = measure([&](Transaction& txn) {
    ++fill_;
    for (int i = 0; i < 8; ++i) txn.modify("T", tids_[i % 4], row(i, fill_));
  });
  RecordProperty("allocations", static_cast<int>(n));
  EXPECT_LE(n, 20u);
}

TEST_F(CommitAllocations, InsertModifyErase) {
  const std::size_t n = measure([&](Transaction& txn) {
    const TupleId tid = txn.insert("T", row(100, 'x'));
    txn.modify("T", tid, row(101, 'y'));
    txn.erase("T", tid);
  });
  RecordProperty("allocations", static_cast<int>(n));
  EXPECT_LE(n, 12u);
}

TEST_F(CommitAllocations, OneInsert) {
  const std::size_t n = measure([&](Transaction& txn) { txn.insert("T", row(200, 'z')); });
  RecordProperty("allocations", static_cast<int>(n));
  EXPECT_LE(n, 10u);
}

}  // namespace
}  // namespace cq::cat
