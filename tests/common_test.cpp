#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "common/clock.hpp"
#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/timestamp.hpp"

namespace cq::common {
namespace {

TEST(Timestamp, OrderingAndBounds) {
  EXPECT_LT(Timestamp(1), Timestamp(2));
  EXPECT_LT(Timestamp::min(), Timestamp::zero());
  EXPECT_LT(Timestamp::zero(), Timestamp::max());
  EXPECT_EQ(Timestamp(5).next(), Timestamp(6));
  EXPECT_EQ(Timestamp::max().next(), Timestamp::max());  // saturates
}

TEST(Timestamp, Arithmetic) {
  EXPECT_EQ(Timestamp(10) + Duration(5), Timestamp(15));
  EXPECT_EQ(Timestamp(10) - Timestamp(4), Duration(6));
  EXPECT_EQ(Timestamp(7).to_string(), "7");
}

TEST(VirtualClock, TickIsStrictlyMonotone) {
  VirtualClock clock;
  Timestamp prev = clock.now();
  for (int i = 0; i < 100; ++i) {
    const Timestamp t = clock.tick();
    EXPECT_GT(t, prev);
    prev = t;
  }
  EXPECT_EQ(clock.now(), prev);
}

TEST(VirtualClock, AdvanceNeverGoesBackwards) {
  VirtualClock clock(Timestamp(100));
  clock.advance(Duration(-50));
  EXPECT_EQ(clock.now(), Timestamp(100));
  clock.advance_to(Timestamp(50));
  EXPECT_EQ(clock.now(), Timestamp(100));
  clock.advance_to(Timestamp(200));
  EXPECT_EQ(clock.now(), Timestamp(200));
}

TEST(VirtualClock, ConcurrentTicksAreUnique) {
  VirtualClock clock;
  std::set<Timestamp::rep> seen;
  std::mutex mu;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        const Timestamp ts = clock.tick();
        std::lock_guard<std::mutex> lock(mu);
        EXPECT_TRUE(seen.insert(ts.ticks()).second);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(seen.size(), 4000u);
}

TEST(SystemClock, MonotoneAcrossCalls) {
  SystemClock clock;
  Timestamp prev = clock.now();
  for (int i = 0; i < 50; ++i) {
    const Timestamp t = clock.tick();
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(Rng, DeterministicGivenSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
  Rng c(43);
  EXPECT_NE(Rng(42).next(), c.next());
}

TEST(Rng, UniformIntRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
  EXPECT_EQ(rng.uniform_int(3, 3), 3);
  EXPECT_THROW(static_cast<void>(rng.uniform_int(2, 1)), InvalidArgument);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(8);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ZipfSkewsTowardsLowRanks) {
  Rng rng(9);
  std::size_t low = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.zipf(1000, 0.9) < 10) ++low;
  }
  // With theta=0.9 the top-10 ranks get far more than the uniform 1%.
  EXPECT_GT(low, 1000u);
  EXPECT_THROW(static_cast<void>(rng.zipf(0, 0.5)), InvalidArgument);
}

TEST(Rng, ZipfZeroThetaIsUniformish) {
  Rng rng(10);
  std::size_t low = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.zipf(100, 0.0) < 10) ++low;
  }
  EXPECT_NEAR(static_cast<double>(low) / 10000.0, 0.10, 0.02);
}

TEST(Rng, StringAndShuffle) {
  Rng rng(11);
  const std::string s = rng.string(16);
  EXPECT_EQ(s.size(), 16u);
  for (char c : s) {
    EXPECT_GE(c, 'a');
    EXPECT_LE(c, 'z');
  }
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);  // a permutation
  EXPECT_THROW(static_cast<void>(rng.index(0)), InvalidArgument);
}

TEST(Metrics, AddGetReset) {
  Metrics m;
  EXPECT_EQ(m.get(metric::kRowsScanned), 0);
  m.add(metric::kRowsScanned);
  m.add(metric::kRowsScanned, 4);
  EXPECT_EQ(m.get(metric::kRowsScanned), 5);
  m.add(metric::kGcRuns, -2);
  EXPECT_EQ(m.get(metric::kGcRuns), -2);
  EXPECT_EQ(m.all().size(), 2u);
  EXPECT_NE(m.to_string().find("rows_scanned=5"), std::string::npos);
  m.reset();
  EXPECT_EQ(m.get(metric::kRowsScanned), 0);
  EXPECT_TRUE(m.all().empty());
}

TEST(HashMix, SpreadsBits) {
  std::set<std::uint64_t> hashes;
  for (std::uint64_t i = 0; i < 1000; ++i) hashes.insert(hash_mix(0, i));
  EXPECT_EQ(hashes.size(), 1000u);
  EXPECT_NE(hash_mix(1, 2), hash_mix(2, 1));
}

TEST(Logging, LevelGate) {
  const LogLevel original = log_level();
  set_log_level(LogLevel::kWarn);
  EXPECT_EQ(log_level(), LogLevel::kWarn);
  // These must not crash regardless of level.
  log_debug("invisible ", 1);
  log_warn("visible ", 2);
  set_log_level(original);
}

TEST(Errors, HierarchyAndAssert) {
  EXPECT_THROW(throw SchemaMismatch("x"), InvalidArgument);
  EXPECT_THROW(throw InvalidArgument("x"), Error);
  EXPECT_THROW(throw NotFound("x"), Error);
  try {
    CQ_ASSERT(1 + 1 == 3);
    FAIL() << "assert should have thrown";
  } catch (const InternalError& e) {
    EXPECT_NE(std::string(e.what()).find("invariant failed"), std::string::npos);
  }
  CQ_ASSERT(true);  // no throw
}

}  // namespace
}  // namespace cq::common
