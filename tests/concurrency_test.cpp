// Concurrency stress tests: hammer the introspection HTTP surface from
// several client threads while the engine installs CQs, commits
// transactions and runs sync rounds. These are the tests the TSan lane
// (the `tsan` CMake preset / CI job) exists for — single-threaded runs
// pass trivially; the sanitizer is what turns a latent race into a
// failure.
//
// Regression notes — races this file pins down:
//
//  * diom::serve_introspection used to accept a *nullable* std::mutex:
//    passing nullptr let handlers scrape a mediator the engine thread was
//    concurrently mutating (introspect_test did exactly that). The escape
//    hatch is gone — the engine mutex is a required cq::common::Mutex& —
//    and ScrapesStayCoherentWhileEngineRuns drives the full engine loop
//    against all five endpoints to prove the discipline holds.
//
//  * Mediator's sync bookkeeping (attached sources, round history,
//    staleness threshold) and CqManager's per-CQ stats registry had no
//    internal locks, so even *copying* stats for display raced with a
//    round in flight. Both now carry an annotated internal mutex
//    (Mediator::mu_, CqManager::stats_mu_; see common/sync.hpp), and
//    WritersAndStatsReaders walks the stats registry from reader threads
//    while eager commits mutate it.
//
//  * DeltaRelation::truncate_before used to shrink the change log with no
//    regard for concurrent readers: a parallel evaluation batch holding a
//    DeltaSnapshot could observe rows_ mid-erase. Truncation now takes the
//    snapshot pin mutex for the whole erase and defers (returns 0) while
//    any ReadPin is live; GcDefersWhileSnapshotsArePinned and
//    SnapshotReadersVsGarbageCollect pin both halves of that protocol.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "catalog/database.hpp"
#include "catalog/transaction.hpp"
#include "common/lock_profile.hpp"
#include "common/observability.hpp"
#include "common/sync.hpp"
#include "common/thread_pool.hpp"
#include "cq/manager.hpp"
#include "cq/trigger.hpp"
#include "delta/delta_relation.hpp"
#include "delta/delta_snapshot.hpp"
#include "diom/introspect.hpp"
#include "diom/mediator.hpp"
#include "diom/source.hpp"

namespace cq {
namespace {

namespace obs = common::obs;
using rel::Value;
using rel::ValueType;

/// Minimal loopback HTTP GET (thread-safe; no gtest assertions so it can
/// run on reader threads). Returns the body, empty on any failure.
std::string raw_get(std::uint16_t port, const std::string& target,
                    int* status_out = nullptr) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return "";
  }
  const std::string req =
      "GET " + target + " HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n";
  if (::send(fd, req.data(), req.size(), 0) != static_cast<ssize_t>(req.size())) {
    ::close(fd);
    return "";
  }
  std::string raw;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n <= 0) break;
    raw.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  if (status_out != nullptr && raw.size() > 12) {
    *status_out = std::stoi(raw.substr(9, 3));
  }
  const auto split = raw.find("\r\n\r\n");
  return split == std::string::npos ? "" : raw.substr(split + 4);
}

/// A torn JSON document — one assembled from state that changed mid-read —
/// shows up as unbalanced braces or an unterminated string. Cheap
/// structural check; not a full parser.
bool json_is_whole(const std::string& body) {
  if (body.empty() || (body.front() != '{' && body.front() != '[')) return false;
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  bool opened = false;
  for (const char c : body) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{':
      case '[': ++depth; opened = true; break;
      case '}':
      case ']': --depth; break;
      default: break;
    }
    if (opened && depth == 0) break;  // root closed; trailing newline is fine
  }
  return opened && depth == 0 && !in_string;
}

core::CqSpec watch_spec(const std::string& name) {
  return core::CqSpec::from_sql(name, "SELECT * FROM T WHERE id > 0",
                                core::triggers::on_change(), nullptr,
                                core::DeliveryMode::kDifferential);
}

class ConcurrencyStress : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::global().reset();
    obs::set_enabled(true);
  }
  void TearDown() override {
    obs::set_enabled(false);
    obs::global().reset();
  }
};

// Engine thread runs the full loop — install CQs, commit at the source,
// sync rounds, poll, remove — under the engine mutex, while three client
// threads hammer every introspection endpoint. Every scraped document must
// be structurally whole, and the final counters must add up.
TEST_F(ConcurrencyStress, ScrapesStayCoherentWhileEngineRuns) {
  constexpr int kRounds = 40;
  constexpr int kReaders = 3;

  cat::Database source_db;
  source_db.create_table("T",
                         rel::Schema({{"id", ValueType::kInt}, {"s", ValueType::kString}}));
  auto source = std::make_shared<diom::RelationalSource>("src", source_db, "T");

  diom::Mediator mediator("client");
  mediator.attach(source, "T");

  obs::IntrospectServer server;
  common::Mutex engine_mu;
  diom::serve_introspection(server, mediator, engine_mu);
  server.start(0);
  ASSERT_TRUE(server.running());
  const std::uint16_t port = server.port();

  std::atomic<bool> done{false};
  std::atomic<int> torn{0};
  std::atomic<int> scrapes{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([port, r, &done, &torn, &scrapes] {
      const std::vector<std::string> targets = {"/metrics",     "/stats",
                                                "/healthz",     "/events?n=50",
                                                "/trace",       "/profile",
                                                "/trace?trace_id=1"};
      int i = r;  // stagger the rotation so readers diverge
      while (!done.load(std::memory_order_acquire)) {
        const std::string& target = targets[static_cast<std::size_t>(i++) % targets.size()];
        int status = 0;
        const std::string body = raw_get(port, target, &status);
        if (body.empty() || (status != 200 && status != 503)) continue;
        ++scrapes;
        if (target != "/metrics" && target.rfind("/events", 0) != 0 &&
            !json_is_whole(body)) {
          ++torn;
        }
      }
    });
  }

  std::size_t rows_applied = 0;
  std::uint64_t committed = 0;
  {
    common::LockGuard lock(engine_mu);
    mediator.manager().install(watch_spec("watch"), nullptr);
  }
  for (int i = 0; i < kRounds; ++i) {
    common::LockGuard lock(engine_mu);
    auto txn = source_db.begin();
    txn.insert("T", {Value(static_cast<std::int64_t>(i + 1)), Value(std::string("row"))});
    txn.commit();
    ++committed;
    rows_applied += mediator.sync();
    mediator.manager().poll();
    if (i % 8 == 7) {
      const auto h = mediator.manager().install(watch_spec("extra_" + std::to_string(i)),
                                                nullptr);
      mediator.manager().remove(h);
    }
  }
  // A fast engine loop can outrun the readers entirely (single-core CI);
  // keep serving with the engine idle until each reader has seen every
  // endpoint at least once, so the coherence assertions mean something.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (scrapes.load() < kReaders * 7 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  server.stop();

  EXPECT_EQ(torn.load(), 0);
  EXPECT_GE(scrapes.load(), kReaders * 7);
  // Every committed row crossed the wire exactly once.
  EXPECT_EQ(rows_applied, committed);
  {
    common::LockGuard lock(engine_mu);
    EXPECT_EQ(mediator.database().table("T").size(), committed);
    const core::CqStats s = mediator.manager().cq_stats().at("watch");
    EXPECT_EQ(s.trigger_checks, s.fired + s.suppressed);
    const std::deque<diom::Mediator::SyncReport> history = mediator.sync_history();
    ASSERT_FALSE(history.empty());
    EXPECT_EQ(history.back().round, static_cast<std::uint64_t>(kRounds));
  }
}

// N writers committing through the catalog (serialized by the engine
// mutex, as the lock discipline demands) while M readers walk the per-CQ
// stats registry *without* the engine mutex — CqManager::stats_mu_ alone
// must keep the copies coherent. Final counters must balance exactly.
TEST_F(ConcurrencyStress, WritersAndStatsReaders) {
  constexpr int kWriters = 4;
  constexpr int kReaders = 3;
  constexpr int kTxnsPerWriter = 30;

  cat::Database db;
  db.create_table("T",
                  rel::Schema({{"id", ValueType::kInt}, {"s", ValueType::kString}}));
  core::CqManager manager(db);
  manager.set_eager(true);  // trigger checks fire inside each commit
  manager.install(watch_spec("watch"), nullptr);

  common::Mutex engine_mu;
  std::atomic<bool> done{false};
  std::atomic<int> inconsistent{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&manager, &done, &inconsistent] {
      while (!done.load(std::memory_order_acquire)) {
        // cq_stats() copies under stats_mu_; each snapshot must be
        // internally consistent even mid-commit.
        const auto stats = manager.cq_stats();
        const auto it = stats.find("watch");
        if (it == stats.end()) continue;
        const core::CqStats& s = it->second;
        if (s.trigger_checks != s.fired + s.suppressed) ++inconsistent;
        obs::JsonWriter w;
        manager.write_stats_json(w);  // also exercises the JSON walk
      }
    });
  }

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int wtr = 0; wtr < kWriters; ++wtr) {
    writers.emplace_back([wtr, &db, &engine_mu] {
      for (int i = 0; i < kTxnsPerWriter; ++i) {
        common::LockGuard lock(engine_mu);
        auto txn = db.begin();
        txn.insert("T", {Value(static_cast<std::int64_t>(wtr * 1000 + i)),
                         Value(std::string("w"))});
        txn.commit();
      }
    });
  }
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(inconsistent.load(), 0);
  EXPECT_EQ(db.table("T").size(),
            static_cast<std::size_t>(kWriters) * kTxnsPerWriter);
  const core::CqStats s = manager.cq_stats().at("watch");
  EXPECT_EQ(s.trigger_checks, s.fired + s.suppressed);
  // Eager mode: every commit that touched T triggered exactly one check.
  EXPECT_EQ(s.trigger_checks, static_cast<std::uint64_t>(kWriters) * kTxnsPerWriter);
}

TEST(DeltaGcPins, GcDefersWhileSnapshotsArePinned) {
  // Deterministic half of the pin protocol: a live DeltaSnapshot makes
  // truncation a no-op (deferred reclamation), and the next GC pass after
  // the pin is released reclaims everything the first pass skipped.
  cat::Database db;
  db.create_table("T", rel::Schema::of({{"k", ValueType::kInt}}));
  for (int i = 0; i < 8; ++i) db.insert("T", {Value(i)});
  const delta::DeltaRelation& d = db.delta("T");

  {
    delta::DeltaSnapshot snap(d);
    EXPECT_EQ(d.read_pins(), 1u);
    EXPECT_EQ(db.garbage_collect(), 0u);  // no zones: cutoff=now, yet pinned
    EXPECT_EQ(d.size(), 8u);
    EXPECT_EQ(snap.net_effect(common::Timestamp::min()).size(), 8u);
    EXPECT_EQ(snap.insertions(common::Timestamp::min()).size(), 8u);
  }
  EXPECT_EQ(d.read_pins(), 0u);
  EXPECT_EQ(db.garbage_collect(), 8u);  // deferred reclamation lands now
  EXPECT_TRUE(d.empty());
}

TEST(DeltaGcPins, SnapshotReadersVsGarbageCollect) {
  // TSan half: reader threads continuously pin snapshots and walk their
  // views, and a diom source pulls through snapshots of its own, while GC
  // threads hammer truncation. The pin mutex hand-off is the only
  // synchronization — the sanitizer lane proves it is enough.
  cat::Database db;
  db.create_table("T", rel::Schema::of({{"k", ValueType::kInt}}));
  constexpr int kRows = 64;
  for (int i = 0; i < kRows; ++i) db.insert("T", {Value(i)});
  const delta::DeltaRelation& d = db.delta("T");
  const diom::RelationalSource source("T-source", db, "T");

  constexpr int kReaders = 3;
  constexpr int kGcThreads = 2;
  constexpr int kItersPerThread = 200;
  std::atomic<bool> incoherent{false};
  std::vector<std::thread> threads;
  threads.reserve(kReaders + kGcThreads + 1);
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&db, &d, &incoherent] {
      for (int i = 0; i < kItersPerThread; ++i) {
        delta::DeltaSnapshot snap(d);
        const auto& net = snap.net_effect(common::Timestamp::min());
        // Insert-only log: every surviving net row is an insertion, so the
        // two views of one snapshot must agree row-for-row.
        if (net.size() != snap.insertions(common::Timestamp::min()).size() ||
            !snap.deletions(common::Timestamp::min()).empty()) {
          incoherent.store(true, std::memory_order_relaxed);
        }
        if (i % 16 == 0) (void)db.garbage_collect();  // pinned by *this* thread
      }
    });
  }
  threads.emplace_back([&source, &incoherent] {
    for (int i = 0; i < kItersPerThread; ++i) {
      // Insert-only log: a pull sees a suffix of the inserts, never more.
      const auto rows = source.pull_deltas(common::Timestamp::min());
      if (rows.size() > static_cast<std::size_t>(kRows)) {
        incoherent.store(true, std::memory_order_relaxed);
      }
      for (const auto& row : rows) {
        if (row.kind() != delta::ChangeKind::kInsert) {
          incoherent.store(true, std::memory_order_relaxed);
        }
      }
    }
  });
  for (int g = 0; g < kGcThreads; ++g) {
    threads.emplace_back([&db] {
      for (int i = 0; i < kItersPerThread; ++i) (void)db.garbage_collect();
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_FALSE(incoherent.load());
  EXPECT_EQ(d.read_pins(), 0u);
  // With all pins gone a final pass reclaims whatever the race left behind.
  (void)db.garbage_collect();
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(db.table("T").size(), static_cast<std::size_t>(kRows));
}

// -------------------------------------------- scheduler observability ----

// run_all stamps each task with the dispatcher's SpanContext; every lane —
// workers and the participating caller — must adopt it for the task's
// duration, feed the queue-wait histogram, and advance its busy clock.
TEST_F(ConcurrencyStress, PoolLanesAdoptDispatcherContextAndRecordWait) {
  constexpr std::size_t kTasks = 32;
  constexpr std::uint64_t kTraceId = 1234;

  common::ThreadPool pool(3);
  ASSERT_EQ(pool.lanes(), 4u);
  const std::uint64_t waits_before =
      obs::global().histogram(obs::hist::kPoolTaskWaitUs).count();

  std::vector<std::uint64_t> seen(kTasks, 0);
  {
    obs::ContextScope ctx(obs::SpanContext{kTraceId, 1});
    std::vector<std::function<void()>> tasks;
    tasks.reserve(kTasks);
    for (std::size_t i = 0; i < kTasks; ++i) {
      tasks.push_back([&seen, i] {
        seen[i] = obs::current_context().trace_id;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      });
    }
    pool.run_all(std::move(tasks));  // barrier: seen[] is safe to read after
  }
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(seen[i], kTraceId) << "task " << i << " ran without the context";
  }
  // Outside the scope the thread's context is restored to none.
  EXPECT_EQ(obs::current_context().trace_id, 0u);

  EXPECT_GE(obs::global().histogram(obs::hist::kPoolTaskWaitUs).count(),
            waits_before + kTasks);
  std::uint64_t busy = 0;
  for (std::size_t lane = 0; lane < pool.lanes(); ++lane) {
    busy += pool.lane_busy_ns(lane);
  }
  EXPECT_GT(busy, 0u);
}

// Histogram::record is all relaxed atomics; N threads hammering one
// histogram must lose nothing (the TSan lane checks the memory model, this
// assertion checks the arithmetic).
TEST(HistogramConcurrency, ParallelRecordsAllLand) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 5000;

  obs::Histogram h;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (std::uint64_t v = 1; v <= kPerThread; ++v) h.record(v);
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(h.count(), kThreads * kPerThread);
  EXPECT_EQ(h.sum(), kThreads * (kPerThread * (kPerThread + 1) / 2));
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), kPerThread);
}

// Profiled cq::Mutex under contention: acquisition counts must balance
// exactly, the contended/wait columns must move, and — the part TSan is
// here for — the holder-owned hold_start_ns_ handoff through the mutex
// itself must be race-free.
TEST(LockProfileConcurrency, ContendedAcquisitionsAreCounted) {
  namespace lockprof = common::lockprof;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 2000;

  common::Mutex mu("tsan_lockprof_site");
  lockprof::set_enabled(true);
  mu.lock();  // registers the site row
  mu.unlock();

  const lockprof::SiteStats* row = nullptr;
  for (std::size_t i = 0; i < lockprof::site_count(); ++i) {
    const char* name = lockprof::site(i).name.load(std::memory_order_acquire);
    if (name != nullptr && std::string(name) == "tsan_lockprof_site") {
      row = &lockprof::site(i);
    }
  }
  ASSERT_NE(row, nullptr);
  const std::uint64_t acq0 = row->acquisitions.load(std::memory_order_relaxed);

  std::uint64_t shared = 0;  // guarded by mu
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&mu, &shared] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        mu.lock();
        ++shared;
        mu.unlock();
      }
    });
  }
  for (auto& t : threads) t.join();

  mu.lock();
  EXPECT_EQ(shared, kThreads * kPerThread);
  mu.unlock();
  EXPECT_EQ(row->acquisitions.load(std::memory_order_relaxed) - acq0,
            kThreads * kPerThread + 1);
  EXPECT_GE(row->hold_us.count(), kThreads * kPerThread);

  // Deterministic contention: hold the lock until another thread has
  // announced its acquisition attempt, so its try_lock fast path misses.
  // Retried for the (rare) schedule where the thread is preempted between
  // announcing and attempting for the whole grace period.
  const std::uint64_t contended0 = row->contended.load(std::memory_order_relaxed);
  for (int attempt = 0; attempt < 50; ++attempt) {
    mu.lock();
    std::atomic<bool> attempting{false};
    std::thread blocked([&mu, &attempting] {
      attempting.store(true, std::memory_order_release);
      mu.lock();
      mu.unlock();
    });
    while (!attempting.load(std::memory_order_acquire)) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    mu.unlock();
    blocked.join();
    if (row->contended.load(std::memory_order_relaxed) > contended0) break;
  }
  EXPECT_GT(row->contended.load(std::memory_order_relaxed), contended0);
  EXPECT_GT(row->wait_ns.load(std::memory_order_relaxed), 0u);
  lockprof::set_enabled(false);
}

}  // namespace
}  // namespace cq
