// The two eager workloads: commit() returns only after every notification
// it triggered has been delivered, and each writer waits for that before
// building its next transaction (a closed loop).
//
//   fanout_complete   1 writer, 4 evaluation lanes, one hot 20k-row table
//                     under 64 standing CQs (48 complete-mode key bands,
//                     16 grouped aggregates): result maintenance and
//                     delivery dominate, the catalog is nearly idle.
//   writers_disjoint  4 writers, 1 lane, 8 tables on 8 distinct catalog
//                     shards with one small differential CQ each: the
//                     sharded commit pipeline and the 1-lane eager path,
//                     with no result maintenance to speak of.
#include <algorithm>
#include <memory>
#include <set>

#include "oracle.hpp"
#include "tracing.hpp"

namespace cqbench {

namespace {

struct EagerWorld {
  cat::Database db;  // declared first: outlives the manager hooked into it
  std::vector<TableGen> tables;
  std::unique_ptr<core::CqManager> manager;
  std::vector<InstalledCq> cqs;
};

struct EagerShape {
  std::string name;
  std::size_t writers = 1;
  std::size_t lanes = 1;
  std::size_t ops_per_txn = 8;
  /// Chance that a transaction also inserts one row into the next writer's
  /// table (exercises the ordered multi-shard lock path).
  double cross_insert = 0.0;
  /// Commits of writer 0 between garbage collections.
  std::uint64_t gc_every = 64;
  /// Commits of the first world before the determinism snapshot (single
  /// writer only: several writers interleave nondeterministically).
  std::uint64_t prefix = 0;
};

void install(EagerWorld& w, const std::string& name, const std::string& sql,
             core::DeliveryMode mode, bool trace) {
  auto oracle = std::make_shared<OracleSink>();
  core::CqSpec spec = core::CqSpec::from_sql(
      name, sql, instrument(core::triggers::on_change(), trace), nullptr, mode);
  InstalledCq cq{0, name, spec.query, oracle};
  cq.handle = w.manager->install(std::move(spec), instrument(oracle, trace));
  w.cqs.push_back(std::move(cq));
}

/// One hot table "S" under 48 complete-mode 4%-wide overlapping key bands
/// (~800-row results) and 16 GROUP BY grp SUM/COUNT aggregates (64 groups).
void build_fanout(EagerWorld& w, common::Rng& rng, const Options& opt) {
  w.tables.emplace_back("S", 64);
  w.tables.back().create_and_load(w.db, scaled(opt, 20000), rng);
  w.manager = std::make_unique<core::CqManager>(w.db);
  for (int i = 0; i < 48; ++i) {
    const std::int64_t lo = i * kKeySpace / 48;
    const std::int64_t hi = lo + kKeySpace / 25;
    install(w, "band" + std::to_string(i),
            "SELECT * FROM S WHERE key >= " + std::to_string(lo) + " AND key < " +
                std::to_string(hi),
            core::DeliveryMode::kComplete, opt.trace);
  }
  for (int i = 0; i < 16; ++i) {
    const std::int64_t hi = (i + 1) * kKeySpace / 16;
    install(w, "agg" + std::to_string(i),
            "SELECT grp, SUM(key) AS total, COUNT(*) AS n FROM S WHERE key < " +
                std::to_string(hi) + " GROUP BY grp",
            core::DeliveryMode::kDifferential, opt.trace);
  }
}

/// Eight 5k-row tables whose names hash onto eight distinct catalog
/// shards, each under one ~50%-selective differential selection.
void build_disjoint(EagerWorld& w, common::Rng& rng, const Options& opt) {
  std::set<std::size_t> shards;
  for (int i = 0; shards.size() < cat::Database::kNumShards; ++i) {
    const std::string name = std::string("W").append(std::to_string(i));
    if (!shards.insert(cat::Database::shard_of(name)).second) continue;
    w.tables.emplace_back(name, 64);
    w.tables.back().create_and_load(w.db, scaled(opt, 5000), rng);
  }
  w.manager = std::make_unique<core::CqManager>(w.db);
  for (const auto& t : w.tables) {
    install(w, "sel_" + t.name(),
            "SELECT * FROM " + t.name() + " WHERE key < " + std::to_string(kKeySpace / 2),
            core::DeliveryMode::kDifferential, opt.trace);
  }
}

/// One closed-loop writer. Owns its seeded Rng for the workload's lifetime.
struct Writer {
  common::Rng rng;
  std::vector<std::size_t> owned;  // table indexes this writer updates
  std::vector<std::size_t> next;   // the next writer's tables (cross inserts)
  std::size_t turn = 0;
  CommitStamp stamp;
  Samples commit_us;
  std::uint64_t commits = 0;
  std::uint64_t traced_commits = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t gen_ns = 0;
  std::uint64_t gc_rows = 0;
  std::uint64_t gc_calls = 0;
  std::uint64_t delta_bytes_peak = 0;

  explicit Writer(std::uint64_t seed) : rng(seed) {}
};

/// Build one world, measure it for `opt.seconds`, check it against the
/// oracle, and fold everything into `stats`.
void measure_world(const Options& opt, const EagerShape& shape,
                   void (*build)(EagerWorld&, common::Rng&, const Options&), bool first,
                   RunStats& stats) {
  const std::uint64_t t0 = now_ns();
  EagerWorld w;
  common::Rng setup_rng(opt.seed * 0x9e3779b97f4a7c15ull + 1);
  build(w, setup_rng, opt);
  w.manager->set_parallelism(opt.lanes != 0 ? opt.lanes : shape.lanes);
  w.manager->set_eager(true);
  (void)w.manager->collect_garbage();  // the preload's delta rows
  stats.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);

  std::vector<std::unique_ptr<Writer>> writers;
  for (std::size_t i = 0; i < shape.writers; ++i) {
    auto wr = std::make_unique<Writer>(opt.seed * 0x100000001b3ull + 7919 * (i + 1));
    const std::size_t per = w.tables.size() / shape.writers;
    for (std::size_t t = 0; t < per; ++t) {
      wr->owned.push_back(i * per + t);
      wr->next.push_back(((i + 1) % shape.writers) * per + t);
    }
    writers.push_back(std::move(wr));
  }
  if (shape.writers == 1) tracer::set_shared_stamp(&writers[0]->stamp);

  auto iterate = [&](std::size_t index, Mode mode) -> std::uint64_t {
    const bool traced = mode == Mode::kBench;
    Writer& wr = *writers[index];
    tracer::bind_thread_stamp(&wr.stamp);
    const std::uint64_t iter0 = now_ns();
    std::uint64_t engine_ns = 0;
    TableGen& table = w.tables[wr.owned[wr.turn % wr.owned.size()]];
    std::uint64_t updates = shape.ops_per_txn;

    std::uint64_t t = traced ? now_ns() : 0;
    auto txn = w.db.begin();
    if (traced) engine_ns += now_ns() - t;
    table.queue_updates(txn, shape.ops_per_txn, wr.rng, {}, traced, engine_ns);
    if (shape.cross_insert > 0.0 && wr.rng.chance(shape.cross_insert)) {
      w.tables[wr.next[wr.turn % wr.next.size()]].queue_untracked_insert(txn, wr.rng, traced,
                                                                         engine_ns);
      ++updates;
    }
    ++wr.turn;
    if (traced) tracer::record(Span::kTxnOps, iter0, iter0 + engine_ns);

    if (traced) wr.stamp.open(now_ns());
    const std::uint64_t c0 = now_ns();
    bool ok = true;
    try {
      txn.commit();
    } catch (const std::exception&) {
      ok = false;
    }
    const std::uint64_t c1 = now_ns();
    engine_ns += c1 - c0;
    ++wr.attempted;
    if (ok) {
      table.apply_staged();
    } else {
      table.drop_staged();
      ++wr.failed;
      updates = 0;
    }
    if (traced) {
      tracer::record(Span::kCommit, c0, c1);
      wr.stamp.close(c1);
      ++wr.traced_commits;
    } else if (mode == Mode::kPlain) {
      wr.commit_us.add(static_cast<double>(c1 - c0) / 1e3);
    }
    ++wr.commits;

    if (index == 0 && wr.commits % shape.gc_every == 0) {
      const std::uint64_t g0 = now_ns();
      wr.delta_bytes_peak = std::max<std::uint64_t>(wr.delta_bytes_peak, w.db.delta_bytes());
      const std::uint64_t g1 = now_ns();
      const std::size_t reclaimed = w.manager->collect_garbage();
      const std::uint64_t g2 = now_ns();
      engine_ns += g2 - g0;
      if (traced) {
        tracer::record(Span::kGc, g1, g2);
        wr.gc_rows += reclaimed;
        ++wr.gc_calls;
      }
    }
    if (first && shape.writers == 1 && wr.commits == shape.prefix) {
      stats.notes.push_back(determinism_note(shape.name, shape.prefix, Counters::read(*w.manager),
                                             combined_digest(w.cqs), 0));
    }
    if (traced) wr.gen_ns += (now_ns() - iter0) - engine_ns;
    return updates;
  };

  SliceHooks hooks;
  hooks.iterate = iterate;
  hooks.after_warmup = [&] {
    for (auto& wr : writers) wr->commit_us = Samples();
  };
  run_slices(opt, shape.writers, *w.manager, stats, hooks);
  stats.peak_rss_mb = std::max(stats.peak_rss_mb, peak_rss_mb());
  tracer::set_shared_stamp(nullptr);

  for (auto& wr : writers) {
    stats.commit_us.append(wr->commit_us);
    stats.bench_batches += wr->traced_commits;
    stats.attempted += wr->attempted;
    stats.failed += wr->failed;
    stats.gen_ns += wr->gen_ns;
    stats.gc_rows += wr->gc_rows;
    stats.gc_calls += wr->gc_calls;
    stats.delta_bytes_peak = std::max(stats.delta_bytes_peak, wr->delta_bytes_peak);
  }
  stats.shard_skew = std::max(stats.shard_skew, shard_skew(w.db, w.tables));
  stats.oracle_ok = check_oracle(*w.manager, w.cqs, w.db, stats.notes) && stats.oracle_ok;
}

RunStats run_eager(const Options& opt, const EagerShape& shape,
                   void (*build)(EagerWorld&, common::Rng&, const Options&)) {
  return run_worlds(opt, shape.writers, [&](const Options& world, bool first, RunStats& stats) {
    measure_world(world, shape, build, first, stats);
  });
}

}  // namespace

RunStats run_fanout_complete(const Options& opt) {
  EagerShape shape;
  shape.name = "fanout_complete";
  shape.writers = 1;
  shape.lanes = 4;
  shape.ops_per_txn = 8;
  shape.gc_every = 16;
  shape.prefix = 64;
  return run_eager(opt, shape, build_fanout);
}

RunStats run_writers_disjoint(const Options& opt) {
  EagerShape shape;
  shape.name = "writers_disjoint";
  shape.writers = 4;
  shape.lanes = 1;
  shape.ops_per_txn = 4;
  shape.cross_insert = 1.0 / 8;
  shape.gc_every = 256;
  return run_eager(opt, shape, build_disjoint);
}

}  // namespace cqbench
