// mediator_refresh: the paper's client-mediator architecture. A server
// Database holds three sweep tables A, B, C; a diom::Mediator mirrors them
// through RelationalSources over a simulated Network and runs 16 CQs on the
// mirror with the periodic strategy. One driver runs a closed loop of
// bursts (32 server commits of 8 Zipf-skewed updates) each followed by a
// refresh: sync(), poll(), mirror collect_garbage(), server
// garbage_collect(). Long multi-commit windows compact in the delta layer
// before the DRA join terms and the wire layer see them.
#include <algorithm>
#include <memory>

#include "diom/mediator.hpp"
#include "diom/network.hpp"
#include "oracle.hpp"
#include "tracing.hpp"

namespace cqbench {

namespace {

constexpr std::size_t kCommitsPerBurst = 32;
constexpr std::size_t kOpsPerCommit = 8;
constexpr double kZipfTheta = 0.8;
/// Rounds of the first world before the determinism snapshot.
constexpr std::uint64_t kPrefixRounds = 16;

struct MediatorWorld {
  cat::Database server;
  std::vector<TableGen> tables;  // A, B, C
  diom::Network network;
  std::unique_ptr<diom::Mediator> mediator;
  std::vector<InstalledCq> cqs;
};

std::string key_below(const std::string& alias, double share) {
  return alias + ".key < " +
         std::to_string(static_cast<std::int64_t>(share * static_cast<double>(kKeySpace)));
}

void install(MediatorWorld& w, const std::string& name, const std::string& sql,
             core::TriggerPtr trigger, bool trace) {
  auto oracle = std::make_shared<OracleSink>();
  core::CqSpec spec = core::CqSpec::from_sql(name, sql, instrument(std::move(trigger), trace),
                                             nullptr, core::DeliveryMode::kDifferential);
  InstalledCq cq{0, name, spec.query, oracle};
  cq.handle = w.mediator->manager().install(std::move(spec), instrument(oracle, trace));
  w.cqs.push_back(std::move(cq));
}

std::unique_ptr<MediatorWorld> build(const Options& opt) {
  auto w = std::make_unique<MediatorWorld>();
  common::Rng rng(opt.seed * 0x9e3779b97f4a7c15ull + 3);
  const std::size_t rows = scaled(opt, 20000);
  const std::size_t groups = std::max<std::size_t>(1, rows / 32);  // join fan-out ~32/key
  for (const char* name : {"A", "B", "C"}) {
    w->tables.emplace_back(name, groups);
    w->tables.back().create_and_load(w->server, rows, rng);
  }
  w->mediator = std::make_unique<diom::Mediator>("client", &w->network);
  for (const auto& t : w->tables) {
    auto source = std::make_shared<diom::RelationalSource>(t.name(), w->server, t.name());
    w->mediator->attach(instrument(std::move(source), opt.trace), t.name());
    w->mediator->database().create_index(t.name(), "by_grp", {"grp"});
  }
  w->mediator->set_eval_threads(opt.lanes != 0 ? opt.lanes : 1);

  using core::triggers::aggregate_drift;
  using core::triggers::change_count;
  using core::triggers::on_change;
  for (int i = 0; i < 6; ++i) {
    install(*w, "ab" + std::to_string(i),
            "SELECT * FROM A a, B b WHERE a.grp = b.grp AND " + key_below("a", 0.04 + 0.02 * i) +
                " AND " + key_below("b", 0.1),
            on_change(), opt.trace);
  }
  for (int i = 0; i < 4; ++i) {
    install(*w, "abc" + std::to_string(i),
            "SELECT a.key, a.grp, b.key, c.key FROM A a, B b, C c WHERE a.grp = b.grp AND "
            "b.grp = c.grp AND " +
                key_below("a", 0.02 + 0.01 * i) + " AND " + key_below("b", 0.2) + " AND " +
                key_below("c", 0.2),
            on_change(), opt.trace);
  }
  for (int i = 0; i < 4; ++i) {
    install(*w, "sum" + std::to_string(i),
            "SELECT grp, SUM(key) AS total FROM A WHERE key < " +
                std::to_string((i + 1) * kKeySpace / 4) + " GROUP BY grp",
            aggregate_drift("A", "key", 2e6 * (1 << i)), opt.trace);
  }
  install(*w, "sel_b", "SELECT * FROM B WHERE key < 300000", change_count(64), opt.trace);
  install(*w, "sel_c", "SELECT * FROM C WHERE key < 500000", change_count(8), opt.trace);
  // Drop the preload's delta rows on both sides before measuring.
  (void)w->mediator->manager().collect_garbage();
  (void)w->server.garbage_collect();
  return w;
}

/// Build one world, measure it for `opt.seconds`, check it against the
/// oracle, and fold everything into `stats`.
void measure_world(const Options& opt, bool first, RunStats& stats) {
  const std::uint64_t t0 = now_ns();
  std::unique_ptr<MediatorWorld> world = build(opt);
  stats.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  MediatorWorld& w = *world;
  core::CqManager& manager = w.mediator->manager();
  cat::Database& mirror = w.mediator->database();

  // The driver's own generator state, for the world's whole lifetime.
  common::Rng rng(opt.seed * 0x100000001b3ull + 7919);
  const TableGen::Pick pick{kZipfTheta, scaled(opt, 20000)};
  std::uint64_t rounds = 0;
  Samples commit_us;
  Samples refresh_us;

  auto iterate = [&](std::size_t, Mode mode) -> std::uint64_t {
    const bool traced = mode == Mode::kBench;
    const std::uint64_t iter0 = now_ns();
    std::uint64_t engine_ns = 0;
    std::uint64_t updates = 0;
    for (std::size_t c = 0; c < kCommitsPerBurst; ++c) {
      const double roll = rng.uniform01();
      TableGen& table = w.tables[roll < 0.78 ? 0 : (roll < 0.97 ? 1 : 2)];
      const std::uint64_t ops0 = engine_ns;
      const std::uint64_t t = traced ? now_ns() : 0;
      auto txn = w.server.begin();
      if (traced) engine_ns += now_ns() - t;
      table.queue_updates(txn, kOpsPerCommit, rng, pick, traced, engine_ns);
      if (traced) {
        const std::uint64_t n = now_ns();
        tracer::record(Span::kTxnOps, n - (engine_ns - ops0), n);
      }
      const std::uint64_t c0 = now_ns();
      bool ok = true;
      try {
        txn.commit();
      } catch (const std::exception&) {
        ok = false;
      }
      const std::uint64_t c1 = now_ns();
      engine_ns += c1 - c0;
      ++stats.attempted;
      if (ok) {
        table.apply_staged();
        updates += kOpsPerCommit;
      } else {
        table.drop_staged();
        ++stats.failed;
      }
      if (traced) {
        tracer::record(Span::kCommit, c0, c1);
      } else if (mode == Mode::kPlain) {
        commit_us.add(static_cast<double>(c1 - c0) / 1e3);
      }
    }

    const std::uint64_t bytes0 = w.network.total_bytes();
    const std::uint64_t messages0 = w.network.total_messages();
    const std::uint64_t r0 = now_ns();
    const diom::Mediator::SyncReport report = w.mediator->sync_report();
    const std::uint64_t r1 = now_ns();
    (void)manager.poll();
    const std::uint64_t r2 = now_ns();
    stats.attempted += w.tables.size();
    stats.failed += report.failures.size();
    stats.delta_bytes_peak = std::max<std::uint64_t>(
        stats.delta_bytes_peak, w.server.delta_bytes() + mirror.delta_bytes());
    const std::uint64_t g0 = now_ns();
    const std::size_t mirror_rows = manager.collect_garbage();
    const std::uint64_t g1 = now_ns();
    const std::size_t server_rows = w.server.garbage_collect();
    const std::uint64_t g2 = now_ns();
    engine_ns += g2 - r0;
    ++rounds;

    if (traced) {
      tracer::record(Span::kSync, r0, r1);
      tracer::record(Span::kPoll, r1, r2);
      tracer::record(Span::kRefresh, r0, r2);
      tracer::record(Span::kGc, g0, g1);
      tracer::record(Span::kGc, g1, g2);
      stats.gc_rows += mirror_rows + server_rows;
      stats.gc_calls += 2;
      stats.net_bytes += w.network.total_bytes() - bytes0;
      stats.net_messages += w.network.total_messages() - messages0;
      stats.rows_applied += report.rows_applied;
      ++stats.bench_batches;
      stats.gen_ns += (now_ns() - iter0) - engine_ns;
    } else if (mode == Mode::kPlain) {
      refresh_us.add(static_cast<double>(r2 - r0) / 1e3);
    }
    if (first && rounds == kPrefixRounds) {
      stats.notes.push_back(determinism_note("mediator_refresh", kPrefixRounds,
                                             Counters::read(manager),
                                             combined_digest(w.cqs), w.network.total_bytes()));
    }
    return updates;
  };

  std::uint64_t net_start = 0;
  SliceHooks hooks;
  hooks.iterate = iterate;
  hooks.after_warmup = [&] {
    commit_us = Samples();
    refresh_us = Samples();
    net_start = w.network.total_bytes();
  };
  run_slices(opt, 1, manager, stats, hooks);
  stats.net_bytes_all += w.network.total_bytes() - net_start;
  stats.commit_us.append(commit_us);
  stats.refresh_us.append(refresh_us);
  stats.peak_rss_mb = std::max(stats.peak_rss_mb, peak_rss_mb());

  stats.shard_skew = std::max(stats.shard_skew, shard_skew(w.server, w.tables));
  (void)w.mediator->sync();
  stats.oracle_ok = check_oracle(manager, w.cqs, w.server, stats.notes) && stats.oracle_ok;
}

}  // namespace

RunStats run_mediator_refresh(const Options& opt) { return run_worlds(opt, 1, measure_world); }

}  // namespace cqbench
