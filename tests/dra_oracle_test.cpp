// The paper's central theorem (Section 4.2): the DRA is functionally
// equivalent to the complete re-evaluation solution (Propagate). These
// property tests exercise that equivalence over randomized databases,
// update mixes, and query shapes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "cq/dra.hpp"
#include "cq/propagate.hpp"
#include "query/parser.hpp"
#include "testing/dra_script.hpp"
#include "testing/random_db.hpp"

namespace cq {
namespace {

using core::DiffResult;
using core::DraStats;

/// Run one randomized round: build DB, snapshot result, update, and check
/// DRA == Propagate.
void check_equivalence(std::uint64_t seed, std::size_t base_rows, std::size_t updates,
                       const testing::UpdateMix& mix, bool join_query) {
  common::Rng rng(seed);
  cat::Database db;
  testing::make_stock_table(db, "S", base_rows, rng);
  testing::make_stock_table(db, "T", base_rows / 2 + 1, rng);

  qry::SpjQuery query = join_query
                            ? testing::random_join_query({"S", "T"}, rng)
                            : testing::random_selection_query("S", 0.3, rng);

  const rel::Relation before = core::recompute(query, db);
  const common::Timestamp t0 = db.clock().now();

  testing::random_updates(db, "S", updates, mix, rng);
  if (join_query) testing::random_updates(db, "T", updates / 2, mix, rng);

  DraStats stats;
  const DiffResult via_dra =
      core::dra_differential(query, db, t0, nullptr, &stats);
  const DiffResult via_oracle = core::propagate(query, db, before);

  EXPECT_TRUE(via_dra.equivalent(via_oracle))
      << "seed=" << seed << " dra=" << via_dra.to_string()
      << " oracle=" << via_oracle.to_string();

  // Applying the DRA diff to the old result must reproduce the new result.
  const rel::Relation after = core::recompute(query, db);
  const rel::Relation patched = core::apply_diff(before, via_dra.consolidated());
  EXPECT_TRUE(patched.equal_multiset(after)) << "seed=" << seed;
}

TEST(DraOracle, SelectionInsertOnly) {
  check_equivalence(1, 200, 60, {.modify_fraction = 0, .delete_fraction = 0}, false);
}

TEST(DraOracle, SelectionMixedUpdates) {
  check_equivalence(2, 200, 80, {.modify_fraction = 0.4, .delete_fraction = 0.3}, false);
}

TEST(DraOracle, SelectionDeleteHeavy) {
  check_equivalence(3, 300, 150, {.modify_fraction = 0.1, .delete_fraction = 0.8}, false);
}

TEST(DraOracle, JoinInsertOnly) {
  check_equivalence(4, 120, 40, {.modify_fraction = 0, .delete_fraction = 0}, true);
}

TEST(DraOracle, JoinMixedUpdates) {
  check_equivalence(5, 120, 60, {.modify_fraction = 0.35, .delete_fraction = 0.25}, true);
}

TEST(DraOracle, JoinSmallBaseModifyDeleteMix) {
  check_equivalence(6, 80, 40, {.modify_fraction = 0.3, .delete_fraction = 0.3}, true);
}

TEST(DraOracle, SelectionModifyDeleteMix) {
  check_equivalence(7, 150, 70, {.modify_fraction = 0.3, .delete_fraction = 0.3}, false);
}

/// Parameterized sweep across seeds and mixes — the main property test.
struct SweepParam {
  std::uint64_t seed;
  bool join;
  double modify;
  double erase;
};

class DraSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(DraSweep, MatchesOracle) {
  const auto& p = GetParam();
  check_equivalence(p.seed, p.join ? 90 : 250, p.join ? 50 : 100,
                    {.modify_fraction = p.modify, .delete_fraction = p.erase}, p.join);
}

std::vector<SweepParam> sweep_params() {
  std::vector<SweepParam> out;
  std::uint64_t seed = 100;
  for (bool join : {false, true}) {
    for (double modify : {0.0, 0.3, 0.6}) {
      for (double erase : {0.0, 0.25, 0.5}) {
        out.push_back({seed++, join, modify, erase});
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Randomized, DraSweep, ::testing::ValuesIn(sweep_params()),
                         [](const ::testing::TestParamInfo<SweepParam>& info) {
                           const auto& p = info.param;
                           return (p.join ? std::string("join") : std::string("sel")) +
                                  "_s" + std::to_string(p.seed) + "_m" +
                                  std::to_string(static_cast<int>(p.modify * 100)) +
                                  "_d" + std::to_string(static_cast<int>(p.erase * 100));
                         });

/// Three-way join, all three relations changing: exercises the full
/// 2^3 − 1 = 7-term truth table.
TEST(DraOracle, ThreeWayJoinAllChanged) {
  common::Rng rng(42);
  cat::Database db;
  testing::make_stock_table(db, "A", 60, rng);
  testing::make_stock_table(db, "B", 60, rng);
  testing::make_stock_table(db, "C", 60, rng);
  qry::SpjQuery query = testing::random_join_query({"A", "B", "C"}, rng);

  const rel::Relation before = core::recompute(query, db);
  const common::Timestamp t0 = db.clock().now();
  const testing::UpdateMix mix{.modify_fraction = 0.3, .delete_fraction = 0.3};
  testing::random_updates(db, "A", 30, mix, rng);
  testing::random_updates(db, "B", 30, mix, rng);
  testing::random_updates(db, "C", 30, mix, rng);

  DraStats stats;
  const DiffResult via_dra = core::dra_differential(query, db, t0, nullptr, &stats);
  const DiffResult via_oracle = core::propagate(query, db, before);
  EXPECT_TRUE(via_dra.equivalent(via_oracle))
      << " dra=" << via_dra.to_string() << " oracle=" << via_oracle.to_string();
  EXPECT_EQ(stats.changed_relations, 3u);
  EXPECT_LE(stats.terms_evaluated, 7u);
}

/// SQL-parsed query end to end.
TEST(DraOracle, SqlParsedQuery) {
  common::Rng rng(77);
  cat::Database db;
  testing::make_stock_table(db, "Stocks", 200, rng);
  const qry::SpjQuery query =
      qry::parse_query("SELECT id, price FROM Stocks WHERE price > 600");

  const rel::Relation before = core::recompute(query, db);
  const common::Timestamp t0 = db.clock().now();
  testing::random_updates(db, "Stocks", 90,
                          {.modify_fraction = 0.4, .delete_fraction = 0.3}, rng);

  const DiffResult via_dra = core::dra_differential(query, db, t0);
  const DiffResult via_oracle = core::propagate(query, db, before);
  EXPECT_TRUE(via_dra.equivalent(via_oracle));
}

/// No updates => empty diff and zero terms evaluated.
TEST(DraOracle, NoUpdatesNoWork) {
  common::Rng rng(88);
  cat::Database db;
  testing::make_stock_table(db, "S", 100, rng);
  const qry::SpjQuery query = testing::random_selection_query("S", 0.5, rng);
  const common::Timestamp t0 = db.clock().now();

  DraStats stats;
  const DiffResult d = core::dra_differential(query, db, t0, nullptr, &stats);
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(stats.terms_evaluated, 0u);
  EXPECT_EQ(stats.changed_relations, 0u);
}

/// Updates that cannot affect the result are skipped entirely (Section 5.2).
TEST(DraOracle, IrrelevantUpdatesSkipped) {
  cat::Database db;
  db.create_table("S", rel::Schema::of({{"id", rel::ValueType::kInt},
                                        {"price", rel::ValueType::kInt}}));
  for (int i = 0; i < 50; ++i) {
    db.insert("S", {rel::Value(i), rel::Value(i * 10)});
  }
  const qry::SpjQuery query = qry::parse_query("SELECT * FROM S WHERE price > 10000");
  const common::Timestamp t0 = db.clock().now();
  // All inserts fall far below the predicate threshold.
  for (int i = 0; i < 20; ++i) {
    db.insert("S", {rel::Value(1000 + i), rel::Value(5)});
  }
  DraStats stats;
  const DiffResult d = core::dra_differential(query, db, t0, nullptr, &stats);
  EXPECT_TRUE(d.empty());
  EXPECT_TRUE(stats.skipped_irrelevant);
  EXPECT_EQ(stats.terms_evaluated, 0u);
}

/// The byte-script interpreter shared with fuzz/fuzz_dra_oracle.cpp, driven
/// here by Rng noise: every notification of every script must match
/// qry::evaluate over the database it was computed from.
TEST(DraOracle, ByteScriptedCqPipelinesAgree) {
  common::Rng rng(0xd5a0);
  std::size_t total_commits = 0;
  std::size_t total_executions = 0;
  for (int round = 0; round < 60; ++round) {
    std::vector<std::uint8_t> script(256 + rng.index(512));
    for (auto& b : script) b = static_cast<std::uint8_t>(rng.index(256));
    const testing::DraScriptReport report =
        testing::run_dra_oracle_script(script.data(), script.size());
    ASSERT_TRUE(report.ok) << "round " << round << ": " << report.message;
    total_commits += report.commits;
    total_executions += report.executions;
  }
  // The scripts must actually exercise the pipelines, not bail out early.
  EXPECT_GT(total_commits, 100u);
  EXPECT_GT(total_executions, 60u);
}

/// Parallel lane: the same byte scripts evaluated sequentially and with a
/// 4-lane pool must deliver byte-identical notification streams (the
/// engine's determinism contract, checked via DraScriptReport::digest).
TEST(DraOracle, ParallelEvaluationIsByteIdentical) {
  common::Rng rng(0xbeef);
  std::size_t nonempty_digests = 0;
  for (int round = 0; round < 40; ++round) {
    std::vector<std::uint8_t> script(256 + rng.index(512));
    for (auto& b : script) b = static_cast<std::uint8_t>(rng.index(256));

    const testing::DraScriptReport seq =
        testing::run_dra_oracle_script(script.data(), script.size(),
                                       {.eval_threads = 1});
    const testing::DraScriptReport par =
        testing::run_dra_oracle_script(script.data(), script.size(),
                                       {.eval_threads = 4});
    ASSERT_TRUE(seq.ok) << "round " << round << ": " << seq.message;
    ASSERT_TRUE(par.ok) << "round " << round << ": " << par.message;
    EXPECT_EQ(seq.commits, par.commits) << "round " << round;
    EXPECT_EQ(seq.executions, par.executions) << "round " << round;
    ASSERT_EQ(seq.digest, par.digest) << "round " << round;
    if (!seq.digest.empty()) ++nonempty_digests;
  }
  EXPECT_GT(nonempty_digests, 20u);  // the lane must compare real output
}

/// Replay the full checked-in dra_oracle corpus (seeds + promoted
/// crashers) in both thread modes: every historical input must keep the
/// sequential byte-stream when pooled.
TEST(DraOracle, CorpusReplayIsByteIdenticalAcrossThreadCounts) {
  namespace fs = std::filesystem;
  std::size_t replayed = 0;
  for (const char* kind : {"corpus", "regressions"}) {
    const fs::path dir = fs::path(CQ_FUZZ_DIR) / kind / "dra_oracle";
    if (!fs::is_directory(dir)) continue;
    std::vector<fs::path> files;
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (entry.is_regular_file() && entry.path().filename().string()[0] != '.') {
        files.push_back(entry.path());
      }
    }
    std::sort(files.begin(), files.end());
    for (const auto& file : files) {
      SCOPED_TRACE(file.string());
      std::ifstream in(file, std::ios::binary);
      std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
      const auto* data = reinterpret_cast<const std::uint8_t*>(bytes.data());
      const testing::DraScriptReport seq =
          testing::run_dra_oracle_script(data, bytes.size(), {.eval_threads = 1});
      const testing::DraScriptReport par =
          testing::run_dra_oracle_script(data, bytes.size(), {.eval_threads = 4});
      ASSERT_TRUE(seq.ok) << seq.message;
      ASSERT_TRUE(par.ok) << par.message;
      ASSERT_EQ(seq.digest, par.digest);
      ++replayed;
    }
  }
  EXPECT_GT(replayed, 0u);
}

/// The checked-in dra_oracle corpus and regressions, keyed by file name,
/// followed by `rounds` random scripts from `seed` (keyed "random N").
std::vector<std::pair<std::string, std::vector<std::uint8_t>>> oracle_scripts(
    std::uint64_t seed, int rounds) {
  namespace fs = std::filesystem;
  std::vector<std::pair<std::string, std::vector<std::uint8_t>>> scripts;
  for (const char* kind : {"corpus", "regressions"}) {
    const fs::path dir = fs::path(CQ_FUZZ_DIR) / kind / "dra_oracle";
    if (!fs::is_directory(dir)) continue;
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (!entry.is_regular_file() || entry.path().filename().string()[0] == '.') continue;
      std::ifstream in(entry.path(), std::ios::binary);
      scripts.emplace_back(entry.path().filename().string(),
                           std::vector<std::uint8_t>((std::istreambuf_iterator<char>(in)),
                                                     std::istreambuf_iterator<char>()));
    }
  }
  common::Rng rng(seed);
  for (int round = 0; round < rounds; ++round) {
    std::vector<std::uint8_t> script(256 + rng.index(512));
    for (auto& b : script) b = static_cast<std::uint8_t>(rng.index(256));
    scripts.emplace_back("random " + std::to_string(round), std::move(script));
  }
  return scripts;
}

/// A CQ's DRA program is compiled once, against the table sizes of its
/// install. Over the corpus and 300 random scripts, after every commit the
/// script interpreter compares that program's ΔQ with one from
/// dra_differential(query, ...), which compiles for the call: row for row,
/// tids and weights included, in the same order.
TEST(DraOracle, InstallTimeProgramMatchesPerCallCompile) {
  const auto scripts = oracle_scripts(0x9a0c, 300);
  ASSERT_GT(scripts.size(), 300u);
  std::size_t checks = 0;
  for (const auto& [name, script] : scripts) {
    const testing::DraScriptReport r =
        testing::run_dra_oracle_script(script.data(), script.size());
    ASSERT_TRUE(r.ok) << name << ": " << r.message;
    checks += r.program_checks;
  }
  EXPECT_GT(checks, 1000u);  // the comparison must cover real commits
}

/// An aggregate CQ patches its delivered payload in place from each
/// execution's aggregate-level ΔQ, and a DISTINCT CQ, maintained as a
/// grouping with no aggregates, patches its complete payload the same way.
/// Over the corpus and 300 random scripts, with lineage off and on, at
/// install and after every commit the interpreter compares an aggregate
/// payload with the CQ's accumulators rebuilt from scratch (current(),
/// HAVING applied), row for row and in group-key order, and a freshly
/// delivered DISTINCT payload with qry::evaluate (same multiset, no
/// duplicate, ascending). The corpus's agg_* cases
/// (scripts/make_agg_oracle_cases.py) make groups appear and vanish, flip
/// HAVING both ways, delete MIN/MAX extremes and run an ungrouped
/// aggregate; its distinct_* cases make values appear and vanish, move two
/// multiplicities 2 -> 0 and 0 -> 2 in one commit, and run DISTINCT over
/// S ⋈ T, all in complete mode. Each is checked at install and after every
/// commit.
TEST(DraOracle, AggregatePayloadMatchesItsAccumulators) {
  const auto scripts = oracle_scripts(0xa66a, 300);
  for (const bool lineage : {false, true}) {
    SCOPED_TRACE(lineage ? "lineage on" : "lineage off");
    std::size_t checks = 0;
    std::size_t agg_cases = 0;
    std::size_t distinct_cases = 0;
    for (const auto& [name, script] : scripts) {
      const testing::DraScriptReport r = testing::run_dra_oracle_script(
          script.data(), script.size(), {.lineage = lineage});
      ASSERT_TRUE(r.ok) << name << ": " << r.message;
      checks += r.payload_checks;
      const bool agg = name.starts_with("agg_");
      const bool distinct = name.starts_with("distinct_");
      agg_cases += agg ? 1 : 0;
      distinct_cases += distinct ? 1 : 0;
      if (agg || distinct) {
        EXPECT_GT(r.commits, 3u) << name;
        EXPECT_EQ(r.payload_checks, r.commits + 1) << name;
      }
    }
    EXPECT_EQ(agg_cases, 4u);
    EXPECT_EQ(distinct_cases, 3u);
    EXPECT_GT(checks, 500u);  // the comparison must cover real commits
  }
}

/// The oracle is an independent evaluation: over the corpus and 300 random
/// scripts, with lineage off and on, at 1 and 4 lanes, every notification
/// is checked against qry::evaluate (its delta against Diff of two
/// consecutive evaluations), one check per execution.
TEST(DraOracle, EveryNotificationMatchesEvaluate) {
  const auto scripts = oracle_scripts(0xe7a1, 300);
  for (const bool lineage : {false, true}) {
    for (const std::size_t lanes : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(std::string(lineage ? "lineage on, " : "lineage off, ") +
                   std::to_string(lanes) + " lanes");
      std::size_t checks = 0;
      std::size_t later = 0;  // checks of a notification after the initial one
      for (const auto& [name, script] : scripts) {
        const testing::DraScriptReport r = testing::run_dra_oracle_script(
            script.data(), script.size(), {.eval_threads = lanes, .lineage = lineage});
        ASSERT_TRUE(r.ok) << name << ": " << r.message;
        EXPECT_EQ(r.evaluate_checks, r.executions) << name;
        checks += r.evaluate_checks;
        later += r.evaluate_checks > 0 ? r.evaluate_checks - 1 : 0;
      }
      EXPECT_GT(checks, 2000u);  // the comparison must cover real executions
      EXPECT_GT(later, 1800u);
    }
  }
}

/// Lineage lane: with provenance collection on, sequential and 4-lane runs
/// must agree on every delivered row's provenance set, bit for bit — the
/// digest appends each row's sorted (relation, txn, seq) citations. The
/// interpreter additionally cross-checks every citation against the DRA
/// database's delta log (a dangling citation flips report.ok).
TEST(DraOracle, LineageIsByteIdenticalAcrossThreadCounts) {
  common::Rng rng(0x11ea);
  std::size_t cited = 0;
  for (int round = 0; round < 30; ++round) {
    std::vector<std::uint8_t> script(256 + rng.index(512));
    for (auto& b : script) b = static_cast<std::uint8_t>(rng.index(256));

    const testing::DraScriptReport seq = testing::run_dra_oracle_script(
        script.data(), script.size(), {.eval_threads = 1, .lineage = true});
    const testing::DraScriptReport par = testing::run_dra_oracle_script(
        script.data(), script.size(), {.eval_threads = 4, .lineage = true});
    ASSERT_TRUE(seq.ok) << "round " << round << ": " << seq.message;
    ASSERT_TRUE(par.ok) << "round " << round << ": " << par.message;
    ASSERT_EQ(seq.digest, par.digest) << "round " << round;
    for (std::size_t p = seq.digest.find("prov{"); p != std::string::npos;
         p = seq.digest.find("prov{", p + 1)) {
      if (p + 5 < seq.digest.size() && seq.digest[p + 5] != '}') {
        ++cited;
        break;
      }
    }
  }
  EXPECT_GT(cited, 10u);  // the lane must compare real, non-empty citations
}

/// The default-config overload is the --threads 1 byte-stream: the digest
/// of a sequential run through the config'd entry point must match it.
TEST(DraOracle, ConfigDefaultMatchesLegacyEntryPoint) {
  common::Rng rng(0x5151);
  std::vector<std::uint8_t> script(640);
  for (auto& b : script) b = static_cast<std::uint8_t>(rng.index(256));
  const testing::DraScriptReport a =
      testing::run_dra_oracle_script(script.data(), script.size());
  const testing::DraScriptReport b =
      testing::run_dra_oracle_script(script.data(), script.size(), {});
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.commits, b.commits);
}

}  // namespace
}  // namespace cq
