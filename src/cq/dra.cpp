#include "cq/dra.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "algebra/ops.hpp"
#include "algebra/predicate.hpp"
#include "common/error.hpp"
#include "common/observability.hpp"
#include "cq/trigger.hpp"
#include "query/evaluate.hpp"
#include "query/planner.hpp"

namespace obs = cq::common::obs;

namespace cq::core {

using alg::ExprPtr;
using common::Metrics;
using common::Timestamp;
using rel::Relation;

namespace {

/// ΔR as one weighted relation under `schema`: the insertions at +1
/// followed by the deletions at −1, each kept only where `filter` holds.
Relation bind_delta(const Relation& ins, const Relation& del, const rel::Schema& schema,
                    const ExprPtr& filter, Metrics* metrics) {
  Relation out(schema);
  out.mutable_rows().reserve(ins.size() + del.size());
  std::optional<alg::BoundExpr> keep;
  if (!alg::is_always_true(filter)) keep.emplace(*filter, schema);
  for (const auto& [side, weight] : {std::pair{&ins, 1}, std::pair{&del, -1}}) {
    for (const auto& row : side->rows()) {
      if (keep && !keep->eval_bool(row)) continue;
      out.append(row);
      out.mutable_rows().back().set_weight(weight);
    }
  }
  if (keep && metrics != nullptr) {
    metrics->add(common::metric::kRowsScanned,
                 static_cast<std::int64_t>(ins.size() + del.size()));
    metrics->add(common::metric::kRowsOutput, static_cast<std::int64_t>(out.size()));
  }
  return out;
}

}  // namespace

DiffResult dra_differential(const qry::SpjQuery& query, const cat::Database& db,
                            Timestamp since, Metrics* metrics, DraStats* stats) {
  const qry::SpjProgram program = qry::compile(query, db);
  std::vector<std::string> tables;
  tables.reserve(query.from.size());
  for (const auto& ref : query.from) tables.push_back(ref.table);
  return dra_differential(program, db, since, metrics, stats, snapshot_deltas(db, tables));
}

DiffResult dra_differential(const qry::SpjProgram& program, const cat::Database& db,
                            Timestamp since, Metrics* metrics, DraStats* stats,
                            const delta::SnapshotMap& snapshots) {
  const qry::SpjQuery& query = program.query;
  if (query.is_aggregate() || query.distinct) {
    throw common::InvalidArgument(
        "dra_differential handles the SPJ core only; strip aggregates/DISTINCT "
        "(ContinualQuery maintains those on top of ΔQ)");
  }
  const std::size_t n = query.from.size();
  DraStats local_stats;
  DraStats& st = stats != nullptr ? *stats : local_stats;
  st = DraStats{};

  // One branch when tracing is off; with it on, the whole invocation is a
  // span and its latency feeds the dra_exec_us histogram.
  static obs::Histogram* const dra_hist =
      &obs::global().histogram(obs::hist::kDraExecUs);
  obs::Span span("dra.differential", dra_hist);
  if (metrics != nullptr) metrics->add(common::metric::kDraInvocations, 1);

  DiffResult result;
  result.inserted = Relation(program.output_schema);
  result.deleted = Relation(program.output_schema);

  std::vector<Relation> delta(n);     // filtered, qualified, weighted ΔRi
  std::vector<std::size_t> changed;   // indexes of changed FROM entries
  // insertions/deletions(ΔRi): snapshot views shared by the whole dispatch,
  // read in place and copied only as far as the filter below keeps them.
  std::vector<std::pair<const Relation*, const Relation*>> views(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& snap = cq::delta::snapshot_of(snapshots, query.from[i].table);
    if (!snap.changed_since(since)) continue;
    const Relation& ins = snap.insertions(since);
    const Relation& del = snap.deletions(since);
    st.delta_rows_read += ins.size() + del.size();
    if (metrics != nullptr) {
      metrics->add(common::metric::kDeltaRowsScanned,
                   static_cast<std::int64_t>(ins.size() + del.size()));
    }
    if (ins.empty() && del.empty()) continue;  // e.g. insert+delete collapsed
    views[i] = {&ins, &del};
    changed.push_back(i);
  }
  st.changed_relations = changed.size();
  if (changed.empty()) return result;

  // Filter the deltas by their table's pushed-down selection. Selection
  // commutes with the substitution, so this both shrinks every term and
  // implements the Section 5.2 irrelevance check: an update whose filtered
  // delta is empty cannot affect the result, so its relation leaves the
  // truth table, and when none remains the re-evaluation is skipped.
  for (auto i : changed) {
    const auto& [ins, del] = views[i];
    delta[i] = bind_delta(*ins, *del, program.schemas[i], program.filters[i], metrics);
  }
  changed.erase(std::remove_if(changed.begin(), changed.end(),
                               [&](std::size_t i) { return delta[i].empty(); }),
                changed.end());
  if (changed.empty()) {
    st.skipped_irrelevant = true;
    if (metrics != nullptr) metrics->add(common::metric::kDraSkippedIrrelevant, 1);
    return result;
  }
  st.changed_relations = changed.size();

  // Every term joins through one executor, whose filtered, qualified base
  // states (all weight +1) are built lazily and shared by all terms.
  // Position i is ever bound to its base only when it is unchanged (then
  // every term binds it) or when k >= 2 (terms substituting a *different*
  // relation's delta bind i's base), and a term that probes i's persistent
  // index does not build it. In particular the common single-relation CQ
  // never touches the base at all — the heart of the paper's efficiency
  // claim.
  const std::size_t k = changed.size();
  qry::SpjExecutor exec(program, db, metrics);
  // Each table's estimated post-filter size at its current cardinality; a
  // term replaces a bound position's with its delta's exact size.
  const std::vector<double> scan_estimates = program.scan_estimates(db);
  std::vector<bool> base_empty(n);
  for (std::size_t i = 0; i < n; ++i) {
    base_empty[i] = db.table(query.from[i].table).empty();
  }

  // ---- truth table: one weighted SPJ term per non-zero row (step 2) ----
  if (k > 20) throw common::InvalidArgument("dra: too many changed relations");
  Relation sum(program.joined);  // every term's rows, term sign multiplied in
  std::vector<Relation*> bound(n);
  for (std::size_t bits = 1; bits < (static_cast<std::size_t>(1) << k); ++bits) {
    // Bind each FROM position for this term: a changed position in b gets
    // its (weighted, filtered) delta; the rest bind the current base state.
    std::fill(bound.begin(), bound.end(), nullptr);
    std::size_t popcount = 0;
    for (std::size_t c = 0; c < k; ++c) {
      if ((bits >> c) & 1U) {
        bound[changed[c]] = &delta[changed[c]];
        ++popcount;
      }
    }
    // Every bound delta is non-empty (the irrelevance check dropped the
    // rest), so a term is zero exactly when a base it binds is empty.
    bool term_zero = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (bound[i] == nullptr && base_empty[i]) term_zero = true;
    }
    if (term_zero) continue;
    ++st.terms_evaluated;
    obs::Span term_span("dra.term");

    // Join order for this term: the scan estimates with each bound delta at
    // its exact size, so the (tiny) delta sides are joined first.
    std::vector<double> estimates = scan_estimates;
    for (std::size_t i = 0; i < n; ++i) {
      if (bound[i] != nullptr) estimates[i] = static_cast<double>(bound[i]->size());
    }
    const std::vector<std::size_t> order =
        qry::order_joins(program.plan.join_conjuncts, program.schemas, estimates);

    // Canonical column order so all terms line up. A single-relation CQ's
    // one term hands over its delta, which no other term reads.
    std::optional<Relation> rows = exec.run(bound, order, program.from_columns);
    if (!rows) continue;

    // Term sign: unchanged positions bind the *current* state, so the term
    // carries (−1)^(|b|+1).
    const std::int64_t sign = popcount % 2 == 1 ? 1 : -1;
    for (auto& row : rows->mutable_rows()) {
      row.set_weight(row.weight() * sign);
      sum.append(std::move(row));
    }
  }
  st.index_probes = exec.index_probes();

  // ---- projection (DiffProj: linear, keeps weights), then consolidation ----
  if (!query.projection.empty()) sum = alg::project(sum, query.projection, false, metrics);
  if (metrics != nullptr) {
    metrics->add(common::metric::kDraTermsEvaluated,
                 static_cast<std::int64_t>(st.terms_evaluated));
    metrics->add(common::metric::kIndexProbes,
                 static_cast<std::int64_t>(st.index_probes));
  }
  return consolidate(std::move(sum));
}

}  // namespace cq::core
