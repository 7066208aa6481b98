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

/// True when `schema`'s attributes are named `names`, in that order.
bool named_in_order(const rel::Schema& schema, const std::vector<std::string>& names) {
  if (schema.size() != names.size()) return false;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (schema.at(i).name != names[i]) return false;
  }
  return true;
}

std::vector<std::string> canonical_names(const std::vector<rel::Schema>& schemas) {
  std::vector<std::string> names;
  for (const auto& s : schemas) {
    for (const auto& a : s.attributes()) names.push_back(a.name);
  }
  return names;
}

}  // namespace

DiffResult dra_differential(const qry::SpjQuery& query, const cat::Database& db,
                            Timestamp since, Metrics* metrics, DraStats* stats) {
  std::vector<std::string> tables;
  tables.reserve(query.from.size());
  for (const auto& ref : query.from) tables.push_back(ref.table);
  return dra_differential(query, db, since, metrics, stats, snapshot_deltas(db, tables));
}

DiffResult dra_differential(const qry::SpjQuery& query, const cat::Database& db,
                            Timestamp since, Metrics* metrics, DraStats* stats,
                            const delta::SnapshotMap& snapshots) {
  query.validate();
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

  // ---- bind inputs: current base + signed delta per FROM entry ----
  std::vector<rel::Schema> schemas;
  schemas.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    schemas.push_back(qry::qualify(db.table(query.from[i].table).schema(), query.from[i]));
  }

  // Output schema for (possibly empty) results.
  const std::vector<std::string> canon = canonical_names(schemas);
  rel::Schema joined_schema;
  for (const auto& s : schemas) joined_schema = joined_schema.concat(s);
  const rel::Schema out_schema =
      query.projection.empty() ? joined_schema : joined_schema.project(query.projection);

  DiffResult result;
  result.inserted = Relation(out_schema);
  result.deleted = Relation(out_schema);

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

  // ---- plan once: per-table filters + join conjuncts (Section 5.2) ----
  std::vector<std::size_t> cards;
  cards.reserve(n);
  for (std::size_t i = 0; i < n; ++i) cards.push_back(db.table(query.from[i].table).size());
  const qry::PlannedQuery planned = qry::plan(query, schemas, cards);

  // Filter the deltas by their table's pushed-down selection. Selection
  // commutes with the substitution, so this both shrinks every term and
  // implements the Section 5.2 irrelevance check: an update whose filtered
  // delta is empty cannot affect the result, so its relation leaves the
  // truth table, and when none remains the re-evaluation is skipped.
  for (auto i : changed) {
    const auto& [ins, del] = views[i];
    delta[i] = bind_delta(*ins, *del, schemas[i], planned.filter(i), metrics);
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

  // Filtered, qualified current base state (all weight +1), built lazily
  // and shared by all terms. Position i is ever bound to its base only when
  // it is unchanged (then every term binds it) or when k >= 2 (terms
  // substituting a *different* relation's delta bind i's base). In
  // particular the common single-relation CQ never touches the base at
  // all — the heart of the paper's efficiency claim.
  const std::size_t k = changed.size();
  std::vector<Relation> base(n);
  std::vector<bool> base_built(n, false);
  auto base_of = [&](std::size_t i) -> const Relation& {
    if (!base_built[i]) {
      const Relation& table = db.table(query.from[i].table);
      const ExprPtr f = planned.filter(i);
      base[i] = alg::is_always_true(f) ? qry::qualified_copy(table, query.from[i])
                                       : alg::select(table, schemas[i], *f, metrics);
      if (metrics != nullptr) {
        metrics->add(common::metric::kBaseRowsScanned,
                     static_cast<std::int64_t>(table.size()));
      }
      base_built[i] = true;
    }
    return base[i];
  };

  // ---- truth table: one weighted SPJ term per non-zero row (step 2) ----
  if (k > 20) throw common::InvalidArgument("dra: too many changed relations");
  Relation sum(joined_schema);  // every term's rows, term sign multiplied in

  // Probe an unchanged position's *persistent index* (when one covers an
  // equi conjunct against the already-joined accumulator) instead of
  // materializing and hashing its filtered base: O(|acc| · fanout) per term
  // rather than O(|base|). Returns false when no usable index exists.
  auto try_index_join = [&](const Relation& acc, std::size_t p,
                            const std::vector<ExprPtr>& applicable,
                            Relation& out) -> bool {
    const rel::Relation& base_table = db.table(query.from[p].table);
    // Collect equi pairs (acc column, base column) from the applicable
    // conjuncts; positions in schemas[p] equal positions in the base schema.
    std::vector<std::pair<std::size_t, std::size_t>> pairs;
    for (const auto& conjunct : applicable) {
      if (conjunct->kind() != alg::Expr::Kind::kCompare ||
          conjunct->cmp_op() != alg::CmpOp::kEq) {
        continue;
      }
      const auto& a = conjunct->children()[0];
      const auto& b = conjunct->children()[1];
      if (a->kind() != alg::Expr::Kind::kColumn ||
          b->kind() != alg::Expr::Kind::kColumn) {
        continue;
      }
      const auto a_acc = acc.schema().find(a->column());
      const auto a_base = schemas[p].find(a->column());
      const auto b_acc = acc.schema().find(b->column());
      const auto b_base = schemas[p].find(b->column());
      if (a_acc && b_base && !a_base && !b_acc) {
        pairs.emplace_back(*a_acc, *b_base);
      } else if (b_acc && a_base && !b_base && !a_acc) {
        pairs.emplace_back(*b_acc, *a_base);
      }
    }
    if (pairs.empty()) return false;

    // Prefer an index covering all equi columns, else any single one.
    const rel::MaintainedIndex* index = nullptr;
    {
      std::vector<std::size_t> base_cols;
      for (const auto& [ac, bc] : pairs) base_cols.push_back(bc);
      index = db.index_on(query.from[p].table, base_cols);
      if (index == nullptr) {
        for (const auto& [ac, bc] : pairs) {
          index = db.index_on(query.from[p].table, {bc});
          if (index != nullptr) break;
        }
      }
    }
    if (index == nullptr) return false;

    // Map each index key column to the accumulator column feeding it.
    std::vector<std::size_t> acc_cols;
    for (auto index_col : index->columns()) {
      bool found = false;
      for (const auto& [ac, bc] : pairs) {
        if (bc == index_col) {
          acc_cols.push_back(ac);
          found = true;
          break;
        }
      }
      if (!found) return false;
    }

    const rel::Schema combined = acc.schema().concat(schemas[p]);
    // The probed table's own pushed-down filter reads only the matched base
    // row, so it runs first: a match it rejects never becomes a joined row.
    // The cross-side conjuncts run on the joined row, including the equi
    // pairs the index matched (index keys equate NULLs; `=` never does).
    const ExprPtr base_filter = planned.filter(p);
    std::optional<alg::BoundExpr> keep_match;
    if (!alg::is_always_true(base_filter)) keep_match.emplace(*base_filter, schemas[p]);
    const ExprPtr cross = alg::conjoin(applicable);
    std::optional<alg::BoundExpr> keep_joined;
    if (!alg::is_always_true(cross)) keep_joined.emplace(*cross, combined);

    std::vector<rel::Value> key(acc_cols.size());
    std::int64_t matches = 0;
    out = Relation(combined);
    for (const auto& row : acc.rows()) {
      for (std::size_t c = 0; c < acc_cols.size(); ++c) key[c] = row.at(acc_cols[c]);
      for (const rel::TupleId tid : index->probe(key)) {
        const rel::Tuple* match = base_table.find(tid);
        CQ_ASSERT(match != nullptr);
        ++matches;
        if (keep_match && !keep_match->eval_bool(*match)) continue;
        rel::Tuple joined = row.concat(*match);
        if (!keep_joined || keep_joined->eval_bool(joined)) out.append(std::move(joined));
      }
    }
    // Every index match counts as a comparison, kept or not.
    if (metrics != nullptr) metrics->add(common::metric::kTuplesCompared, matches);
    st.index_probes += acc.size();
    return true;
  };

  for (std::size_t bits = 1; bits < (static_cast<std::size_t>(1) << k); ++bits) {
    // Bind each FROM position for this term: a changed position in b gets
    // its (weighted, filtered) delta; the rest bind the current base state,
    // materialized lazily only if a join step actually needs it.
    std::vector<const Relation*> bound(n, nullptr);
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
      if (bound[i] == nullptr && db.table(query.from[i].table).empty()) term_zero = true;
    }
    if (term_zero) continue;
    ++st.terms_evaluated;
    obs::Span term_span("dra.term");

    // Join order for this term: the execution's plan reordered with each
    // bound delta's exact size, so the (tiny) delta sides are joined first.
    std::vector<double> estimates = planned.scan_estimates;
    for (std::size_t i = 0; i < n; ++i) {
      if (bound[i] != nullptr) estimates[i] = static_cast<double>(bound[i]->size());
    }
    const std::vector<std::size_t> order =
        qry::order_joins(planned.join_conjuncts, schemas, estimates);

    std::vector<ExprPtr> pending = planned.join_conjuncts;

    // The accumulator borrows its first input (a bound delta or the shared
    // base) and points at `owned` once a step has produced new rows.
    const std::size_t first = order[0];
    const Relation* acc = bound[first] != nullptr ? bound[first] : &base_of(first);
    Relation owned;
    for (std::size_t step = 1; step < n && !acc->empty(); ++step) {
      const std::size_t p = order[step];
      const rel::Schema combined = acc->schema().concat(schemas[p]);
      std::vector<ExprPtr> applicable;
      std::vector<ExprPtr> still_pending;
      for (const auto& conjunct : pending) {
        if (conjunct->resolves_in(combined)) {
          applicable.push_back(conjunct);
        } else {
          still_pending.push_back(conjunct);
        }
      }
      pending = std::move(still_pending);

      Relation via_index;
      if (bound[p] == nullptr && try_index_join(*acc, p, applicable, via_index)) {
        owned = std::move(via_index);
      } else {
        const Relation& next = bound[p] != nullptr ? *bound[p] : base_of(p);
        owned = next.empty() ? Relation(combined)
                             : alg::join(*acc, next, alg::conjoin(applicable), metrics);
      }
      acc = &owned;
    }
    if (acc->empty()) continue;
    if (!pending.empty()) {
      owned = alg::select(*acc, *alg::conjoin(pending), metrics);
      acc = &owned;
    }

    // Canonical column order so all terms line up (already so when the
    // join order matched FROM order).
    if (!named_in_order(acc->schema(), canon)) {
      owned = alg::project(*acc, canon, false, metrics);
      acc = &owned;
    }
    // Only a single-relation CQ's one term still borrows here, and what it
    // borrows is its delta, which no other term reads: take it.
    if (acc != &owned) {
      CQ_ASSERT(acc == &delta[first]);
      owned = std::move(delta[first]);
    }

    // Term sign: unchanged positions bind the *current* state, so the term
    // carries (−1)^(|b|+1).
    const std::int64_t sign = popcount % 2 == 1 ? 1 : -1;
    for (auto& row : owned.mutable_rows()) {
      row.set_weight(row.weight() * sign);
      sum.append(std::move(row));
    }
  }

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
