#include "query/evaluate.hpp"

#include "algebra/ops.hpp"
#include "algebra/predicate.hpp"
#include "common/error.hpp"

namespace cq::qry {

using alg::ExprPtr;
using common::Metrics;
using rel::Relation;

Relation qualified_copy(const Relation& input, const TableRef& ref) {
  Relation out = input;
  out.set_schema(qualify(input.schema(), ref));
  return out;
}

Relation evaluate_spj_over(const SpjQuery& query,
                           const std::vector<const Relation*>& inputs,
                           Metrics* metrics, SpjExecTrace* trace) {
  query.validate();
  if (inputs.size() != query.from.size()) {
    throw common::InvalidArgument("evaluate_spj_over: expected " +
                                  std::to_string(query.from.size()) + " inputs, got " +
                                  std::to_string(inputs.size()));
  }
  const std::size_t n = inputs.size();

  std::vector<rel::Schema> schemas;
  std::vector<std::size_t> cards;
  schemas.reserve(n);
  cards.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    schemas.push_back(inputs[i]->schema());
    cards.push_back(inputs[i]->size());
  }
  const PlannedQuery planned = plan(query, schemas, cards, &inputs);
  if (trace != nullptr) {
    *trace = SpjExecTrace{};
    trace->plan = planned;
    trace->input_rows = cards;
    trace->scan_rows.resize(n);
  }

  // Select before join (Section 5.2): filter each input first.
  std::vector<Relation> filtered(n);
  std::vector<const Relation*> bound(n);
  for (std::size_t i = 0; i < n; ++i) {
    const ExprPtr f = planned.filter(i);
    if (alg::is_always_true(f)) {
      bound[i] = inputs[i];
    } else {
      filtered[i] = alg::select(*inputs[i], *f, metrics);
      bound[i] = &filtered[i];
    }
    if (trace != nullptr) trace->scan_rows[i] = bound[i]->size();
  }

  // Join in planner order, applying join conjuncts as soon as they resolve.
  std::vector<ExprPtr> pending = planned.join_conjuncts;
  Relation acc = *bound[planned.join_order[0]];
  for (std::size_t step = 1; step < n; ++step) {
    const Relation& next = *bound[planned.join_order[step]];
    const rel::Schema combined = acc.schema().concat(next.schema());
    std::vector<ExprPtr> applicable;
    std::vector<ExprPtr> still_pending;
    for (const auto& c : pending) {
      if (c->resolves_in(combined)) {
        applicable.push_back(c);
      } else {
        still_pending.push_back(c);
      }
    }
    pending = std::move(still_pending);
    acc = alg::join(acc, next, alg::conjoin(applicable), metrics);
    if (trace != nullptr) trace->join_rows.push_back(acc.size());
  }
  if (!pending.empty()) {
    // Conjuncts that never resolved (e.g. reference unknown columns) —
    // surface the error through expression evaluation.
    acc = alg::select(acc, *alg::conjoin(pending), metrics);
    if (trace != nullptr) {
      trace->has_residual = true;
      trace->residual_rows = acc.size();
    }
  }

  // Projection.
  if (!query.projection.empty()) {
    acc = alg::project(acc, query.projection, query.distinct, metrics);
  } else {
    if (n > 1) {
      // SELECT * over a join: the planner may have joined in any order, so
      // restore the canonical FROM-order column layout (the DRA and the
      // Propagate oracle rely on both producing the same schema).
      std::vector<std::string> canonical;
      for (const auto& s : schemas) {
        for (const auto& a : s.attributes()) canonical.push_back(a.name);
      }
      acc = alg::project(acc, canonical, false, metrics);
    }
    if (query.distinct) acc = alg::distinct(acc);
  }
  if (trace != nullptr) trace->output_rows = acc.size();
  return acc;
}

Relation evaluate_spj(const SpjQuery& query, const cat::Database& db, Metrics* metrics,
                      SpjExecTrace* trace) {
  query.validate();
  std::vector<Relation> qualified;
  qualified.reserve(query.from.size());
  for (const auto& ref : query.from) {
    qualified.push_back(qualified_copy(db.table(ref.table), ref));
  }
  std::vector<const Relation*> inputs;
  inputs.reserve(qualified.size());
  for (const auto& r : qualified) inputs.push_back(&r);
  return evaluate_spj_over(query, inputs, metrics, trace);
}

Relation apply_aggregates(const SpjQuery& query, const Relation& spj_result,
                          Metrics* metrics) {
  if (!query.is_aggregate()) return spj_result;
  Relation out =
      alg::group_aggregate(spj_result, query.group_by, query.aggregates, metrics);
  if (query.having) out = alg::select(out, *query.having, metrics);
  return out;
}

Relation apply_order_by(const SpjQuery& query, Relation input) {
  if (query.order_by.empty()) return input;
  std::vector<std::size_t> keys;
  keys.reserve(query.order_by.size());
  for (const auto& k : query.order_by) keys.push_back(input.schema().index_of(k.column));

  std::vector<rel::Tuple> rows = input.rows();
  std::stable_sort(rows.begin(), rows.end(), [&](const rel::Tuple& a, const rel::Tuple& b) {
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const auto c = a.at(keys[i]).compare(b.at(keys[i]));
      if (c == std::strong_ordering::equal) continue;
      const bool less = c == std::strong_ordering::less;
      return query.order_by[i].descending ? !less : less;
    }
    return false;
  });
  Relation out(input.schema());
  for (auto& row : rows) out.append(std::move(row));
  return out;
}

namespace {
/// The SPJ core evaluate() runs for an aggregate query: all columns kept
/// (the aggregates and group keys may reference any), aggregation stripped.
SpjQuery spj_core_of(const SpjQuery& query) {
  SpjQuery core = query;
  core.projection.clear();
  core.distinct = false;
  core.aggregates.clear();
  core.group_by.clear();
  core.having = nullptr;
  core.order_by.clear();
  return core;
}
}  // namespace

Relation evaluate(const SpjQuery& query, const cat::Database& db, Metrics* metrics) {
  if (query.is_aggregate()) {
    Relation spj = evaluate_spj(spj_core_of(query), db, metrics);
    return apply_order_by(query, apply_aggregates(query, spj, metrics));
  }
  return apply_order_by(query, evaluate_spj(query, db, metrics));
}

namespace {
std::string aggregate_label(const SpjQuery& query) {
  std::string label = "Aggregate [";
  for (std::size_t i = 0; i < query.aggregates.size(); ++i) {
    const alg::AggSpec& a = query.aggregates[i];
    if (i > 0) label += ", ";
    label += std::string(alg::to_string(a.kind)) + "(" +
             (a.column.empty() ? "*" : a.column) + ")";
  }
  label += "]";
  if (!query.group_by.empty()) {
    label += " GROUP BY [";
    for (std::size_t i = 0; i < query.group_by.size(); ++i) {
      if (i > 0) label += ", ";
      label += query.group_by[i];
    }
    label += "]";
  }
  if (query.having) label += " HAVING [" + query.having->to_string() + "]";
  return label;
}

std::string sort_label(const SpjQuery& query) {
  std::string label = "Sort [";
  for (std::size_t i = 0; i < query.order_by.size(); ++i) {
    if (i > 0) label += ", ";
    label += query.order_by[i].column;
    if (query.order_by[i].descending) label += " DESC";
  }
  return label + "]";
}
}  // namespace

QueryExplain explain_query(const SpjQuery& query, const cat::Database& db,
                           bool execute) {
  query.validate();
  const bool aggregate = query.is_aggregate();
  const SpjQuery core = aggregate ? spj_core_of(query) : query;

  std::vector<Relation> qualified;
  qualified.reserve(core.from.size());
  for (const auto& ref : core.from) {
    qualified.push_back(qualified_copy(db.table(ref.table), ref));
  }
  std::vector<const Relation*> inputs;
  std::vector<rel::Schema> schemas;
  std::vector<std::size_t> cards;
  inputs.reserve(qualified.size());
  schemas.reserve(qualified.size());
  cards.reserve(qualified.size());
  for (const auto& r : qualified) {
    inputs.push_back(&r);
    schemas.push_back(r.schema());
    cards.push_back(r.size());
  }

  QueryExplain out;
  if (execute) {
    SpjExecTrace trace;
    Relation spj = evaluate_spj_over(core, inputs, nullptr, &trace);
    out.plan = trace.plan;
    out.root = build_plan_tree(core, out.plan, schemas, &trace);
    out.result = aggregate ? apply_order_by(query, apply_aggregates(query, spj))
                           : apply_order_by(query, std::move(spj));
    out.executed = true;
  } else {
    out.plan = plan(core, schemas, cards, &inputs);
    out.root = build_plan_tree(core, out.plan, schemas);
  }

  if (aggregate) {
    ExplainNode agg;
    agg.label = aggregate_label(query);
    if (out.executed) agg.actual_rows = static_cast<std::int64_t>(out.result.size());
    agg.children.push_back(std::move(out.root));
    out.root = std::move(agg);
  }
  if (!query.order_by.empty()) {
    ExplainNode sort;
    sort.label = sort_label(query);
    sort.estimated_rows = out.root.estimated_rows;
    if (out.executed) sort.actual_rows = static_cast<std::int64_t>(out.result.size());
    sort.children.push_back(std::move(out.root));
    out.root = std::move(sort);
  }
  return out;
}

}  // namespace cq::qry
