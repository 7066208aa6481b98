#include "query/evaluate.hpp"

#include <algorithm>

#include "algebra/ops.hpp"
#include "algebra/predicate.hpp"
#include "common/error.hpp"

namespace cq::qry {

using alg::ExprPtr;
using common::Metrics;
using rel::Relation;

namespace {
/// True when `schema`'s attributes are named `names`, in that order.
bool named_in_order(const rel::Schema& schema, const std::vector<std::string>& names) {
  if (schema.size() != names.size()) return false;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (schema.at(i).name != names[i]) return false;
  }
  return true;
}
}  // namespace

std::vector<rel::Schema> from_schemas(const SpjQuery& query, const cat::Database& db) {
  std::vector<rel::Schema> schemas;
  schemas.reserve(query.from.size());
  for (const auto& ref : query.from) schemas.push_back(qualify(db.table(ref.table).schema(), ref));
  return schemas;
}

SpjProgram compile(const SpjQuery& query, const cat::Database& db, bool sample,
                   Metrics* metrics) {
  query.validate();
  SpjProgram p;
  p.query = query;
  p.schemas = from_schemas(query, db);
  for (const auto& s : p.schemas) p.joined = p.joined.concat(s);
  p.output_schema = query.projection.empty() ? p.joined
                                             : p.joined.project(query.projection);
  for (const auto& a : p.joined.attributes()) p.from_columns.push_back(a.name);

  std::vector<std::size_t> cards;
  std::vector<const Relation*> tables;
  for (const auto& ref : query.from) {
    tables.push_back(&db.table(ref.table));
    cards.push_back(tables.back()->size());
  }
  p.plan = plan(query, p.schemas, cards, sample ? &tables : nullptr, metrics);
  for (std::size_t i = 0; i < query.from.size(); ++i) p.filters.push_back(p.plan.filter(i));
  return p;
}

std::vector<double> SpjProgram::scan_estimates(const cat::Database& db) const {
  std::vector<std::size_t> cards;
  cards.reserve(query.from.size());
  for (const auto& ref : query.from) cards.push_back(db.table(ref.table).size());
  return plan.estimates(cards);
}

PlannedQuery SpjProgram::plan_at(const cat::Database& db) const {
  PlannedQuery out = plan;
  out.scan_estimates = scan_estimates(db);
  out.join_order = order_joins(out.join_conjuncts, schemas, out.scan_estimates);
  return out;
}

SpjExecutor::SpjExecutor(const SpjProgram& program, const cat::Database& db, Metrics* metrics)
    : program_(program), db_(db), metrics_(metrics), base_(program.query.from.size()) {}

const Relation& SpjExecutor::base(std::size_t i) {
  if (!base_[i]) {
    const Relation& table = db_.table(program_.query.from[i].table);
    const ExprPtr& f = program_.filters[i];
    if (alg::is_always_true(f)) {
      // The qualified copy: only the schema is relabelled, and the copy is
      // a derived relation, without the table's tid slots.
      base_[i] = Relation(program_.schemas[i], table.rows());
    } else {
      base_[i] = alg::select(table, program_.schemas[i], *f, metrics_);
    }
    if (metrics_ != nullptr) {
      metrics_->add(common::metric::kBaseRowsScanned, static_cast<std::int64_t>(table.size()));
    }
  }
  return *base_[i];
}

// Probe position p's *persistent index* (when one covers an equi conjunct
// against the accumulator) instead of materializing and hashing its
// filtered base: O(|acc| · fanout) rather than O(|base|). Returns false
// when no usable index exists.
bool SpjExecutor::probe_index(const Relation& acc, std::size_t p,
                              const std::vector<ExprPtr>& conjuncts, Relation& out) {
  const ExprPtr on = alg::conjoin(conjuncts);
  // (accumulator column, base column) pairs; positions in schemas[p] equal
  // positions in the base schema.
  const rel::Schema& schema = program_.schemas[p];
  const auto pairs = alg::analyze_join(on, acc.schema(), schema).equi_pairs;
  if (pairs.empty()) return false;

  // Prefer an index covering all equi columns, else any single one.
  const std::string& table_name = program_.query.from[p].table;
  std::vector<std::size_t> base_cols;
  for (const auto& [ac, bc] : pairs) base_cols.push_back(bc);
  const rel::MaintainedIndex* index = db_.index_on(table_name, base_cols);
  for (std::size_t c = 0; index == nullptr && c < base_cols.size(); ++c) {
    index = db_.index_on(table_name, {base_cols[c]});
  }
  if (index == nullptr) return false;

  // Map each index key column to the accumulator column feeding it.
  std::vector<std::size_t> acc_cols;
  for (auto index_col : index->columns()) {
    const auto pair = std::find_if(pairs.begin(), pairs.end(),
                                   [&](const auto& ab) { return ab.second == index_col; });
    if (pair == pairs.end()) return false;
    acc_cols.push_back(pair->first);
  }

  const Relation& table = db_.table(table_name);
  const rel::Schema combined = acc.schema().concat(schema);
  // The probed table's own pushed-down filter reads only the matched base
  // row, so it runs first: a match it rejects never becomes a joined row.
  // The join conjuncts run on the joined row, including the equi pairs the
  // index matched, which keeps this path exactly `alg::join`'s semantics.
  const ExprPtr& base_filter = program_.filters[p];
  std::optional<alg::BoundExpr> keep_match;
  if (!alg::is_always_true(base_filter)) keep_match.emplace(*base_filter, schema);
  std::optional<alg::BoundExpr> keep_joined;
  if (!alg::is_always_true(on)) keep_joined.emplace(*on, combined);

  std::vector<rel::Value> key(acc_cols.size());
  std::int64_t matches = 0;
  out = Relation(combined);
  for (const auto& row : acc.rows()) {
    for (std::size_t c = 0; c < acc_cols.size(); ++c) key[c] = row.at(acc_cols[c]);
    for (const rel::TupleId tid : index->probe(key)) {
      const rel::Tuple* match = table.find(tid);
      CQ_ASSERT(match != nullptr);
      ++matches;
      if (keep_match && !keep_match->eval_bool(*match)) continue;
      rel::Tuple joined = row.concat(*match);
      if (!keep_joined || keep_joined->eval_bool(joined)) out.append(std::move(joined));
    }
  }
  // Every index match counts as a comparison, kept or not.
  if (metrics_ != nullptr) metrics_->add(common::metric::kTuplesCompared, matches);
  index_probes_ += acc.size();
  return true;
}

std::optional<Relation> SpjExecutor::run(const std::vector<Relation*>& deltas,
                          const std::vector<std::size_t>& order,
                          const std::vector<std::string>& columns, bool dedup,
                          SpjExecTrace* trace) {
  const std::size_t n = program_.query.from.size();
  CQ_ASSERT(deltas.size() == n && order.size() == n);
  if (trace != nullptr) {
    *trace = SpjExecTrace{};
    for (const auto& ref : program_.query.from) {
      trace->input_rows.push_back(db_.table(ref.table).size());
    }
    trace->scan_rows.assign(n, -1);
  }
  const bool binds_delta =
      std::any_of(deltas.begin(), deltas.end(), [](const Relation* d) { return d != nullptr; });
  auto input = [&](std::size_t i) -> const Relation& {
    if (deltas[i] != nullptr) return *deltas[i];
    const Relation& b = base(i);
    if (trace != nullptr) trace->scan_rows[i] = static_cast<std::int64_t>(b.size());
    return b;
  };

  // The accumulator borrows its first input (a bound delta or the shared
  // base) and points at `owned` once a step has produced new rows.
  const JoinSteps steps = join_steps(order, program_.schemas, program_.plan.join_conjuncts);
  const Relation* acc = &input(order[0]);
  Relation owned;
  for (std::size_t step = 1; step < n && !acc->empty(); ++step) {
    const std::size_t p = order[step];
    const std::vector<ExprPtr>& on = steps.conjuncts[step - 1];
    Relation joined;
    if (deltas[p] != nullptr || !binds_delta || !probe_index(*acc, p, on, joined)) {
      const Relation& next = input(p);
      joined = next.empty() ? Relation(acc->schema().concat(program_.schemas[p]))
                            : alg::join(*acc, next, alg::conjoin(on), metrics_);
    }
    owned = std::move(joined);
    acc = &owned;
    if (trace != nullptr) trace->join_rows.push_back(acc->size());
  }
  if (trace != nullptr) {
    trace->join_rows.resize(n - 1, 0);
    trace->has_residual = !steps.residual.empty();
  }
  if (acc->empty()) return std::nullopt;
  if (!steps.residual.empty()) {
    owned = alg::select(*acc, *alg::conjoin(steps.residual), metrics_);
    acc = &owned;
    if (trace != nullptr) trace->residual_rows = acc->size();
  }

  if (dedup || !named_in_order(acc->schema(), columns)) {
    owned = alg::project(*acc, columns, dedup, metrics_);
    acc = &owned;
  }
  if (acc == &owned) return owned;
  // Still borrowing means one position and no step: the rows are the
  // input's own. A delta is the caller's to give up; a base is handed over
  // and rebuilt should a later term read it.
  const std::size_t first = order[0];
  if (deltas[first] != nullptr) return std::move(*deltas[first]);
  std::optional<Relation> rows = std::move(base_[first]);
  base_[first].reset();
  return rows;
}

Relation evaluate_spj(const SpjQuery& query, const cat::Database& db, Metrics* metrics,
                      SpjExecTrace* trace) {
  const SpjProgram program = compile(query, db, /*sample=*/true, metrics);
  SpjExecutor exec(program, db, metrics);
  const bool project = !query.projection.empty();
  const std::vector<std::string>& columns = project ? query.projection : program.from_columns;
  std::optional<Relation> rows = exec.run(std::vector<Relation*>(query.from.size()),
                                          program.plan.join_order, columns,
                                          project && query.distinct, trace);
  Relation out = rows ? std::move(*rows) : Relation(program.output_schema);
  if (query.distinct && !project) out = alg::distinct(out);
  if (trace != nullptr) {
    trace->plan = program.plan;
    trace->output_rows = out.size();
  }
  return out;
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


/// A plain query's rows in ORDER BY order. When it orders by a column its
/// projection drops, the joined rows are sorted first and projected after.
Relation evaluate_ordered(const SpjQuery& query, const cat::Database& db, Metrics* metrics,
                          SpjExecTrace* trace) {
  if (!query.orders_by_unprojected()) {
    return apply_order_by(query, evaluate_spj(query, db, metrics, trace));
  }
  query.validate();  // rejects the shape under DISTINCT
  SpjQuery wide = query;
  wide.projection.clear();
  return alg::project(apply_order_by(query, evaluate_spj(wide, db, metrics, trace)),
                      query.projection, /*dedup=*/false, metrics);
}
}  // namespace

Relation evaluate(const SpjQuery& query, const cat::Database& db, Metrics* metrics) {
  if (query.is_aggregate()) {
    Relation spj = evaluate_spj(spj_core_of(query), db, metrics);
    return apply_order_by(query, apply_aggregates(query, spj, metrics));
  }
  return evaluate_ordered(query, db, metrics, nullptr);
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

  QueryExplain out;
  if (execute) {
    SpjExecTrace trace;
    Relation spj = aggregate ? evaluate_spj(core, db, nullptr, &trace)
                             : evaluate_ordered(query, db, nullptr, &trace);
    out.plan = trace.plan;
    out.root = build_plan_tree(core, out.plan, from_schemas(core, db), &trace);
    out.result =
        aggregate ? apply_order_by(query, apply_aggregates(query, spj)) : std::move(spj);
    out.executed = true;
  } else {
    const SpjProgram program = compile(core, db, /*sample=*/true);
    out.plan = program.plan;
    out.root = build_plan_tree(core, out.plan, program.schemas);
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
