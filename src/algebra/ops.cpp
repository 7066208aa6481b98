#include "algebra/ops.hpp"

#include <optional>

#include "algebra/predicate.hpp"
#include "common/error.hpp"
#include "common/observability.hpp"
#include "relation/index.hpp"

namespace cq::alg {

using common::Metrics;
using rel::Relation;
using rel::Tuple;

namespace {
void count(Metrics* m, common::metric::Id id, std::int64_t v) {
  if (m != nullptr && v != 0) m->add(id, v);
}

/// A join's optional predicate, bound once for all its row pairs.
std::optional<BoundExpr> bind_optional(const Expr* predicate, const rel::Schema& schema) {
  if (predicate == nullptr) return std::nullopt;
  return BoundExpr(*predicate, schema);
}
}  // namespace

Relation select(const Relation& input, const Expr& predicate, Metrics* metrics) {
  return select(input, input.schema(), predicate, metrics);
}

Relation select(const Relation& input, const rel::Schema& schema, const Expr& predicate,
                Metrics* metrics) {
  common::obs::Span span("alg.select");
  Relation out(schema);
  const BoundExpr bound(predicate, schema);
  for (const auto& row : input.rows()) {
    if (bound.eval_bool(row)) out.append(row);
  }
  count(metrics, common::metric::kRowsScanned, static_cast<std::int64_t>(input.size()));
  count(metrics, common::metric::kRowsOutput, static_cast<std::int64_t>(out.size()));
  return out;
}

Relation project(const Relation& input, const std::vector<std::string>& columns,
                 bool dedup, Metrics* metrics) {
  common::obs::Span span("alg.project");
  std::vector<std::size_t> indexes;
  indexes.reserve(columns.size());
  for (const auto& c : columns) indexes.push_back(input.schema().index_of(c));
  Relation out(input.schema().project(columns));
  for (const auto& row : input.rows()) {
    Tuple projected = row.project(indexes);
    if (!dedup) projected.set_tid(row.tid());
    out.append(std::move(projected));
  }
  count(metrics, common::metric::kRowsScanned, static_cast<std::int64_t>(input.size()));
  if (dedup) out = distinct(out);
  count(metrics, common::metric::kRowsOutput, static_cast<std::int64_t>(out.size()));
  return out;
}

Relation nested_loop_join(const Relation& left, const Relation& right,
                          const Expr* predicate, Metrics* metrics) {
  common::obs::Span span("alg.nested_loop_join");
  const rel::Schema schema = left.schema().concat(right.schema());
  Relation out(schema);
  const std::optional<BoundExpr> bound = bind_optional(predicate, schema);
  for (const auto& l : left.rows()) {
    for (const auto& r : right.rows()) {
      Tuple combined = l.concat(r);
      count(metrics, common::metric::kTuplesCompared, 1);
      if (!bound || bound->eval_bool(combined)) {
        out.append(std::move(combined));
      }
    }
  }
  count(metrics, common::metric::kRowsScanned,
        static_cast<std::int64_t>(left.size() + right.size()));
  count(metrics, common::metric::kRowsOutput, static_cast<std::int64_t>(out.size()));
  return out;
}

Relation hash_join(const Relation& left, const Relation& right,
                   const std::vector<std::pair<std::size_t, std::size_t>>& equi_pairs,
                   const Expr* residual, Metrics* metrics) {
  if (equi_pairs.empty()) {
    throw common::InvalidArgument("hash_join requires at least one equi pair");
  }
  common::obs::Span span("alg.hash_join");
  const rel::Schema schema = left.schema().concat(right.schema());
  Relation out(schema);

  std::vector<std::size_t> left_cols;
  std::vector<std::size_t> right_cols;
  for (const auto& [l, r] : equi_pairs) {
    left_cols.push_back(l);
    right_cols.push_back(r);
  }

  // Build on the smaller side; probe with the larger.
  const bool build_left = left.size() <= right.size();
  const Relation& build = build_left ? left : right;
  const Relation& probe = build_left ? right : left;
  const auto& build_cols = build_left ? left_cols : right_cols;
  const auto& probe_cols = build_left ? right_cols : left_cols;

  const std::optional<BoundExpr> bound = bind_optional(residual, schema);
  rel::HashIndex index(build, build_cols);
  for (const auto& p : probe.rows()) {
    for (auto pos : index.probe(p, probe_cols)) {
      const Tuple& b = build.row(pos);
      Tuple combined = build_left ? b.concat(p) : p.concat(b);
      count(metrics, common::metric::kTuplesCompared, 1);
      if (!bound || bound->eval_bool(combined)) {
        out.append(std::move(combined));
      }
    }
  }
  count(metrics, common::metric::kRowsScanned,
        static_cast<std::int64_t>(left.size() + right.size()));
  count(metrics, common::metric::kRowsOutput, static_cast<std::int64_t>(out.size()));
  return out;
}

Relation join(const Relation& left, const Relation& right, const ExprPtr& predicate,
              Metrics* metrics) {
  JoinAnalysis analysis = analyze_join(predicate, left.schema(), right.schema());
  // Push single-side conjuncts down before the join proper.
  const Relation* l = &left;
  const Relation* r = &right;
  Relation lf;
  Relation rf;
  if (!analysis.left_only.empty()) {
    lf = select(left, *conjoin(analysis.left_only), metrics);
    l = &lf;
  }
  if (!analysis.right_only.empty()) {
    rf = select(right, *conjoin(analysis.right_only), metrics);
    r = &rf;
  }
  if (!analysis.equi_pairs.empty()) {
    const ExprPtr residual = analysis.residual_predicate();
    return hash_join(*l, *r, analysis.equi_pairs,
                     is_always_true(residual) ? nullptr : residual.get(), metrics);
  }
  const ExprPtr residual = analysis.residual_predicate();
  return nested_loop_join(*l, *r, is_always_true(residual) ? nullptr : residual.get(),
                          metrics);
}

Relation distinct(const Relation& input) {
  rel::TupleBag seen;
  Relation out(input.schema());
  for (const auto& row : input.rows()) {
    if (seen.count(row) == 0) {
      seen.add(row, +1);
      out.append(row);
    }
  }
  return out;
}

}  // namespace cq::alg
