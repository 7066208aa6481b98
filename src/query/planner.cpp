#include "query/planner.hpp"

#include <algorithm>
#include <sstream>

#include "algebra/predicate.hpp"
#include "algebra/simplify.hpp"
#include "common/error.hpp"

namespace cq::qry {

using alg::ExprPtr;

rel::Schema qualify(const rel::Schema& table_schema, const TableRef& ref) {
  return table_schema.qualified(ref.effective_alias());
}

namespace {
/// Fraction of up to kPlannerSampleSize leading rows of `input`, read under
/// `schema`, satisfying `filter`; clamped away from 0 so downstream
/// estimates never hit exact zero.
double sampled_selectivity(const rel::Relation& input, const rel::Schema& schema,
                           const alg::ExprPtr& filter) {
  const std::size_t n = std::min(input.size(), kPlannerSampleSize);
  if (n == 0) return 1.0;
  std::size_t hits = 0;
  const alg::BoundExpr bound(*filter, schema);
  for (std::size_t i = 0; i < n; ++i) {
    if (bound.eval_bool(input.row(i))) ++hits;
  }
  return std::max(0.5 / static_cast<double>(n),
                  static_cast<double>(hits) / static_cast<double>(n));
}
}  // namespace

std::vector<std::size_t> order_joins(const std::vector<ExprPtr>& join_conjuncts,
                                     const std::vector<rel::Schema>& qualified_schemas,
                                     const std::vector<double>& estimates) {
  if (estimates.size() != qualified_schemas.size()) {
    throw common::InvalidArgument("order_joins: schema/estimate count mismatch");
  }
  const std::size_t n = qualified_schemas.size();
  auto connected = [&](std::size_t candidate, const std::vector<bool>& joined) {
    // A conjunct connects `candidate` when it references candidate's schema
    // and at least one already-joined schema.
    for (const auto& c : join_conjuncts) {
      bool touches_candidate = false;
      bool touches_joined = false;
      for (const auto& col : c->columns()) {
        if (qualified_schemas[candidate].contains(col)) touches_candidate = true;
        for (std::size_t j = 0; j < n; ++j) {
          if (joined[j] && qualified_schemas[j].contains(col)) touches_joined = true;
        }
      }
      if (touches_candidate && touches_joined) return true;
    }
    return false;
  };

  std::vector<bool> joined(n, false);
  std::vector<std::size_t> order;
  order.reserve(n);
  for (std::size_t step = 0; step < n; ++step) {
    std::size_t best = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (joined[i]) continue;
      const bool i_connected = step > 0 && connected(i, joined);
      if (best == n) {
        best = i;
        continue;
      }
      const bool best_connected = step > 0 && connected(best, joined);
      if (i_connected != best_connected) {
        if (i_connected) best = i;
        continue;
      }
      if (estimates[i] < estimates[best]) best = i;
    }
    joined[best] = true;
    order.push_back(best);
  }
  return order;
}

JoinSteps join_steps(const std::vector<std::size_t>& order,
                     const std::vector<rel::Schema>& qualified_schemas,
                     const std::vector<ExprPtr>& join_conjuncts) {
  JoinSteps out;
  out.residual = join_conjuncts;
  if (order.size() < 2) return out;
  out.conjuncts.resize(order.size() - 1);
  rel::Schema combined = qualified_schemas.at(order[0]);
  for (std::size_t j = 0; j + 1 < order.size(); ++j) {
    combined = combined.concat(qualified_schemas.at(order[j + 1]));
    std::vector<ExprPtr> unresolved;
    for (const auto& c : out.residual) {
      (c->resolves_in(combined) ? out.conjuncts[j] : unresolved).push_back(c);
    }
    out.residual = std::move(unresolved);
  }
  return out;
}

std::vector<double> PlannedQuery::estimates(
    const std::vector<std::size_t>& cardinalities) const {
  if (cardinalities.size() != filter_selectivities.size()) {
    throw common::InvalidArgument("PlannedQuery::estimates: cardinality count mismatch");
  }
  std::vector<double> out(cardinalities.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    double e = static_cast<double>(cardinalities[i]);
    for (const double s : filter_selectivities[i]) e *= s;
    out[i] = e;
  }
  return out;
}

PlannedQuery plan(const SpjQuery& query, const std::vector<rel::Schema>& qualified_schemas,
                  const std::vector<std::size_t>& cardinalities,
                  const std::vector<const rel::Relation*>* samples, common::Metrics* metrics) {
  if (qualified_schemas.size() != query.from.size() ||
      cardinalities.size() != query.from.size()) {
    throw common::InvalidArgument("plan: schema/cardinality count mismatch");
  }
  if (samples != nullptr && samples->size() != query.from.size()) {
    throw common::InvalidArgument("plan: sample count mismatch");
  }
  const std::size_t n = query.from.size();
  PlannedQuery out;
  out.table_filters.resize(n);

  // 1. Simplify, then classify each conjunct: single-table conjuncts become
  //    filters (constant folding can also prune entire branches here).
  for (const auto& conjunct : alg::split_conjuncts(alg::simplify(query.where))) {
    std::size_t owner = n;  // n = spans multiple / none
    std::size_t owners = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (conjunct->resolves_in(qualified_schemas[i])) {
        owner = i;
        ++owners;
      }
    }
    if (owners == 1) {
      out.table_filters[owner].push_back(conjunct);
    } else {
      out.join_conjuncts.push_back(conjunct);
    }
  }

  // 2. Cheapest predicates first within each table filter (Section 5.2).
  for (auto& filters : out.table_filters) {
    std::stable_sort(filters.begin(), filters.end(),
                     [](const ExprPtr& a, const ExprPtr& b) {
                       return alg::predicate_cost_rank(a) < alg::predicate_cost_rank(b);
                     });
  }

  // 3. Join order: greedy by estimated post-filter cardinality, measured
  //    on a table's sample when there is one.
  out.filter_selectivities.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (const auto& f : out.table_filters[i]) {
      out.filter_selectivities[i].push_back(alg::estimate_selectivity(f));
    }
  }
  out.scan_estimates = out.estimates(cardinalities);
  for (std::size_t i = 0; samples != nullptr && i < n; ++i) {
    if ((*samples)[i] == nullptr || out.table_filters[i].empty()) continue;
    out.scan_estimates[i] =
        static_cast<double>(cardinalities[i]) *
        sampled_selectivity(*(*samples)[i], qualified_schemas[i],
                            alg::conjoin(out.table_filters[i]));
  }
  out.join_order = order_joins(out.join_conjuncts, qualified_schemas, out.scan_estimates);
  if (metrics != nullptr) metrics->add(common::metric::kPlansBuilt, 1);
  return out;
}

namespace {
/// "12" for whole numbers, "12.3" otherwise — keeps EXPLAIN lines tidy.
std::string format_estimate(double rows) {
  std::ostringstream os;
  if (rows == static_cast<double>(static_cast<long long>(rows))) {
    os << static_cast<long long>(rows);
  } else {
    os.precision(1);
    os << std::fixed << rows;
  }
  return os.str();
}

std::string join_names(const std::vector<std::string>& names) {
  std::string out;
  for (const auto& name : names) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

void render_node(const ExplainNode& node, std::size_t depth, std::ostringstream& os) {
  os << std::string(depth * 2, ' ') << node.label << "  (est~";
  if (node.estimated_rows >= 0) {
    os << format_estimate(node.estimated_rows);
  } else {
    os << "?";
  }
  os << ", actual=";
  if (node.actual_rows >= 0) {
    os << node.actual_rows;
  } else {
    os << "?";
  }
  os << ")\n";
  for (const auto& child : node.children) render_node(child, depth + 1, os);
}
}  // namespace

ExplainNode build_plan_tree(const SpjQuery& query, const PlannedQuery& planned,
                            const std::vector<rel::Schema>& qualified_schemas,
                            const SpjExecTrace* trace) {
  const std::size_t n = query.from.size();
  if (planned.join_order.size() != n || qualified_schemas.size() != n) {
    throw common::InvalidArgument("build_plan_tree: plan/schema count mismatch");
  }

  auto scan_node = [&](std::size_t idx) {
    ExplainNode node;
    const TableRef& ref = query.from[idx];
    node.label = "Scan " + ref.table;
    if (ref.effective_alias() != ref.table) {
      node.label += " AS " + ref.effective_alias();
    }
    const ExprPtr filter = planned.filter(idx);
    if (!alg::is_always_true(filter)) {
      node.label += " [" + filter->to_string() + "]";
    }
    if (idx < planned.scan_estimates.size()) {
      node.estimated_rows = planned.scan_estimates[idx];
    }
    if (trace != nullptr && idx < trace->scan_rows.size()) {
      node.actual_rows = trace->scan_rows[idx];
    }
    return node;
  };

  // Left-deep spine: the executor's join steps.
  const JoinSteps steps = join_steps(planned.join_order, qualified_schemas,
                                     planned.join_conjuncts);
  ExplainNode acc = scan_node(planned.join_order[0]);
  double est = acc.estimated_rows;
  for (std::size_t step = 1; step < n; ++step) {
    ExplainNode right = scan_node(planned.join_order[step]);
    const std::vector<ExprPtr>& applicable = steps.conjuncts[step - 1];
    ExplainNode join;
    join.label = applicable.empty()
                     ? "Join (cross)"
                     : "Join [" + alg::conjoin(applicable)->to_string() + "]";
    if (est >= 0 && right.estimated_rows >= 0) {
      double e = est * right.estimated_rows;
      for (const auto& c : applicable) e *= alg::estimate_selectivity(c);
      join.estimated_rows = e;
    }
    if (trace != nullptr && step - 1 < trace->join_rows.size()) {
      join.actual_rows = static_cast<std::int64_t>(trace->join_rows[step - 1]);
    }
    est = join.estimated_rows;
    join.children.push_back(std::move(acc));
    join.children.push_back(std::move(right));
    acc = std::move(join);
  }

  if (!steps.residual.empty()) {
    ExplainNode filter;
    filter.label = "Filter [" + alg::conjoin(steps.residual)->to_string() + "]";
    if (est >= 0) {
      double e = est;
      for (const auto& c : steps.residual) e *= alg::estimate_selectivity(c);
      filter.estimated_rows = e;
      est = e;
    }
    if (trace != nullptr && trace->has_residual) {
      filter.actual_rows = static_cast<std::int64_t>(trace->residual_rows);
    }
    filter.children.push_back(std::move(acc));
    acc = std::move(filter);
  }

  // The output operator, when one materially exists: an explicit projection,
  // the canonical SELECT-* reordering over a join, or a distinct pass.
  if (!query.projection.empty() || n > 1 || query.distinct) {
    ExplainNode proj;
    if (!query.projection.empty()) {
      proj.label = std::string(query.distinct ? "Project DISTINCT [" : "Project [") +
                   join_names(query.projection) + "]";
    } else if (n > 1) {
      proj.label = query.distinct ? "Project DISTINCT *" : "Project *";
    } else {
      proj.label = "Distinct";
    }
    // Projection preserves cardinality; distinct makes it unknowable here.
    proj.estimated_rows = query.distinct ? -1 : est;
    if (trace != nullptr) {
      proj.actual_rows = static_cast<std::int64_t>(trace->output_rows);
    }
    proj.children.push_back(std::move(acc));
    acc = std::move(proj);
  }
  return acc;
}

std::string render_plan_tree(const ExplainNode& node) {
  std::ostringstream os;
  render_node(node, 0, os);
  return os.str();
}

std::string PlannedQuery::to_string(const SpjQuery& query) const {
  std::ostringstream os;
  os << "Plan for " << query.to_string() << "\n";
  os << "  join order:";
  for (auto i : join_order) os << " " << query.from[i].effective_alias();
  os << "\n";
  for (std::size_t i = 0; i < table_filters.size(); ++i) {
    if (table_filters[i].empty()) continue;
    os << "  filter[" << query.from[i].effective_alias()
       << "]: " << alg::conjoin(table_filters[i])->to_string() << "\n";
  }
  if (!join_conjuncts.empty()) {
    os << "  join predicate: " << alg::conjoin(join_conjuncts)->to_string() << "\n";
  }
  return os.str();
}

}  // namespace cq::qry
