#include "query/ast.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "common/error.hpp"

namespace cq::qry {

void SpjQuery::validate() const {
  if (from.empty()) {
    throw common::InvalidArgument("query must reference at least one table");
  }
  std::unordered_set<std::string> aliases;
  for (const auto& ref : from) {
    if (ref.table.empty()) throw common::InvalidArgument("empty table name in FROM");
    if (!aliases.insert(ref.effective_alias()).second) {
      throw common::InvalidArgument("duplicate alias '" + ref.effective_alias() +
                                    "' in FROM");
    }
  }
  if (is_aggregate()) {
    // Plain projection columns alongside aggregates must be group keys.
    for (const auto& col : projection) {
      bool grouped = false;
      for (const auto& g : group_by) grouped = grouped || g == col;
      if (!grouped) {
        throw common::InvalidArgument("column '" + col +
                                      "' must appear in GROUP BY when aggregating");
      }
    }
  } else if (!group_by.empty()) {
    throw common::InvalidArgument("GROUP BY requires at least one aggregate");
  }
  if (having && !is_aggregate()) {
    throw common::InvalidArgument("HAVING requires an aggregate query");
  }
  if (distinct && orders_by_unprojected()) {
    throw common::InvalidArgument(
        "ORDER BY columns must appear in the SELECT DISTINCT list");
  }
}

bool SpjQuery::orders_by_unprojected() const {
  if (is_aggregate() || projection.empty()) return false;
  auto same_column = [](const std::string& a, const std::string& b) {
    if (a == b) return true;
    const auto dot_a = a.find('.');
    const auto dot_b = b.find('.');
    if ((dot_a == std::string::npos) == (dot_b == std::string::npos)) return false;
    // npos + 1 wraps to 0: the unqualified side compares whole.
    return a.substr(dot_a + 1) == b.substr(dot_b + 1);
  };
  for (const auto& key : order_by) {
    const auto names_key = [&](const std::string& col) { return same_column(col, key.column); };
    if (std::none_of(projection.begin(), projection.end(), names_key)) return true;
  }
  return false;
}

std::string SpjQuery::to_string() const {
  std::ostringstream os;
  os << "SELECT ";
  if (distinct) os << "DISTINCT ";
  bool first = true;
  for (const auto& col : projection) {
    if (!first) os << ", ";
    os << col;
    first = false;
  }
  for (const auto& agg : aggregates) {
    if (!first) os << ", ";
    os << alg::to_string(agg.kind) << "(" << (agg.column.empty() ? "*" : agg.column)
       << ")";
    if (!agg.alias.empty()) os << " AS " << agg.alias;
    first = false;
  }
  if (first) os << "*";
  os << " FROM ";
  for (std::size_t i = 0; i < from.size(); ++i) {
    if (i > 0) os << ", ";
    os << from[i].table;
    if (!from[i].alias.empty() && from[i].alias != from[i].table) {
      os << " AS " << from[i].alias;
    }
  }
  if (where && !(where->kind() == alg::Expr::Kind::kLiteral &&
                 where->literal().type() == rel::ValueType::kBool &&
                 where->literal().as_bool())) {
    os << " WHERE " << where->to_string();
  }
  if (!group_by.empty()) {
    os << " GROUP BY ";
    for (std::size_t i = 0; i < group_by.size(); ++i) {
      if (i > 0) os << ", ";
      os << group_by[i];
    }
  }
  if (having) os << " HAVING " << having->to_string();
  if (!order_by.empty()) {
    os << " ORDER BY ";
    for (std::size_t i = 0; i < order_by.size(); ++i) {
      if (i > 0) os << ", ";
      os << order_by[i].column;
      if (order_by[i].descending) os << " DESC";
    }
  }
  return os.str();
}

}  // namespace cq::qry
