#include "cq/propagate.hpp"

#include "query/evaluate.hpp"

namespace cq::core {

rel::Relation recompute(const qry::SpjQuery& query, const cat::Database& db,
                        common::Metrics* metrics) {
  return qry::evaluate_spj(query, db, metrics);
}

DiffResult propagate(const qry::SpjQuery& query, const cat::Database& db,
                     const rel::Relation& previous_result, common::Metrics* metrics) {
  const rel::Relation current = recompute(query, db, metrics);
  return diff(previous_result, current);
}

}  // namespace cq::core
