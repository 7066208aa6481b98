#include "cq/terry.hpp"

#include "common/error.hpp"
#include "cq/dra.hpp"

namespace cq::core {

bool append_only_since(const qry::SpjQuery& query, const cat::Database& db,
                       common::Timestamp since) {
  for (const auto& ref : query.from) {
    const delta::DeltaSnapshot d(db.delta(ref.table));
    for (const auto& row : d.net_effect(since)) {
      if (row.kind() != delta::ChangeKind::kInsert) return false;
    }
  }
  return true;
}

rel::Relation terry_incremental(const qry::SpjQuery& query, const cat::Database& db,
                                common::Timestamp since, common::Metrics* metrics) {
  if (!append_only_since(query, db, since)) {
    throw common::Unsupported(
        "continuous queries (Terry et al.) assume append-only sources; the "
        "update window contains a deletion or modification");
  }
  // Under append-only, ΔQ has no deleted side and the DRA's truth-table
  // expansion reduces to the classic continuous-query transformation:
  // evaluate Q with the appended tuples substituted for each changed input.
  DiffResult delta = dra_differential(query, db, since, metrics);
  CQ_ASSERT(delta.deleted.empty());
  return delta.inserted;
}

}  // namespace cq::core
