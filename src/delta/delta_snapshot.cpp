#include "delta/delta_snapshot.hpp"

#include "common/error.hpp"

namespace cq::delta {

using common::Timestamp;
using rel::Relation;
using rel::Tuple;

DeltaSnapshot::DeltaSnapshot(const DeltaRelation& source)
    : source_(source), pin_(source.pin_reads()) {}

const DeltaSnapshot& snapshot_of(const SnapshotMap& snapshots, const std::string& table) {
  auto it = snapshots.find(table);
  if (it == snapshots.end()) {
    throw common::InvalidArgument("no delta snapshot of table '" + table +
                                  "': only the reading CQ's FROM tables are snapshotted");
  }
  return *it->second;
}

const DeltaSnapshot::Views& DeltaSnapshot::views(Timestamp since) const {
  common::LockGuard lock(mu_);
  auto it = cache_.find(since);
  if (it != cache_.end()) return it->second;

  Views v{net_effect_of(source_.rows(), since), Relation(source_.base_schema()),
          Relation(source_.base_schema())};
  // Lineage leaves must match DeltaRelation::insertions/deletions exactly:
  // src/cq reads every delta through a snapshot while the diom sources and
  // the delta tests read the live log, and both must cite the same rows.
  const bool lineage = rel::prov::enabled();
  for (const auto& row : v.net) {
    if (row.new_values) {
      Tuple t(*row.new_values, row.tid);
      if (lineage) t.set_prov(rel::prov::leaf(source_.prov_id_of(row)));
      v.ins.append(std::move(t));
    }
    if (row.old_values) {
      Tuple t(*row.old_values, row.tid);
      if (lineage) t.set_prov(rel::prov::leaf(source_.prov_id_of(row)));
      v.del.append(std::move(t));
    }
  }
  return cache_.emplace(since, std::move(v)).first->second;
}

const std::vector<DeltaRow>& DeltaSnapshot::net_effect(Timestamp since) const {
  return views(since).net;
}

const Relation& DeltaSnapshot::insertions(Timestamp since) const {
  return views(since).ins;
}

const Relation& DeltaSnapshot::deletions(Timestamp since) const {
  return views(since).del;
}

}  // namespace cq::delta
