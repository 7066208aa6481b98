#include "delta/delta_snapshot.hpp"

#include <algorithm>
#include <unordered_map>

#include "common/error.hpp"

namespace cq::delta {

using common::Timestamp;
using rel::Relation;
using rel::Tuple;
using rel::TupleId;
using rel::Value;

namespace {

/// Net effect per tid of the changes in `rows` (ts-ordered) strictly after
/// `since`, in first-seen order — see DeltaSnapshot::net_effect for the
/// collapse rules.
std::vector<DeltaRow> net_effect_of(const std::vector<DeltaRow>& rows, Timestamp since) {
  std::vector<DeltaRow> out;
  std::unordered_map<TupleId, std::size_t> position;  // tid -> index in out

  // rows is ts-ordered; binary search the window start.
  auto first = std::lower_bound(
      rows.begin(), rows.end(), since,
      [](const DeltaRow& r, Timestamp t) { return r.ts <= t; });

  for (auto it = first; it != rows.end(); ++it) {
    const DeltaRow& change = *it;
    auto pos = position.find(change.tid);
    if (pos == position.end()) {
      position.emplace(change.tid, out.size());
      out.push_back(change);
      continue;
    }
    DeltaRow& acc = out[pos->second];
    // Compose acc (earlier) with change (later). The earliest old half and
    // the latest new half survive. The latest row also lends its (ts, seq)
    // so the net row's lineage id resolves to a physical row in the log.
    acc.new_values = change.new_values;
    acc.ts = change.ts;
    acc.seq = change.seq;
  }

  // Drop the windows that changed nothing: insert∘delete leaves neither
  // half, and a modification can land back on its original values. Both
  // are exactly the rows whose halves compare equal.
  std::erase_if(out, [](const DeltaRow& row) { return row.old_values == row.new_values; });
  return out;
}

}  // namespace

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

DeltaSnapshot::Views& DeltaSnapshot::views(Timestamp since) const {
  auto it = cache_.find(since);
  if (it != cache_.end()) return it->second;
  Views v;
  v.net = net_effect_of(source_.rows(), since);
  return cache_.emplace(since, std::move(v)).first->second;
}

const DeltaSnapshot::Views& DeltaSnapshot::split_views(Timestamp since) const {
  common::LockGuard lock(mu_);
  Views& v = views(since);
  if (v.split) return v;
  v.ins = Relation(base_schema());
  v.del = Relation(base_schema());
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
  v.split = true;
  return v;
}

const std::vector<DeltaRow>& DeltaSnapshot::net_effect(Timestamp since) const {
  common::LockGuard lock(mu_);
  return views(since).net;
}

const Relation& DeltaSnapshot::insertions(Timestamp since) const {
  return split_views(since).ins;
}

const Relation& DeltaSnapshot::deletions(Timestamp since) const {
  return split_views(since).del;
}

Relation DeltaSnapshot::as_wide_relation(Timestamp since) const {
  std::vector<rel::Attribute> wide = base_schema().doubled().attributes();
  wide.push_back({"__tid", rel::ValueType::kInt});
  wide.push_back({"__ts", rel::ValueType::kInt});
  Relation out{rel::Schema(std::move(wide))};
  const std::size_t n = base_schema().size();
  for (const auto& row : net_effect(since)) {
    std::vector<Value> values;
    values.reserve(2 * n + 2);
    for (std::size_t i = 0; i < n; ++i) {
      values.push_back(row.old_values ? (*row.old_values)[i] : Value::null());
    }
    for (std::size_t i = 0; i < n; ++i) {
      values.push_back(row.new_values ? (*row.new_values)[i] : Value::null());
    }
    values.emplace_back(static_cast<std::int64_t>(row.tid.raw()));
    values.emplace_back(row.ts.ticks());
    out.append(Tuple(std::move(values), row.tid));
  }
  return out;
}

}  // namespace cq::delta
