#include "cq/diff.hpp"

#include <cstdint>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"

namespace cq::core {

using rel::Relation;
using rel::Tuple;

namespace {

/// `plus` at weight +1 followed by `minus` at −1.
Relation signed_stream(const Relation& plus, const Relation& minus) {
  Relation stream(plus.schema());
  stream.mutable_rows().reserve(plus.size() + minus.size());
  for (const auto& row : plus.rows()) stream.append(row);
  for (const auto& row : minus.rows()) {
    stream.append(row);
    stream.mutable_rows().back().set_weight(-1);
  }
  return stream;
}

}  // namespace

bool DiffResult::equivalent(const DiffResult& other) const {
  if (!inserted.schema().union_compatible(other.inserted.schema()) ||
      !deleted.schema().union_compatible(other.deleted.schema())) {
    return false;
  }
  rel::TupleBag net;
  for (const auto& row : inserted.rows()) net.add(row, +1);
  for (const auto& row : deleted.rows()) net.add(row, -1);
  for (const auto& row : other.inserted.rows()) net.add(row, -1);
  for (const auto& row : other.deleted.rows()) net.add(row, +1);
  return net.all_zero();
}

DiffResult DiffResult::consolidated() const {
  return consolidate(signed_stream(inserted, deleted));
}

DiffResult consolidate(Relation stream) {
  std::vector<Tuple>& rows = stream.mutable_rows();
  // net(v) per value, plus the union of every value-v row's lineage.
  rel::TupleBag net;
  std::vector<rel::TupleBag::Entry*> survivor;
  survivor.reserve(rows.size());
  for (const auto& row : rows) {
    rel::TupleBag::Entry& entry = net.entry(row);
    entry.weight += row.weight();
    if (row.prov() != nullptr) entry.prov = rel::prov::merge(entry.prov, row.prov());
    survivor.push_back(&entry);
  }
  // Walking backwards, each value keeps its last |net(v)| rows of net(v)'s
  // sign; survivor[i] is cleared for every other row.
  for (std::size_t i = rows.size(); i-- > 0;) {
    const std::int64_t sign = rows[i].weight() > 0 ? 1 : -1;
    if (survivor[i]->weight * sign > 0) {
      survivor[i]->weight -= sign;
    } else {
      survivor[i] = nullptr;
    }
  }
  DiffResult out;
  out.inserted = Relation(stream.schema());
  out.deleted = Relation(stream.schema());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (survivor[i] == nullptr) continue;
    Tuple& row = rows[i];
    Relation& side = row.weight() > 0 ? out.inserted : out.deleted;
    row.set_weight(1);
    row.set_prov(survivor[i]->prov);
    side.append(std::move(row));
  }
  return out;
}

std::string DiffResult::to_string() const {
  std::ostringstream os;
  os << "ΔQ inserted: " << inserted.to_string() << "ΔQ deleted: " << deleted.to_string();
  return os.str();
}

DiffResult diff(const Relation& before, const Relation& after) {
  return consolidate(signed_stream(after, before));
}

rel::Relation apply_diff(Relation previous, const DiffResult& delta) {
  for (const auto& row : delta.deleted.rows()) {
    if (!previous.remove_one(row)) {
      throw common::InternalError(
          "apply_diff: deleted row missing from previous result: " + row.to_string());
    }
  }
  for (const auto& row : delta.inserted.rows()) previous.append(row);
  return previous;
}

ClassifiedDiff classify(const DiffResult& delta) {
  ClassifiedDiff out;
  out.pure_insertions = rel::Relation(delta.inserted.schema());
  out.pure_deletions = rel::Relation(delta.deleted.schema());

  std::unordered_map<rel::TupleId, const Tuple*> deleted_by_tid;
  for (const auto& row : delta.deleted.rows()) {
    if (row.tid().valid()) deleted_by_tid.emplace(row.tid(), &row);
  }
  std::unordered_map<rel::TupleId, bool> matched;
  for (const auto& row : delta.inserted.rows()) {
    auto it = row.tid().valid() ? deleted_by_tid.find(row.tid()) : deleted_by_tid.end();
    if (it != deleted_by_tid.end()) {
      out.modified.emplace_back(*it->second, row);
      matched[row.tid()] = true;
    } else {
      out.pure_insertions.append(row);
    }
  }
  for (const auto& row : delta.deleted.rows()) {
    if (!row.tid().valid() || !matched.contains(row.tid())) {
      out.pure_deletions.append(row);
    }
  }
  return out;
}

}  // namespace cq::core
