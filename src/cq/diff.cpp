#include "cq/diff.hpp"

#include <sstream>
#include <unordered_map>

#include "algebra/ops.hpp"
#include "common/error.hpp"

namespace cq::core {

using rel::Relation;
using rel::Tuple;

namespace {

// Why-provenance must survive multiset cancellation: one net joined row can
// appear as several value-equal signed instances across DRA terms (ΔS⋈T',
// S'⋈ΔT, ΔS⋈ΔT), each citing only its own term's deltas. The instance the
// streaming difference happens to keep is arbitrary, so attach the union of
// every value-equal instance's sources to the surviving rows instead.
void merge_value_provenance(const DiffResult& raw, DiffResult& out) {
  std::unordered_map<std::size_t,
                     std::vector<std::pair<const Tuple*, rel::prov::ProvSetPtr>>>
      by_value;
  auto fold = [&](const Relation& r) {
    for (const auto& row : r.rows()) {
      if (row.prov() == nullptr) continue;
      auto& bucket = by_value[row.value_hash()];
      bool found = false;
      for (auto& [exemplar, set] : bucket) {
        if (exemplar->same_values(row)) {
          set = rel::prov::merge(set, row.prov());
          found = true;
          break;
        }
      }
      if (!found) bucket.emplace_back(&row, row.prov());
    }
  };
  fold(raw.inserted);
  fold(raw.deleted);
  if (by_value.empty()) return;
  auto attach = [&](Relation& r) {
    for (auto& row : r.mutable_rows()) {
      auto it = by_value.find(row.value_hash());
      if (it == by_value.end()) continue;
      for (const auto& [exemplar, set] : it->second) {
        if (exemplar->same_values(row)) {
          row.set_prov(set);
          break;
        }
      }
    }
  };
  attach(out.inserted);
  attach(out.deleted);
}

}  // namespace

bool DiffResult::equivalent(const DiffResult& other) const {
  const DiffResult a = consolidated();
  const DiffResult b = other.consolidated();
  return a.inserted.equal_multiset(b.inserted) && a.deleted.equal_multiset(b.deleted);
}

DiffResult DiffResult::consolidated() const {
  DiffResult out;
  out.inserted = alg::difference(inserted, deleted);
  out.deleted = alg::difference(deleted, inserted);
  if (rel::prov::enabled()) merge_value_provenance(*this, out);
  return out;
}

std::string DiffResult::to_string() const {
  std::ostringstream os;
  os << "ΔQ inserted: " << inserted.to_string() << "ΔQ deleted: " << deleted.to_string();
  return os.str();
}

DiffResult diff(const Relation& before, const Relation& after) {
  DiffResult out;
  out.inserted = alg::difference(after, before);
  out.deleted = alg::difference(before, after);
  return out;
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
