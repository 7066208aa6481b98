#include "relation/index.hpp"

#include <algorithm>

#include "common/hash.hpp"

namespace cq::rel {

const std::vector<std::size_t> HashIndex::kEmpty{};

std::size_t HashIndex::KeyHash::operator()(const std::vector<Value>& key) const noexcept {
  std::size_t h = 0x1dd ^ key.size();
  for (const auto& v : key) h = common::hash_combine(h, v);
  return h;
}

bool HashIndex::KeyEq::operator()(const std::vector<Value>& a,
                                  const std::vector<Value>& b) const noexcept {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i])) return false;
  }
  return true;
}

std::vector<Value> HashIndex::extract(const Tuple& t, const std::vector<std::size_t>& cols) {
  std::vector<Value> key;
  key.reserve(cols.size());
  for (auto c : cols) key.push_back(t.at(c));
  return key;
}

HashIndex::HashIndex(const std::vector<Tuple>& rows, std::vector<std::size_t> key_columns)
    : key_columns_(std::move(key_columns)) {
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::vector<Value> key = extract(rows[i], key_columns_);
    // `=` is never true on NULL, so a NULL-keyed row matches no probe.
    if (std::any_of(key.begin(), key.end(), [](const Value& v) { return v.is_null(); })) {
      continue;
    }
    buckets_[std::move(key)].push_back(i);
  }
}

const std::vector<rel::TupleId> MaintainedIndex::kNoTids{};

std::size_t MaintainedIndex::KeyHash::operator()(
    const std::vector<Value>& key) const noexcept {
  std::size_t h = 0x9a1 ^ key.size();
  for (const auto& v : key) h = common::hash_combine(h, v);
  return h;
}

bool MaintainedIndex::KeyEq::operator()(const std::vector<Value>& a,
                                        const std::vector<Value>& b) const noexcept {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i])) return false;
  }
  return true;
}

MaintainedIndex::MaintainedIndex(std::vector<std::size_t> columns)
    : columns_(std::move(columns)) {}

std::vector<Value> MaintainedIndex::key_of(const Tuple& row) const {
  std::vector<Value> key;
  key.reserve(columns_.size());
  for (auto c : columns_) key.push_back(row.at(c));
  return key;
}

void MaintainedIndex::build(const Relation& relation) {
  buckets_.clear();
  entries_ = 0;
  for (const auto& row : relation.rows()) add(row);
}

void MaintainedIndex::add(const Tuple& row) {
  buckets_[key_of(row)].push_back(row.tid());
  ++entries_;
}

void MaintainedIndex::remove(const Tuple& row) {
  auto it = buckets_.find(key_of(row));
  if (it == buckets_.end()) return;  // defensive: index/table drift
  auto& tids = it->second;
  for (std::size_t i = 0; i < tids.size(); ++i) {
    if (tids[i] == row.tid()) {
      tids[i] = tids.back();
      tids.pop_back();
      --entries_;
      break;
    }
  }
  if (tids.empty()) buckets_.erase(it);
}

void MaintainedIndex::on_insert(const Tuple& row) { add(row); }

void MaintainedIndex::on_erase(const Tuple& row) { remove(row); }

void MaintainedIndex::on_update(const Tuple& old_row, const Tuple& new_row) {
  remove(old_row);
  add(new_row);
}

const std::vector<rel::TupleId>& MaintainedIndex::probe(
    const std::vector<Value>& key) const {
  auto it = buckets_.find(key);
  return it == buckets_.end() ? kNoTids : it->second;
}

const std::vector<std::size_t>& HashIndex::probe(
    const Tuple& probe, const std::vector<std::size_t>& probe_columns) const {
  auto it = buckets_.find(extract(probe, probe_columns));
  return it == buckets_.end() ? kEmpty : it->second;
}

}  // namespace cq::rel
