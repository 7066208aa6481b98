#include "relation/index.hpp"

#include <algorithm>
#include <optional>

#include "common/hash.hpp"

namespace cq::rel {

namespace {
/// `row`'s key under `cols`, or nullopt when a key column is NULL (such a
/// row matches no probe, so neither index stores it).
std::optional<IndexKey> key_of(const Tuple& row, const std::vector<std::size_t>& cols) {
  IndexKey key;
  key.reserve(cols.size());
  for (auto c : cols) {
    if (row.at(c).is_null()) return std::nullopt;
    key.push_back(row.at(c));
  }
  return key;
}
}  // namespace

std::size_t IndexKeyHash::operator()(const IndexKey& key) const noexcept {
  std::size_t h = 0x1dd ^ key.size();
  for (const auto& v : key) h = common::hash_combine(h, v);
  return h;
}

const std::vector<std::size_t> HashIndex::kEmpty{};

HashIndex::HashIndex(const std::vector<Tuple>& rows, std::vector<std::size_t> key_columns)
    : key_columns_(std::move(key_columns)) {
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (auto key = key_of(rows[i], key_columns_)) buckets_[std::move(*key)].push_back(i);
  }
}

const std::vector<std::size_t>& HashIndex::probe(
    const Tuple& probe, const std::vector<std::size_t>& probe_columns) const {
  const auto key = key_of(probe, probe_columns);
  if (!key) return kEmpty;
  auto it = buckets_.find(*key);
  return it == buckets_.end() ? kEmpty : it->second;
}

const std::vector<rel::TupleId> MaintainedIndex::kNoTids{};

MaintainedIndex::MaintainedIndex(std::vector<std::size_t> columns)
    : columns_(std::move(columns)) {}

void MaintainedIndex::build(const Relation& relation) {
  buckets_.clear();
  entries_ = 0;
  for (const auto& row : relation.rows()) add(row);
}

void MaintainedIndex::add(const Tuple& row) {
  auto key = key_of(row, columns_);
  if (!key) return;
  buckets_[std::move(*key)].push_back(row.tid());
  ++entries_;
}

void MaintainedIndex::remove(const Tuple& row) {
  const auto key = key_of(row, columns_);
  if (!key) return;
  auto it = buckets_.find(*key);
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

const std::vector<rel::TupleId>& MaintainedIndex::probe(const IndexKey& key) const {
  auto it = buckets_.find(key);
  return it == buckets_.end() ? kNoTids : it->second;
}

}  // namespace cq::rel
