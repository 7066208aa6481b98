// Hash index over one or more columns of a relation snapshot. Built on
// demand by hash joins and by the DRA's differential joins (a ΔR side is
// usually tiny, so the big side gets the index).
#pragma once

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "relation/relation.hpp"

namespace cq::rel {

/// The key both index classes share: the values of the key columns. Both
/// follow SQL `=`, which is never true on NULL: a row whose key has a NULL
/// column is not indexed, so no probe (a NULL one included) finds it.
using IndexKey = std::vector<Value>;
struct IndexKeyHash {
  std::size_t operator()(const IndexKey& key) const noexcept;
};
template <typename Entry>
using IndexBuckets = std::unordered_map<IndexKey, std::vector<Entry>, IndexKeyHash>;

/// Immutable equi-lookup structure over a relation snapshot.
class HashIndex {
 public:
  /// Build over the given rows. `key_columns` are positions in each tuple.
  HashIndex(const std::vector<Tuple>& rows, std::vector<std::size_t> key_columns);

  /// Convenience: build over a whole relation.
  HashIndex(const Relation& relation, std::vector<std::size_t> key_columns)
      : HashIndex(relation.rows(), std::move(key_columns)) {}

  /// Row positions whose key columns equal the key columns of `probe`
  /// evaluated at `probe_columns`.
  [[nodiscard]] const std::vector<std::size_t>& probe(
      const Tuple& probe, const std::vector<std::size_t>& probe_columns) const;

  [[nodiscard]] std::size_t distinct_keys() const noexcept { return buckets_.size(); }

 private:
  std::vector<std::size_t> key_columns_;
  IndexBuckets<std::size_t> buckets_;
  static const std::vector<std::size_t> kEmpty;
};

/// A persistent equi-lookup index over a *base* table, maintained
/// incrementally as the table changes (unlike HashIndex, which is built
/// per query). NULL-keyed rows are left out, as in HashIndex. The catalog
/// updates it inside every commit; the DRA's differential joins probe it
/// so a join term costs O(|ΔR| · fanout) instead of a full base scan.
class MaintainedIndex {
 public:
  /// `columns` are attribute positions in the base schema, in key order.
  explicit MaintainedIndex(std::vector<std::size_t> columns);

  /// Bulk-build from current contents.
  void build(const Relation& relation);

  // ---- incremental maintenance (called at commit time) ----
  void on_insert(const Tuple& row);
  void on_erase(const Tuple& row);
  void on_update(const Tuple& old_row, const Tuple& new_row);

  /// Tids whose key columns equal `key` (values in key-column order).
  [[nodiscard]] const std::vector<TupleId>& probe(const std::vector<Value>& key) const;

  [[nodiscard]] const std::vector<std::size_t>& columns() const noexcept {
    return columns_;
  }
  [[nodiscard]] std::size_t distinct_keys() const noexcept { return buckets_.size(); }
  [[nodiscard]] std::size_t entries() const noexcept { return entries_; }

 private:
  void add(const Tuple& row);
  void remove(const Tuple& row);

  std::vector<std::size_t> columns_;
  IndexBuckets<TupleId> buckets_;
  std::size_t entries_ = 0;
  static const std::vector<TupleId> kNoTids;
};

}  // namespace cq::rel
