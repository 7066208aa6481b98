// In-memory relations. A Relation serves two roles:
//   * base table: rows carry valid, unique tids; insert/erase/update by tid;
//   * derived result (query output): rows may be tid-less and duplicated,
//     with multiset semantics for equality and difference (Section 4.2 Diff).
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "relation/schema.hpp"
#include "relation/tuple.hpp"

namespace cq::rel {

class Relation {
 public:
  Relation() = default;
  explicit Relation(Schema schema) : schema_(std::move(schema)) {}
  Relation(Schema schema, std::vector<Tuple> rows);

  [[nodiscard]] const Schema& schema() const noexcept { return schema_; }
  [[nodiscard]] std::size_t size() const noexcept { return rows_.size(); }
  [[nodiscard]] bool empty() const noexcept { return rows_.empty(); }
  [[nodiscard]] const std::vector<Tuple>& rows() const noexcept { return rows_; }
  [[nodiscard]] const Tuple& row(std::size_t i) const;

  /// Mutable row access for in-place annotation (e.g. lineage attachment).
  /// Callers must not change values or tids through this — the tid index
  /// and multiset semantics assume rows are immutable once added.
  [[nodiscard]] std::vector<Tuple>& mutable_rows() noexcept { return rows_; }

  /// Replace the schema qualifier view without touching rows. Used by the
  /// planner when a table is aliased (FROM Stocks AS s).
  void set_schema(Schema schema);

  // ---- base-table mutations (tid-keyed) ----

  /// Insert a row with a caller-chosen tid (must be valid and fresh).
  void insert(Tuple tuple);

  /// Insert values, assigning the next tid from this relation's counter.
  TupleId insert_values(std::vector<Value> values);

  /// Claim the next tid without inserting (transactions reserve tids at
  /// op-queue time so later ops in the same transaction can reference
  /// them). Not synchronized — under multi-writer commits, go through
  /// Database, which serializes reservation on the table's shard lock.
  TupleId reserve_tid() noexcept { return TupleId(next_tid_++); }

  /// Best-effort return of a reserved-but-unused tid (transaction abort):
  /// succeeds only while `tid` is still the newest reservation, so an
  /// abort leaves the tids of subsequent commits undisturbed. Returns
  /// false — the tid is simply consumed — when later reservations
  /// already built on top of it.
  bool unreserve_tid(TupleId tid) noexcept {
    if (next_tid_ != tid.raw() + 1) return false;
    next_tid_ = tid.raw();
    return true;
  }

  /// Remove the row with this tid. Returns the removed tuple.
  Tuple erase(TupleId tid);

  /// Replace the values of the row with this tid. Returns the old tuple.
  Tuple update(TupleId tid, std::vector<Value> values);

  [[nodiscard]] bool contains(TupleId tid) const noexcept;
  [[nodiscard]] const Tuple* find(TupleId tid) const noexcept;

  // ---- derived-result mutations (multiset) ----

  /// Append a row without tid bookkeeping (duplicates allowed).
  void append(Tuple tuple);

  /// Remove one occurrence of a row with exactly these values (any tid).
  /// Returns false when no such row exists.
  bool remove_one_by_value(const Tuple& values);

  /// Remove one occurrence matching both values and tid (tid-aware variant
  /// used when maintaining complete CQ results). Falls back to value-only
  /// matching when tid is invalid.
  bool remove_one(const Tuple& tuple);

  // ---- multiset comparisons ----

  /// Multiset equality on values (tids ignored). Schemas must be
  /// union-compatible; otherwise returns false.
  [[nodiscard]] bool equal_multiset(const Relation& other) const;

  /// Number of rows whose values equal the given tuple.
  [[nodiscard]] std::size_t count_value(const Tuple& values) const;

  /// Render as an aligned ASCII table (column header + rows).
  [[nodiscard]] std::string to_string(std::size_t max_rows = 50) const;

  /// Total serialized size under the wire cost model.
  [[nodiscard]] std::size_t byte_size() const noexcept;

  /// Deterministically ordered copy of the rows (sorted by values then tid);
  /// handy for tests and stable output.
  [[nodiscard]] std::vector<Tuple> sorted_rows() const;

 private:
  void check_arity(const Tuple& t) const;

  Schema schema_;
  std::vector<Tuple> rows_;
  std::unordered_map<TupleId, std::size_t> by_tid_;
  TupleId::rep next_tid_ = 1;
};

/// The value-keyed weight map: a signed multiset of rows keyed by their
/// field values alone. Tids, weights and lineage never take part in a
/// lookup, and lookups hash the probe row in place (only a new value copies
/// its fields into the map). Serves multiset equality, DiffResult
/// consolidation and equivalence, and DISTINCT multiplicities.
class TupleBag {
 public:
  /// One value's accumulated weight, plus the lineage sets folded into it.
  struct Entry {
    std::ptrdiff_t weight = 0;
    prov::ProvSetPtr prov;
  };

  /// Adds `weight` to t's value; a value whose weight returns to zero is
  /// dropped.
  void add(const Tuple& t, std::ptrdiff_t weight = 1);
  /// t's value's entry, created at weight zero when absent. Entries reached
  /// this way are never dropped, and their addresses stay stable.
  [[nodiscard]] Entry& entry(const Tuple& t);
  [[nodiscard]] std::ptrdiff_t count(const Tuple& t) const;
  /// True when every weight is zero.
  [[nodiscard]] bool all_zero() const;
  /// Visit every (values, weight) pair (unspecified order).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [values, entry] : weights_) fn(values, entry.weight);
  }

 private:
  static const std::vector<Value>& values_of(const std::vector<Value>& v) noexcept {
    return v;
  }
  static const std::vector<Value>& values_of(const Tuple& t) noexcept { return t.values(); }
  struct Hash {
    using is_transparent = void;
    template <typename K>
    std::size_t operator()(const K& k) const noexcept {
      return hash_values(values_of(k));
    }
  };
  struct Eq {
    using is_transparent = void;
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const noexcept {
      return values_of(a) == values_of(b);
    }
  };
  std::unordered_map<std::vector<Value>, Entry, Hash, Eq> weights_;
};

}  // namespace cq::rel
