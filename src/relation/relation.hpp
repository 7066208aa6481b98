// In-memory relations. A Relation serves two roles:
//   * keyed table (a catalog base table, keyed by Database when the table is
//     created or restored): rows carry valid, unique tids, and a TidSlots
//     table maps each tid to its row, so find/contains/erase/update cost
//     O(1) without hashing. insert/insert_values/erase/update require a
//     keyed table; keyed_table() creates one, key_by_tid() keys rows
//     already appended;
//   * derived relation (query outputs, DRA intermediates, saved CQ
//     results): rows may be tid-less and duplicated, with multiset
//     semantics for equality and difference (Section 4.2 Diff). append()
//     only stores the row. The one tid-keyed operation a derived relation
//     needs, remove_one() on a saved complete result, builds a tid → row
//     hash index on its first call and extends it over later appends from
//     then on. find()/contains() on a derived relation scan its rows.
// No const member builds or changes an index, so concurrent readers of one
// table (e.g. evaluation lanes probing it) never race.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "relation/schema.hpp"
#include "relation/tuple.hpp"

namespace cq::rel {

/// A keyed table's tid → row map: value row index + 1, 0 when absent. Tids
/// are grouped into pages of kPageSize slots; a page is allocated when its
/// first slot is set and freed when its last one clears, so memory follows
/// the pages that hold live rows, not the tids ever issued. Pages below
/// kDensePages sit in a directory indexed by page number (one array index
/// per lookup); pages beyond it in a hash map, so any 64-bit tid is
/// accepted.
class TidSlots {
 public:
  TidSlots() = default;
  TidSlots(const TidSlots& other);
  TidSlots& operator=(const TidSlots& other);
  TidSlots(TidSlots&&) noexcept = default;
  TidSlots& operator=(TidSlots&&) noexcept = default;

  [[nodiscard]] std::uint32_t get(TupleId tid) const noexcept {
    const Page* page = find_page(tid.raw() >> kPageBits);
    return page == nullptr ? 0 : page->slots[tid.raw() & (kPageSize - 1)];
  }
  void set(TupleId tid, std::uint32_t value);
  void clear() noexcept;
  /// Pages currently allocated (kPageSize * 4 bytes each).
  [[nodiscard]] std::size_t pages() const noexcept { return pages_; }

  static constexpr unsigned kPageBits = 12;
  static constexpr std::size_t kPageSize = std::size_t{1} << kPageBits;
  /// Pages of tids below 2^30 are directly indexed: the directory costs 8
  /// bytes per page number up to the highest one used, at most 2 MiB.
  static constexpr std::uint64_t kDensePages = std::uint64_t{1} << 18;

 private:
  struct Page {
    std::uint32_t live = 0;  // non-zero slots
    std::array<std::uint32_t, kPageSize> slots{};
  };
  [[nodiscard]] const Page* find_page(std::uint64_t p) const noexcept {
    if (p < dense_.size()) return dense_[p].get();
    if (p < kDensePages || sparse_.empty()) return nullptr;
    auto it = sparse_.find(p);
    return it == sparse_.end() ? nullptr : it->second.get();
  }

  std::vector<std::unique_ptr<Page>> dense_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Page>> sparse_;
  /// The last freed page (all zero), reused by the next allocation so a
  /// table whose newest page empties and refills does not churn the heap.
  std::unique_ptr<Page> spare_;
  std::size_t pages_ = 0;
};

class Relation {
 public:
  Relation() = default;
  explicit Relation(Schema schema) : schema_(std::move(schema)) {}
  /// A derived relation holding `rows` as given.
  Relation(Schema schema, std::vector<Tuple> rows);
  /// An empty keyed table.
  [[nodiscard]] static Relation keyed_table(Schema schema) {
    Relation r(std::move(schema));
    r.key_by_tid();
    return r;
  }

  [[nodiscard]] const Schema& schema() const noexcept { return schema_; }
  [[nodiscard]] std::size_t size() const noexcept { return rows_.size(); }
  [[nodiscard]] bool empty() const noexcept { return rows_.empty(); }
  [[nodiscard]] const std::vector<Tuple>& rows() const noexcept { return rows_; }
  [[nodiscard]] const Tuple& row(std::size_t i) const;

  /// Mutable row access for in-place annotation (e.g. lineage attachment).
  /// Callers must not change values or tids, nor reorder or remove rows,
  /// through this — the tid indexes assume rows stay where they were put.
  [[nodiscard]] std::vector<Tuple>& mutable_rows() noexcept { return rows_; }

  /// Replace the schema qualifier view without touching rows. Used by the
  /// planner when a table is aliased (FROM Stocks AS s).
  void set_schema(Schema schema);

  // ---- keyed-table mutations (tid-keyed) ----

  /// Make this a keyed table: index every row's tid in the slot table.
  /// Tid-less rows stay unindexed. Throws InvalidArgument on a duplicate
  /// tid. Database creates each table keyed and keys it again when it is
  /// restored (decoded rows arrive through append). A keyed table holds
  /// fewer than 2^32 - 1 rows.
  void key_by_tid();
  [[nodiscard]] bool keyed() const noexcept { return keyed_; }
  /// Keyed: slot pages currently allocated (see TidSlots).
  [[nodiscard]] std::size_t slot_pages() const noexcept { return slots_.pages(); }

  /// Keyed: insert a row with a caller-chosen tid (must be valid and fresh).
  void insert(Tuple tuple);

  /// Keyed: insert values, assigning the next tid from this relation's
  /// counter.
  TupleId insert_values(std::vector<Value> values);

  /// Claim the next tid without inserting: one above every tid this
  /// relation has held or handed out. (Transactions reserve tids at
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

  /// Keyed: remove the row with this tid (swap-remove: the last row takes
  /// its place). Returns the removed tuple; throws NotFound when absent.
  Tuple erase(TupleId tid);

  /// Keyed: replace the values of the row with this tid in place. Returns
  /// the old tuple; throws NotFound when absent.
  Tuple update(TupleId tid, std::vector<Value> values);

  /// Slot lookup on a keyed table; a scan on a derived one.
  [[nodiscard]] bool contains(TupleId tid) const noexcept { return find(tid) != nullptr; }
  [[nodiscard]] const Tuple* find(TupleId tid) const noexcept;

  // ---- derived-result mutations (multiset) ----

  /// Append a row (duplicates allowed). On a derived relation this only
  /// stores it; on a keyed table a fresh tid also gets its slot.
  void append(Tuple tuple);

  /// Position-addressed edits of a derived relation that keeps no tid
  /// index, for payloads held in a fixed row order (an aggregate CQ's
  /// groups, in group-key order): replace row `pos`, insert before row
  /// `pos` (`pos == size()` appends), or erase row `pos`. Every other row
  /// keeps its relative order. Throw InvalidArgument on a keyed table, on
  /// one whose tid index remove_one built, or when `pos` is out of range.
  void replace_at(std::size_t pos, Tuple tuple);
  void insert_at(std::size_t pos, Tuple tuple);
  void erase_at(std::size_t pos);

  /// Remove one occurrence of a row with exactly these values (any tid).
  /// Returns false when no such row exists.
  bool remove_one_by_value(const Tuple& values);

  /// Remove one occurrence matching both values and tid (tid-aware variant
  /// used when maintaining complete CQ results): the row indexed under
  /// `tuple`'s tid, else the first row with its values. On a derived
  /// relation the first call builds the tid index.
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
  /// Throws InvalidArgument unless this is a keyed table.
  void require_keyed(const char* op) const;
  /// Throws InvalidArgument unless this relation keeps no tid index and
  /// `pos` < `limit`.
  void require_positional(const char* op, std::size_t pos, std::size_t limit) const;
  /// Keyed: point `tid`'s slot at row `row`.
  void set_slot(TupleId tid, std::size_t row);
  /// The row index `tid` is indexed at (in whichever index this relation
  /// keeps), or nullopt.
  [[nodiscard]] std::optional<std::size_t> indexed_row(TupleId tid) const noexcept;
  /// Point `tid`'s index entry at `row`, or drop it (nullopt). A no-op
  /// while the relation keeps no index.
  void reindex(TupleId tid, std::optional<std::size_t> row);
  /// Derived with an index: index the rows appended since the last call,
  /// each tid at its first occurrence.
  void sync_tid_index();
  /// Swap-remove row `idx` and return it: an index entry pointing at it is
  /// dropped, and the last row takes its place (an entry pointing at that
  /// row follows it).
  Tuple remove_at(std::size_t idx);

  Schema schema_;
  std::vector<Tuple> rows_;
  bool keyed_ = false;
  TidSlots slots_;  // keyed: tid → row index + 1
  /// Derived: the tid index once remove_one has built it, covering
  /// rows_[0, tid_indexed_).
  std::optional<std::unordered_map<TupleId, std::size_t>> by_tid_;
  std::size_t tid_indexed_ = 0;
  TupleId::rep next_tid_ = 1;
};

/// The value-keyed weight map: a signed multiset of rows keyed by their
/// field values alone. Tids, weights and lineage never take part in a
/// lookup, and lookups hash the probe row in place (only a new value copies
/// its fields into the map). Serves multiset equality, DiffResult
/// consolidation and equivalence, and alg::distinct.
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
