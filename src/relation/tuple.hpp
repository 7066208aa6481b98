// Tuples: a vector of values plus a tuple identifier (tid).
//
// The paper's differential relations are keyed by tid (Section 4.1 Example 1
// shows tids such as 101088); tids survive modification, so a delta row can
// pair the old and new versions of the same logical tuple.
//
// Inside the DRA a tuple also carries an integer weight (default +1): a
// delta binds its insertions at +1 and its deletions at −1, joins multiply
// weights and each truth-table term multiplies in its sign, so one relation
// holds a signed multiset (a Z-set) and ΔQ is its consolidation
// (cq/diff.hpp). Consolidation resets survivors to +1; rows outside the DRA
// always weigh +1.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "relation/provenance.hpp"
#include "relation/value.hpp"

namespace cq::rel {

/// Identifier of a logical tuple within one relation. Stable across
/// modifications; never reused after deletion within a single Database.
class TupleId {
 public:
  using rep = std::uint64_t;

  constexpr TupleId() noexcept = default;
  constexpr explicit TupleId(rep id) noexcept : id_(id) {}

  [[nodiscard]] static constexpr TupleId invalid() noexcept { return TupleId(0); }
  [[nodiscard]] constexpr bool valid() const noexcept { return id_ != 0; }
  [[nodiscard]] constexpr rep raw() const noexcept { return id_; }

  constexpr auto operator<=>(const TupleId&) const noexcept = default;

  [[nodiscard]] std::string to_string() const { return std::to_string(id_); }

 private:
  rep id_ = 0;
};

/// An immutable-by-convention row. Value count must match the schema of the
/// relation that holds it (enforced by Relation, not by Tuple).
class Tuple {
 public:
  Tuple() = default;
  explicit Tuple(std::vector<Value> values, TupleId tid = TupleId::invalid())
      : values_(std::move(values)), tid_(tid) {}
  Tuple(std::initializer_list<Value> values) : values_(values) {}

  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }
  [[nodiscard]] const Value& at(std::size_t i) const;
  [[nodiscard]] const std::vector<Value>& values() const noexcept { return values_; }
  [[nodiscard]] std::vector<Value>& mutable_values() noexcept { return values_; }

  [[nodiscard]] TupleId tid() const noexcept { return tid_; }
  void set_tid(TupleId tid) noexcept { tid_ = tid; }

  /// Base-delta lineage set; null unless prov::enabled() when the row was
  /// minted. Never participates in same_values/value_hash/byte_size — two
  /// rows with equal fields are the same value regardless of derivation.
  [[nodiscard]] const prov::ProvSetPtr& prov() const noexcept { return prov_; }
  void set_prov(prov::ProvSetPtr set) noexcept { prov_ = std::move(set); }

  /// Signed multiplicity inside the DRA (+1 outside it). Never participates
  /// in same_values/value_hash/byte_size, printing, the wire format or
  /// snapshots.
  [[nodiscard]] std::int64_t weight() const noexcept { return weight_; }
  void set_weight(std::int64_t weight) noexcept { weight_ = weight; }

  /// Value equality over the fields only (tids are identity, not value).
  [[nodiscard]] bool same_values(const Tuple& other) const noexcept;

  /// Hash of the field values only.
  [[nodiscard]] std::size_t value_hash() const noexcept;

  /// Concatenation (for join outputs). The result carries an invalid tid,
  /// the product of both sides' weights and the union of their lineage sets.
  [[nodiscard]] Tuple concat(const Tuple& other) const;

  /// Projection onto the given column indexes; weight and lineage pass
  /// through.
  [[nodiscard]] Tuple project(const std::vector<std::size_t>& indexes) const;

  /// Total serialized size in bytes under the wire cost model.
  [[nodiscard]] std::size_t byte_size() const noexcept;

  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<Value> values_;
  TupleId tid_;
  std::int64_t weight_ = 1;
  prov::ProvSetPtr prov_;
};

/// Hash of a row's field values; Tuple::value_hash() of a row with these
/// values.
[[nodiscard]] std::size_t hash_values(const std::vector<Value>& values) noexcept;

}  // namespace cq::rel

template <>
struct std::hash<cq::rel::TupleId> {
  std::size_t operator()(const cq::rel::TupleId& t) const noexcept {
    return std::hash<cq::rel::TupleId::rep>{}(t.raw());
  }
};
