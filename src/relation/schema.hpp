// Relation schemas: ordered, typed, named attributes, with the schema
// algebra the differential machinery needs — concatenation for joins,
// projection, renaming with qualifiers, and the old/new "doubling" that
// turns a base schema into its differential-relation schema (Section 4.1).
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "relation/value.hpp"

namespace cq::rel {

/// One column: a name and a type. Names are case-sensitive identifiers;
/// a qualified name looks like "Stocks.price".
struct Attribute {
  std::string name;
  ValueType type = ValueType::kNull;

  bool operator==(const Attribute&) const = default;
};

/// An ordered list of attributes with O(1) name lookup.
///
/// A schema is an immutable value: the attributes and both lookup maps
/// live in one shared, const representation built by the constructor, so
/// copying a schema (and with it making or copying a relation) is a
/// reference-count increment, and concurrent readers of one schema share
/// it without a lock. A default-constructed or moved-from schema is the
/// empty schema.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Attribute> attributes);

  /// Convenience builder: Schema::of({{"name", kString}, {"price", kInt}}).
  [[nodiscard]] static Schema of(std::initializer_list<Attribute> attributes);

  [[nodiscard]] std::size_t size() const noexcept { return attributes().size(); }
  [[nodiscard]] bool empty() const noexcept { return attributes().empty(); }
  [[nodiscard]] const Attribute& at(std::size_t i) const;
  [[nodiscard]] const std::vector<Attribute>& attributes() const noexcept {
    return rep_ ? rep_->attributes : kNoAttributes;
  }

  /// True when both schemas share one representation (one is a copy of
  /// the other). Shared schemas are equal; equal ones need not share.
  [[nodiscard]] bool shares(const Schema& other) const noexcept {
    return rep_ == other.rep_;
  }

  /// Index of the attribute with this name. Accepts either the exact stored
  /// name or, when the stored names are qualified ("S.price"), the bare
  /// suffix ("price") if it is unambiguous. Returns nullopt when absent.
  [[nodiscard]] std::optional<std::size_t> find(const std::string& name) const;

  /// Like find() but throws NotFound with a helpful message.
  [[nodiscard]] std::size_t index_of(const std::string& name) const;

  [[nodiscard]] bool contains(const std::string& name) const { return find(name).has_value(); }

  /// Schema for R ⋈ S results: attributes of *this followed by other's.
  /// Throws SchemaMismatch on duplicate resulting names.
  [[nodiscard]] Schema concat(const Schema& other) const;

  /// Schema with only the named attributes, in the given order.
  [[nodiscard]] Schema project(const std::vector<std::string>& names) const;

  /// Schema with every attribute name prefixed "qualifier.", replacing any
  /// existing qualifier (so re-aliasing a table works).
  [[nodiscard]] Schema qualified(const std::string& qualifier) const;

  /// Schema with all qualifiers stripped ("S.price" -> "price").
  [[nodiscard]] Schema unqualified() const;

  /// Differential-relation schema per Section 4.1: every attribute A becomes
  /// A_old and A_new (same type), in old-half-then-new-half order. The tid
  /// and ts columns are handled by DeltaRelation itself, not the schema.
  [[nodiscard]] Schema doubled() const;

  /// Two schemas are union-compatible when sizes and types match positionally
  /// (names may differ). Required by union/difference (Section 4.2 Diff).
  [[nodiscard]] bool union_compatible(const Schema& other) const noexcept;

  bool operator==(const Schema& other) const {
    return shares(other) || attributes() == other.attributes();
  }

  [[nodiscard]] std::string to_string() const;

 private:
  struct Rep {
    std::vector<Attribute> attributes;
    std::unordered_map<std::string, std::size_t> by_name;
    // bare suffix -> index, or kAmbiguous
    std::unordered_map<std::string, std::size_t> by_suffix;
  };
  static constexpr std::size_t kAmbiguous = static_cast<std::size_t>(-1);
  static const std::vector<Attribute> kNoAttributes;

  /// Null for the empty schema.
  std::shared_ptr<const Rep> rep_;
};

/// Strip a "qualifier." prefix if present.
[[nodiscard]] std::string bare_name(const std::string& name);

}  // namespace cq::rel
