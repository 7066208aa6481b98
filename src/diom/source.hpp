// Information sources (Sections 1, 5.5): heterogeneous producers whose
// updates reach the DRA as differential relations. Relational sources
// produce deltas natively; non-relational sources (file stores, append-only
// feeds) go through simple translators "as part of the DIOM services".
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "catalog/database.hpp"
#include "common/timestamp.hpp"
#include "delta/delta_snapshot.hpp"
#include "relation/relation.hpp"

namespace cq::diom {

/// One autonomous information producer.
class InformationSource {
 public:
  virtual ~InformationSource() = default;

  [[nodiscard]] virtual const std::string& name() const noexcept = 0;

  /// Relational schema of the records this source exports.
  [[nodiscard]] virtual const rel::Schema& schema() const = 0;

  /// Full snapshot of the current contents (used for a client's initial
  /// load — analogous to the CQ's initial complete execution).
  [[nodiscard]] virtual rel::Relation snapshot() const = 0;

  /// All changes with ts > since, as differential rows in ts order. This is
  /// the only thing a source must be able to produce incrementally.
  [[nodiscard]] virtual std::vector<delta::DeltaRow> pull_deltas(
      common::Timestamp since) const = 0;

  /// The source's current logical time (drives incremental pulls).
  [[nodiscard]] virtual common::Timestamp now() const = 0;
};

/// A source backed by one table of a relational Database — delta
/// generation is "quite straightforward" (Section 5.5): it reads the
/// table's differential relation through a delta::DeltaSnapshot.
class RelationalSource final : public InformationSource {
 public:
  /// The database must outlive the source.
  RelationalSource(std::string name, const cat::Database& db, std::string table);

  [[nodiscard]] const std::string& name() const noexcept override { return name_; }
  [[nodiscard]] const rel::Schema& schema() const override;
  [[nodiscard]] rel::Relation snapshot() const override;
  [[nodiscard]] std::vector<delta::DeltaRow> pull_deltas(
      common::Timestamp since) const override;
  [[nodiscard]] common::Timestamp now() const override;

 private:
  std::string name_;
  const cat::Database* db_;
  std::string table_;
};

}  // namespace cq::diom
