// Epsilon views: divergence-controlled cached query answering, the
// Epsilon-Serializability side of the paper (Section 3.2). An epsilon
// query "could contain errors up to [the epsilon specification] and still
// return a meaningful result" — so a cached materialization may be served
// as long as its divergence from the live database stays within the
// ε-spec, and is refreshed *differentially* the moment it would not.
//
// Divergence is measured from the differential relations only (never by
// recomputing): the number of relevant pending changes, and — for
// SUM-style aggregates — the absolute pending drift of a monitored column.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "catalog/database.hpp"
#include "cq/continual_query.hpp"

namespace cq::core {

class EpsilonView {
 public:
  struct Spec {
    /// Serve the cached result while at most this many relevant tuple
    /// changes are pending. 0 = refresh whenever anything relevant changed.
    std::size_t max_relevant_changes = 0;

    /// Additionally bound |Σ new − Σ old| of `drift_column` on
    /// `drift_table`'s pending deltas (the checking-account ε-spec).
    /// Unset = no aggregate bound.
    std::optional<double> max_drift;
    std::string drift_table;
    std::string drift_column;
  };

  /// Result of one read.
  struct Answer {
    /// The served relation: the complete result for plain queries, the
    /// maintained aggregate for aggregate queries.
    rel::Relation result;
    /// Relevant pending changes NOT reflected in `result` (0 after refresh).
    std::size_t divergence = 0;
    /// Pending aggregate drift not reflected (0 when unbounded/refreshed).
    double drift = 0.0;
    bool refreshed = false;
  };

  /// Materializes the view immediately (one complete evaluation).
  EpsilonView(std::string name, const std::string& sql, cat::Database& db, Spec spec);

  /// Serve the view: cached if within the ε-spec, freshly (differentially)
  /// refreshed otherwise.
  [[nodiscard]] Answer read();

  /// Force a refresh regardless of divergence.
  void refresh();

  [[nodiscard]] const Spec& spec() const noexcept { return spec_; }
  [[nodiscard]] std::uint64_t refreshes() const noexcept { return cq_.executions() - 1; }

 private:
  [[nodiscard]] double pending_drift() const;
  [[nodiscard]] static std::shared_ptr<const rel::Relation> current_result(
      const Notification& n);

  cat::Database& db_;
  Spec spec_;
  ContinualQuery cq_;
  /// The latest delivered payload, shared with the CQ (copy-on-write).
  std::shared_ptr<const rel::Relation> cached_;
};

}  // namespace cq::core
