// Correctness of a run, checked from outside the engine. Every CQ delivers
// into an OracleSink, which folds the initial result E_0 and every ΔQ into
// a multiset of row-value hashes and digests the notification stream. After the timed phase
// each CQ is executed once more (so trigger-suppressed changes are
// delivered too) and its fold is compared against a from-scratch
// qry::evaluate of the same query on the final database.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/database.hpp"
#include "cq/manager.hpp"
#include "relation/relation.hpp"

namespace cqbench {

using namespace cq;  // NOLINT(google-build-using-namespace): benchmark-local

class OracleSink final : public core::ResultSink {
 public:
  void on_result(const core::Notification& note) override;

  /// Order-sensitive digest of the stream: sequence numbers and the
  /// inserted/deleted row values of every ΔQ (timestamps excluded).
  [[nodiscard]] std::uint64_t digest() const noexcept { return digest_; }
  /// Notifications whose sequence number did not follow the previous one.
  [[nodiscard]] std::uint64_t gaps() const noexcept { return gaps_; }
  [[nodiscard]] std::uint64_t notifications() const noexcept { return notifications_; }

  /// Subtract `expected` from the fold; true when nothing is left over.
  /// Consumes the fold (call once, at the end of the run).
  [[nodiscard]] bool matches(const rel::Relation& expected);

 private:
  void fold(const rel::Relation& rows, std::int64_t sign);

  /// Row-value hash -> multiplicity. 64-bit hashes keep the sink O(|ΔQ|)
  /// without copying rows; a collision could only hide a mismatch.
  std::unordered_map<std::uint64_t, std::int64_t> fold_;
  std::uint64_t next_sequence_ = 0;
  std::uint64_t gaps_ = 0;
  std::uint64_t notifications_ = 0;
  std::uint64_t digest_ = 0xcbf29ce484222325ull;
};

struct InstalledCq {
  core::CqHandle handle = 0;
  std::string name;
  qry::SpjQuery query;
  std::shared_ptr<OracleSink> sink;
};

/// Digest of every CQ's stream, combined in install order.
[[nodiscard]] std::uint64_t combined_digest(const std::vector<InstalledCq>& cqs);

/// Force one execution of every CQ, then compare each fold, and the
/// complete or aggregate payload that execution returns, with
/// qry::evaluate on `truth` and check for sequence gaps. Appends one JSON
/// note line describing the outcome; returns true when every CQ agrees.
bool check_oracle(core::CqManager& manager, const std::vector<InstalledCq>& cqs,
                  const cat::Database& truth, std::vector<std::string>& notes);

}  // namespace cqbench
