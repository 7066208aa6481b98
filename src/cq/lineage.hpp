// Notification lineage retention: a bounded per-CQ ring of the base-delta
// derivations behind recent notifications.
//
// When lineage collection is on (rel::prov::enabled(), toggled through
// CqManager::set_lineage), every delta row leaving a DeltaRelation carries
// a ProvId leaf and the DRA operators propagate/union the sets, so each
// output row of a notification arrives here citing exactly the base delta
// rows that caused it. The store keeps the last K notifications per CQ,
// renders them as the /lineage JSON document and as the human-readable
// EXPLAIN NOTIFICATION derivation (base rows → operator path → output
// row), and feeds the lineage_fanin histogram + lineage_bytes gauge.
//
// Thread safety: recording happens at the manager's serialized delivery
// points (CqManager::deliver and install) while the
// introspection HTTP server reads from its own thread — hence the mutex.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "common/histogram.hpp"
#include "common/sync.hpp"
#include "common/timestamp.hpp"
#include "cq/continual_query.hpp"
#include "relation/provenance.hpp"

namespace cq::cat {
class Database;
}  // namespace cq::cat

namespace cq::core {

/// One output row of a notification plus the base deltas that caused it.
struct LineageRow {
  std::string row;      ///< Rendered output tuple, e.g. "(DEC, 150)".
  bool inserted = true; ///< true = entered the result, false = left it.
  rel::prov::ProvSet sources;  ///< Cited base deltas, sorted.
};

/// The retained lineage of one delivered notification.
struct LineageRecord {
  std::uint64_t sequence = 0;     ///< Notification sequence number.
  common::Timestamp at;           ///< Logical delivery instant.
  std::uint64_t trace_id = 0;     ///< Owning commit's trace id; 0 = none.
  std::vector<LineageRow> rows;
  std::size_t bytes = 0;          ///< Approximate heap bytes of this record.
};

class LineageStore {
 public:
  static constexpr std::size_t kDefaultRetention = 8;

  /// Ring depth per CQ; shrinking drops the oldest records immediately.
  void set_retention(std::size_t k);
  [[nodiscard]] std::size_t retention() const;

  /// Retain the lineage of one delivered notification: extracts each delta
  /// row's provenance set, records fan-in into the per-CQ and global
  /// lineage_fanin histograms, updates the lineage_bytes gauge, and emits
  /// a "lineage" journal event. Call only from serialized delivery points.
  void record(const Notification& note, std::uint64_t trace_id);

  /// The newest `n` retained records for `cq`, oldest first.
  [[nodiscard]] std::vector<LineageRecord> tail(const std::string& cq,
                                                std::size_t n) const;

  /// CQ names with retained lineage, sorted.
  [[nodiscard]] std::vector<std::string> cq_names() const;

  /// Total approximate heap bytes across all rings.
  [[nodiscard]] std::size_t bytes() const;

  /// Drop all retained records (retention unchanged).
  void clear();

  /// The /lineage JSON document. With a CQ name: that CQ's newest `n`
  /// records plus its fan-in histogram. With an empty name: an index of
  /// all CQs with retained lineage.
  [[nodiscard]] std::string to_json(const std::string& cq, std::size_t n) const;

  /// Human-readable derivation of the newest `n` notifications of `cq`:
  /// each output row followed by the cited base delta rows, resolved
  /// against `db`'s delta logs (reclaimed rows are flagged as such).
  [[nodiscard]] std::string explain(const cat::Database& db, const std::string& cq,
                                    std::size_t n) const;

 private:
  mutable common::Mutex mu_{"lineage_store", common::lockorder::LockRank::kLineageStore};
  std::size_t retention_ CQ_GUARDED_BY(mu_) = kDefaultRetention;
  std::map<std::string, std::deque<LineageRecord>> rings_ CQ_GUARDED_BY(mu_);
  // Histogram is internally atomic, but the map structure grows on first
  // use per CQ — the node-stable map is guarded like the registry's.
  std::map<std::string, common::obs::Histogram> fanin_ CQ_GUARDED_BY(mu_);
  std::size_t bytes_ CQ_GUARDED_BY(mu_) = 0;
};

}  // namespace cq::core
