// Lightweight counters used by operators, the DRA, and the simulated
// network to account for work done (rows scanned, bytes shipped, ...).
// Benchmarks read these to report the paper's cost quantities directly.
//
// Every counter is pre-interned: metric::Id is an enum indexing a flat
// array, so hot-path `add(metric::kRowsScanned, n)` is one array store —
// no string hashing or map lookup.
//
// Thread safety: a Metrics bag is NOT internally synchronized; one thread
// fills a bag at a time. Parallel CQ evaluation lanes each fill their own
// bag (the manager's per-outcome `local` bag), and the manager merges
// those bags into the shared one under its stats mutex. The trace
// collector — which *is* shared by observability consumers — carries its
// own mutex (see observability.hpp).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>

namespace cq::common {

/// Well-known counter ids, so producers and consumers agree on spelling
/// and the hot paths pay one array index instead of a string lookup.
/// The catalog of names (metric::name) is documented in
/// docs/observability.md.
namespace metric {
enum Id : std::uint16_t {
  kRowsScanned = 0,
  kRowsOutput,
  kTuplesCompared,
  kBytesSent,
  kMessagesSent,
  kDeltaRowsScanned,
  kBaseRowsScanned,
  kQueryExecutions,
  kTriggerChecks,
  kTriggersFired,
  kTriggersSuppressed,
  kGcRuns,
  kGcRowsReclaimed,
  kSyncRounds,
  kSyncFailures,
  kSyncRowsApplied,
  kIndexProbes,
  kDraInvocations,
  kDraTermsEvaluated,
  kDraSkippedIrrelevant,
  kPlansBuilt,
  kRowsAssembled,
  kIdCount  // sentinel; not a counter
};

/// Canonical spelling of a well-known counter ("rows_scanned", ...).
[[nodiscard]] const char* name(Id id) noexcept;

}  // namespace metric

/// A named bag of monotonically increasing counters.
class Metrics {
 public:
  /// Add delta to a well-known counter. O(1), no allocation.
  void add(metric::Id id, std::int64_t delta = 1) noexcept {
    wellknown_[static_cast<std::size_t>(id)] += delta;
  }

  /// Current value of a well-known counter.
  [[nodiscard]] std::int64_t get(metric::Id id) const noexcept {
    return wellknown_[static_cast<std::size_t>(id)];
  }

  /// All non-zero counters in name order.
  [[nodiscard]] std::map<std::string, std::int64_t> all() const;

  /// Fold every counter of `other` into this bag.
  void merge(const Metrics& other);

  /// Reset every counter to zero.
  void reset() noexcept { wellknown_.fill(0); }

  /// Human-readable dump: one `name=value` line per non-zero counter,
  /// sorted by name — deterministic across runs for scripted consumers
  /// (cqshell STATS, golden tests).
  [[nodiscard]] std::string to_string() const;

 private:
  std::array<std::int64_t, metric::kIdCount> wellknown_{};
};

}  // namespace cq::common
