#include "common/metrics.hpp"

#include <sstream>

namespace cq::common {

namespace metric {

const char* name(Id id) noexcept {
  switch (id) {
    case kRowsScanned: return "rows_scanned";
    case kRowsOutput: return "rows_output";
    case kTuplesCompared: return "tuples_compared";
    case kBytesSent: return "bytes_sent";
    case kMessagesSent: return "messages_sent";
    case kDeltaRowsScanned: return "delta_rows_scanned";
    case kBaseRowsScanned: return "base_rows_scanned";
    case kQueryExecutions: return "query_executions";
    case kTriggerChecks: return "trigger_checks";
    case kTriggersFired: return "triggers_fired";
    case kTriggersSuppressed: return "triggers_suppressed";
    case kGcRuns: return "gc_runs";
    case kGcRowsReclaimed: return "gc_rows_reclaimed";
    case kSyncRounds: return "sync_rounds";
    case kSyncFailures: return "sync_failures";
    case kSyncRowsApplied: return "sync_rows_applied";
    case kIndexProbes: return "index_probes";
    case kDraInvocations: return "dra_invocations";
    case kDraTermsEvaluated: return "dra_terms_evaluated";
    case kDraSkippedIrrelevant: return "dra_skipped_irrelevant";
    case kPlansBuilt: return "plans_built";
    case kRowsAssembled: return "rows_assembled";
    case kIdCount: break;
  }
  return "?";
}

}  // namespace metric

std::map<std::string, std::int64_t> Metrics::all() const {
  std::map<std::string, std::int64_t> out;
  for (std::uint16_t i = 0; i < metric::kIdCount; ++i) {
    const auto id = static_cast<metric::Id>(i);
    if (wellknown_[i] != 0) out[metric::name(id)] = wellknown_[i];
  }
  return out;
}

void Metrics::merge(const Metrics& other) {
  for (std::size_t i = 0; i < wellknown_.size(); ++i) wellknown_[i] += other.wellknown_[i];
}

std::string Metrics::to_string() const {
  std::ostringstream os;
  for (const auto& [name, value] : all()) os << name << "=" << value << "\n";
  return os.str();
}

}  // namespace cq::common
