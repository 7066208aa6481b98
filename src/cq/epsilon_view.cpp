#include "cq/epsilon_view.hpp"

#include <cmath>

#include "common/error.hpp"

namespace cq::core {

namespace {
CqSpec view_spec(std::string name, const std::string& sql) {
  CqSpec spec = CqSpec::from_sql(std::move(name), sql, triggers::manual(), nullptr,
                                 DeliveryMode::kComplete);
  return spec;
}
}  // namespace

EpsilonView::EpsilonView(std::string name, const std::string& sql, cat::Database& db,
                         Spec spec)
    : db_(db), spec_(std::move(spec)), cq_(view_spec(std::move(name), sql), db) {
  if (spec_.max_drift && (spec_.drift_table.empty() || spec_.drift_column.empty())) {
    throw common::InvalidArgument(
        "EpsilonView: max_drift needs drift_table and drift_column");
  }
  if (spec_.max_drift && *spec_.max_drift < 0) {
    throw common::InvalidArgument("EpsilonView: max_drift must be non-negative");
  }
  const Notification initial = cq_.execute_initial(db_);
  cached_ = current_result(initial);
}

rel::Relation EpsilonView::current_result(const Notification& n) const {
  if (n.aggregate) return *n.aggregate;
  CQ_ASSERT(n.complete.has_value());
  return *n.complete;
}

double EpsilonView::pending_drift() const {
  if (!spec_.max_drift) return 0.0;
  return sum_drift(delta::DeltaSnapshot(db_.delta(spec_.drift_table)), cq_.last_execution(),
                   spec_.drift_column);
}

void EpsilonView::refresh() {
  const Notification n = cq_.execute(db_);
  cached_ = current_result(n);
}

EpsilonView::Answer EpsilonView::read() {
  const ContinualQuery::Staleness staleness = cq_.staleness(db_);
  const double drift = pending_drift();
  const bool within_count = staleness.relevant_changes <= spec_.max_relevant_changes;
  const bool within_drift = !spec_.max_drift || std::fabs(drift) <= *spec_.max_drift;

  Answer answer;
  if (within_count && within_drift) {
    answer.result = cached_;
    answer.divergence = staleness.relevant_changes;
    answer.drift = drift;
    answer.refreshed = false;
    return answer;
  }
  refresh();
  answer.result = cached_;
  answer.divergence = 0;
  answer.drift = 0.0;
  answer.refreshed = true;
  return answer;
}

}  // namespace cq::core
