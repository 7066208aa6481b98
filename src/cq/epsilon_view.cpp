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
  if (spec_.max_drift) {
    if (*spec_.max_drift < 0) {
      throw common::InvalidArgument("EpsilonView: max_drift must be non-negative");
    }
    if (!db_.has_table(spec_.drift_table)) {
      throw common::InvalidArgument("EpsilonView: max_drift needs an existing drift_table, "
                                    "not '" + spec_.drift_table + "'");
    }
    const rel::Schema& schema = db_.table(spec_.drift_table).schema();
    const auto col = schema.find(spec_.drift_column);
    if (!col || (schema.at(*col).type != rel::ValueType::kInt &&
                 schema.at(*col).type != rel::ValueType::kDouble)) {
      throw common::InvalidArgument("EpsilonView: drift_column '" + spec_.drift_column +
                                    "' is not a numeric column of '" +
                                    spec_.drift_table + "'");
    }
  }
  const Notification initial = cq_.execute_initial(db_);
  cached_ = current_result(initial);
}

std::shared_ptr<const rel::Relation> EpsilonView::current_result(const Notification& n) {
  if (n.aggregate) return n.aggregate;
  CQ_ASSERT(n.complete != nullptr);
  return n.complete;
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
    answer.result = *cached_;
    answer.divergence = staleness.relevant_changes;
    answer.drift = drift;
    answer.refreshed = false;
    return answer;
  }
  refresh();
  answer.result = *cached_;
  answer.divergence = 0;
  answer.drift = 0.0;
  answer.refreshed = true;
  return answer;
}

}  // namespace cq::core
