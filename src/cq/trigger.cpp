#include "cq/trigger.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.hpp"

namespace cq::core {

void snapshot_deltas(const cat::Database& db, const std::vector<std::string>& tables,
                     delta::SnapshotMap& snapshots) {
  for (const auto& table : tables) {
    if (!snapshots.contains(table)) {
      snapshots.emplace(table, std::make_shared<delta::DeltaSnapshot>(db.delta(table)));
    }
  }
}

delta::SnapshotMap snapshot_deltas(const cat::Database& db,
                                   const std::vector<std::string>& tables) {
  delta::SnapshotMap snapshots;
  snapshot_deltas(db, tables, snapshots);
  return snapshots;
}

double sum_drift(const delta::DeltaSnapshot& snapshot, common::Timestamp since,
                 const std::string& column) {
  if (!snapshot.changed_since(since)) return 0.0;
  const std::size_t col = snapshot.base_schema().index_of(column);
  double drift = 0.0;
  for (const auto& row : snapshot.net_effect(since)) {
    if (row.new_values && !(*row.new_values)[col].is_null()) {
      drift += (*row.new_values)[col].numeric();
    }
    if (row.old_values && !(*row.old_values)[col].is_null()) {
      drift -= (*row.old_values)[col].numeric();
    }
  }
  return drift;
}

}  // namespace cq::core

namespace cq::core::triggers {

using common::Duration;
using common::Timestamp;

namespace {

class PeriodicTrigger final : public Trigger {
 public:
  explicit PeriodicTrigger(Duration interval) : interval_(interval) {
    if (interval.ticks() <= 0) {
      throw common::InvalidArgument("periodic trigger needs a positive interval");
    }
  }

  bool should_fire(const TriggerContext& context) const override {
    return context.now >= context.last_execution + interval_;
  }

  std::string describe() const override {
    return "every " + std::to_string(interval_.ticks()) + " ticks";
  }

 private:
  Duration interval_;
};

class AtTimesTrigger final : public Trigger {
 public:
  explicit AtTimesTrigger(std::vector<Timestamp> times) : times_(std::move(times)) {
    std::sort(times_.begin(), times_.end());
  }

  bool should_fire(const TriggerContext& context) const override {
    // Fire if some scheduled instant falls in (last_execution, now].
    auto it = std::upper_bound(times_.begin(), times_.end(), context.last_execution);
    return it != times_.end() && *it <= context.now;
  }

  std::string describe() const override {
    return "at " + std::to_string(times_.size()) + " scheduled instants";
  }

 private:
  std::vector<Timestamp> times_;
};

class OnChangeTrigger final : public Trigger {
 public:
  bool should_fire(const TriggerContext& context) const override {
    for (const auto& table : context.relations) {
      if (context.snapshot(table).changed_since(context.last_execution)) return true;
    }
    return false;
  }

  std::string describe() const override { return "on any change"; }
};

class ChangeCountTrigger final : public Trigger {
 public:
  explicit ChangeCountTrigger(std::size_t threshold) : threshold_(threshold) {
    if (threshold == 0) {
      throw common::InvalidArgument("change_count trigger needs a positive threshold");
    }
  }

  bool should_fire(const TriggerContext& context) const override {
    std::size_t total = 0;
    for (const auto& table : context.relations) {
      const delta::DeltaSnapshot& snap = context.snapshot(table);
      total += snap.net_effect(context.last_execution).size();
      if (total >= threshold_) return true;
    }
    return false;
  }

  std::string describe() const override {
    return "when >= " + std::to_string(threshold_) + " tuples changed";
  }

 private:
  std::size_t threshold_;
};

class AggregateDriftTrigger final : public Trigger {
 public:
  AggregateDriftTrigger(std::string table, std::string column, double epsilon)
      : table_(std::move(table)), column_(std::move(column)), epsilon_(epsilon) {
    if (epsilon <= 0) {
      throw common::InvalidArgument("aggregate_drift trigger needs a positive epsilon");
    }
  }

  bool should_fire(const TriggerContext& context) const override {
    // Differential form (Section 5.3): scan only ΔR with ts > t_last.
    return std::fabs(sum_drift(context.snapshot(table_), context.last_execution,
                               column_)) >= epsilon_;
  }

  std::string describe() const override {
    std::ostringstream os;
    os << "when |Δ SUM(" << table_ << "." << column_ << ")| >= " << epsilon_;
    return os.str();
  }

  std::vector<std::string> tables() const override { return {table_}; }

 private:
  std::string table_;
  std::string column_;
  double epsilon_;
};

class CompositeTrigger final : public Trigger {
 public:
  CompositeTrigger(std::vector<TriggerPtr> children, bool conjunction)
      : children_(std::move(children)), conjunction_(conjunction) {
    if (children_.empty()) {
      throw common::InvalidArgument("composite trigger needs at least one child");
    }
    for (const auto& c : children_) {
      if (!c) throw common::InvalidArgument("composite trigger: null child");
    }
  }

  bool should_fire(const TriggerContext& context) const override {
    if (conjunction_) {
      for (const auto& c : children_) {
        if (!c->should_fire(context)) return false;
      }
      return true;
    }
    for (const auto& c : children_) {
      if (c->should_fire(context)) return true;
    }
    return false;
  }

  std::string describe() const override {
    std::ostringstream os;
    os << "(";
    for (std::size_t i = 0; i < children_.size(); ++i) {
      if (i > 0) os << (conjunction_ ? " AND " : " OR ");
      os << children_[i]->describe();
    }
    os << ")";
    return os.str();
  }

  std::vector<std::string> tables() const override {
    std::vector<std::string> out;
    for (const auto& c : children_) {
      const std::vector<std::string> child = c->tables();
      out.insert(out.end(), child.begin(), child.end());
    }
    return out;
  }

 private:
  std::vector<TriggerPtr> children_;
  bool conjunction_;
};

class ManualTrigger final : public Trigger {
 public:
  bool should_fire(const TriggerContext&) const override { return false; }
  std::string describe() const override { return "manual"; }
};

}  // namespace

TriggerPtr periodic(Duration interval) {
  return std::make_shared<PeriodicTrigger>(interval);
}

TriggerPtr at_times(std::vector<Timestamp> times) {
  return std::make_shared<AtTimesTrigger>(std::move(times));
}

TriggerPtr on_change() { return std::make_shared<OnChangeTrigger>(); }

TriggerPtr change_count(std::size_t threshold) {
  return std::make_shared<ChangeCountTrigger>(threshold);
}

TriggerPtr aggregate_drift(std::string table, std::string column, double epsilon) {
  return std::make_shared<AggregateDriftTrigger>(std::move(table), std::move(column),
                                                 epsilon);
}

TriggerPtr all_of(std::vector<TriggerPtr> triggers) {
  return std::make_shared<CompositeTrigger>(std::move(triggers), /*conjunction=*/true);
}

TriggerPtr any_of(std::vector<TriggerPtr> triggers) {
  return std::make_shared<CompositeTrigger>(std::move(triggers), /*conjunction=*/false);
}

TriggerPtr manual() { return std::make_shared<ManualTrigger>(); }

}  // namespace cq::core::triggers
