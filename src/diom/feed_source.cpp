#include "diom/feed_source.hpp"

namespace cq::diom {

FeedSource::FeedSource(std::string name, rel::Schema schema,
                       std::shared_ptr<common::Clock> clock)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      clock_(clock ? std::move(clock) : std::make_shared<common::VirtualClock>()),
      contents_(rel::Relation::keyed_table(schema_)),
      log_(schema_) {}

rel::TupleId FeedSource::publish(std::vector<rel::Value> values) {
  const rel::TupleId tid = contents_.insert_values(values);
  log_.record_insert(tid, std::move(values), clock_->tick());
  return tid;
}

std::vector<delta::DeltaRow> FeedSource::pull_deltas(common::Timestamp since) const {
  const delta::DeltaSnapshot snap(log_);
  return snap.net_effect(since);
}

}  // namespace cq::diom
