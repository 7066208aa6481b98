#include "diom/source.hpp"

#include "common/error.hpp"

namespace cq::diom {

RelationalSource::RelationalSource(std::string name, const cat::Database& db,
                                   std::string table)
    : name_(std::move(name)), db_(&db), table_(std::move(table)) {
  if (!db.has_table(table_)) {
    throw common::NotFound("RelationalSource: no table '" + table_ + "'");
  }
}

const rel::Schema& RelationalSource::schema() const {
  return db_->table(table_).schema();
}

rel::Relation RelationalSource::snapshot() const { return db_->table(table_); }

std::vector<delta::DeltaRow> RelationalSource::pull_deltas(
    common::Timestamp since) const {
  const delta::DeltaSnapshot snap(db_->delta(table_));
  return snap.net_effect(since);
}

common::Timestamp RelationalSource::now() const { return db_->clock().now(); }

}  // namespace cq::diom
