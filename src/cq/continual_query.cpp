#include "cq/continual_query.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "algebra/ops.hpp"
#include "algebra/predicate.hpp"
#include "common/error.hpp"
#include "cq/propagate.hpp"
#include "query/parser.hpp"
#include "query/evaluate.hpp"

namespace cq::core {

using common::Timestamp;
using rel::Relation;

const char* to_string(DeliveryMode mode) noexcept {
  switch (mode) {
    case DeliveryMode::kInsertionsOnly: return "insertions-only";
    case DeliveryMode::kDeletionsOnly: return "deletions-only";
    case DeliveryMode::kDifferential: return "differential";
    case DeliveryMode::kComplete: return "complete";
  }
  return "?";
}

CqSpec CqSpec::from_sql(std::string name, const std::string& sql, TriggerPtr trigger,
                        StopPtr stop, DeliveryMode mode) {
  CqSpec spec;
  spec.name = std::move(name);
  spec.query = qry::parse_query(sql);
  spec.trigger = std::move(trigger);
  spec.stop = std::move(stop);
  spec.mode = mode;
  return spec;
}

namespace {
/// The SPJ query the DRA maintains for `query`: ordering is presentation
/// only, and DISTINCT and an aggregate's groups and HAVING are computed
/// over the multiset result (AggregateState).
qry::SpjQuery spj_core_of(const qry::SpjQuery& query) {
  qry::SpjQuery core = query;
  core.distinct = false;
  core.order_by.clear();
  if (core.is_aggregate()) {
    core.projection.clear();
    core.aggregates.clear();
    core.group_by.clear();
    core.having = nullptr;
  }
  return core;
}
}  // namespace

ContinualQuery::ContinualQuery(CqSpec spec, const cat::Database& db)
    : spec_(std::move(spec)), last_exec_(Timestamp::min()) {
  spec_.query.validate();
  if (!spec_.trigger) throw common::InvalidArgument("CQ '" + spec_.name + "': no trigger");
  if (!spec_.stop) spec_.stop = stop::never();
  for (const auto& ref : spec_.query.from) {
    if (!db.has_table(ref.table)) {
      throw common::NotFound("CQ '" + spec_.name + "': unknown table '" + ref.table + "'");
    }
    relations_.push_back(ref.table);
  }
  for (const auto& table : spec_.trigger->tables()) {
    if (std::find(relations_.begin(), relations_.end(), table) == relations_.end()) {
      throw common::InvalidArgument("CQ '" + spec_.name + "': trigger reads '" + table +
                                    "', which is not in the query's FROM list");
    }
  }
  program_ = qry::compile(spj_core_of(spec_.query), db);
}

TriggerContext ContinualQuery::context(const cat::Database& db,
                                       const delta::SnapshotMap& snapshots) const {
  return TriggerContext{db,  relations_,  last_exec_,
                        db.clock().now(), executions_, snapshots};
}

bool ContinualQuery::should_fire(const cat::Database& db,
                                 const delta::SnapshotMap& snapshots) const {
  return !finished_ && spec_.trigger->should_fire(context(db, snapshots));
}

bool ContinualQuery::should_stop(const cat::Database& db,
                                 const delta::SnapshotMap& snapshots) const {
  return finished_ || spec_.stop->satisfied(context(db, snapshots));
}

ContinualQuery::Staleness ContinualQuery::staleness(const cat::Database& db) const {
  Staleness out;
  out.age = db.clock().now() - last_exec_;

  for (std::size_t i = 0; i < relations_.size(); ++i) {
    const delta::DeltaSnapshot d(db.delta(relations_[i]));
    if (!d.changed_since(last_exec_)) continue;
    const Relation& ins = d.insertions(last_exec_);
    const Relation& del = d.deletions(last_exec_);
    out.pending_changes += ins.size() + del.size();
    const alg::ExprPtr& f = program_.filters[i];
    if (alg::is_always_true(f)) {
      out.relevant_changes += ins.size() + del.size();
    } else {
      out.relevant_changes += alg::select(ins, program_.schemas[i], *f).size() +
                              alg::select(del, program_.schemas[i], *f).size();
    }
  }
  return out;
}

std::string ContinualQuery::explain(const cat::Database& db) const {
  std::ostringstream os;
  os << "CQ '" << spec_.name << "': " << spec_.query.to_string() << "\n";
  os << "  trigger: " << spec_.trigger->describe() << "\n";
  os << "  stop: " << spec_.stop->describe() << "\n";
  os << "  mode: " << core::to_string(spec_.mode) << "\n";
  os << "  executions: " << executions_ << ", last at t=" << last_exec_.to_string()
     << "\n";

  os << "  " << program_.plan_at(db).to_string(program_.query);

  for (const auto& table : relations_) {
    const delta::DeltaSnapshot d(db.delta(table));
    const std::size_t pending =
        d.changed_since(last_exec_) ? d.net_effect(last_exec_).size() : 0;
    os << "  Δ" << table << ": " << pending << " pending net rows";
    const auto names = db.index_names(table);
    if (!names.empty()) {
      os << " (indexes:";
      for (const auto& n : names) os << " " << n;
      os << ")";
    }
    os << "\n";
  }
  const Staleness s = staleness(db);
  os << "  staleness: " << s.pending_changes << " pending / " << s.relevant_changes
     << " relevant changes, age " << s.age.ticks() << " ticks\n";
  return os.str();
}

namespace {

/// Attach to each grouped delta row the union of the lineage sets of the
/// raw ΔQ rows that landed in its group: the grouped output's first
/// |group_by| columns are the group key (AggregateState::group_columns
/// documents the layout), and every raw SPJ row keys its group at those
/// source columns. A DISTINCT row's key is the whole row, so it cites every
/// base row that moved its value's multiplicity.
void attach_group_lineage(const AggregateState& state, const DiffResult& raw,
                          DiffResult& delta) {
  const std::vector<std::size_t>& group_cols = state.group_columns();
  std::map<std::vector<rel::Value>, rel::prov::ProvSetPtr> by_group;
  auto fold = [&](const Relation& r) {
    for (const auto& row : r.rows()) {
      if (!row.prov()) continue;
      std::vector<rel::Value> key;
      key.reserve(group_cols.size());
      for (auto gi : group_cols) key.push_back(row.at(gi));
      rel::prov::ProvSetPtr& slot = by_group[std::move(key)];
      slot = rel::prov::merge(slot, row.prov());
    }
  };
  fold(raw.inserted);
  fold(raw.deleted);
  auto attach = [&](Relation& r) {
    for (auto& row : r.mutable_rows()) {
      std::vector<rel::Value> key(row.values().begin(),
                                  row.values().begin() +
                                      static_cast<std::ptrdiff_t>(group_cols.size()));
      auto it = by_group.find(key);
      if (it != by_group.end()) row.set_prov(it->second);
    }
  };
  attach(delta.inserted);
  attach(delta.deleted);
}

/// Order of two aggregate rows by their group keys, the first `width`
/// values (AggregateState's group-key order).
std::strong_ordering compare_groups(const rel::Tuple& a, const rel::Tuple& b,
                                    std::size_t width) {
  for (std::size_t i = 0; i < width; ++i) {
    if (const auto c = a.at(i).compare(b.at(i)); c != 0) return c;
  }
  return std::strong_ordering::equal;
}

/// Patch `payload`, a grouped relation in group-key order whose first
/// `width` columns are the group key, with the group-level ΔQ `delta`
/// (each side in group-key order, at most one row per group). A group on
/// both sides has its row replaced, one only deleted is erased and one
/// only inserted is inserted at its key's position, so the payload stays
/// in group-key order. Returns the rows patched.
std::size_t patch_groups(Relation& payload, const DiffResult& delta, std::size_t width) {
  const std::vector<rel::Tuple>& rows = payload.rows();
  auto position = [&](const rel::Tuple& row) {
    const auto it = std::lower_bound(
        rows.begin(), rows.end(), row, [width](const rel::Tuple& a, const rel::Tuple& b) {
          return compare_groups(a, b, width) < 0;
        });
    return static_cast<std::size_t>(it - rows.begin());
  };
  const std::vector<rel::Tuple>& del = delta.deleted.rows();
  const std::vector<rel::Tuple>& ins = delta.inserted.rows();
  std::size_t d = 0;
  std::size_t i = 0;
  std::size_t patched = 0;
  for (; d < del.size() || i < ins.size(); ++patched) {
    const std::strong_ordering order =
        d == del.size()   ? std::strong_ordering::greater
        : i == ins.size() ? std::strong_ordering::less
                          : compare_groups(del[d], ins[i], width);
    if (order > 0) {
      const std::size_t pos = position(ins[i]);
      if (pos < rows.size() && compare_groups(rows[pos], ins[i], width) == 0) {
        throw common::InternalError("grouped payload already holds an inserted group");
      }
      payload.insert_at(pos, rel::Tuple(ins[i++].values()));
      continue;
    }
    const std::size_t pos = position(del[d]);
    if (pos == rows.size() || !rows[pos].same_values(del[d])) {
      throw common::InternalError("grouped payload lacks a deleted group row");
    }
    ++d;
    if (order == 0) {
      payload.replace_at(pos, rel::Tuple(ins[i++].values()));
    } else {
      payload.erase_at(pos);
    }
  }
  return patched;
}

}  // namespace

void ContinualQuery::load_state(std::shared_ptr<Relation> spj) {
  saved_result_.reset();
  agg_state_.reset();
  agg_payload_.reset();
  const qry::SpjQuery& query = spec_.query;
  if (query.is_aggregate() || query.distinct) {
    // DISTINCT groups by every output column and computes no aggregate.
    std::vector<std::string> group_by = query.group_by;
    if (!query.is_aggregate()) {
      for (const auto& attribute : spj->schema().attributes()) {
        group_by.push_back(attribute.name);
      }
    }
    agg_state_.emplace(spj->schema(), std::move(group_by), query.aggregates);
    agg_state_->initialize(*spj);
    if (query.is_aggregate() || spec_.mode == DeliveryMode::kComplete) {
      Relation payload = agg_state_->current();
      if (query.having) payload = alg::select(payload, *query.having);
      agg_payload_ = std::make_shared<Relation>(std::move(payload));
    }
  } else if (spec_.mode == DeliveryMode::kComplete) {
    saved_result_ = std::move(spj);
  }
}

Notification ContinualQuery::prime_from_scratch(const cat::Database& db,
                                                common::Metrics* metrics) {
  auto spj = std::make_shared<Relation>(recompute(program_.query, db, metrics));
  if (metrics != nullptr) metrics->add(common::metric::kQueryExecutions, 1);

  Notification note;
  note.cq_name = spec_.name;
  note.complete = spj;
  load_state(std::move(spj));
  if (agg_state_) {
    // A DISTINCT CQ outside kComplete keeps no payload: build this one.
    note.complete = agg_payload_ ? agg_payload_
                                 : std::make_shared<const Relation>(agg_state_->current());
    if (spec_.query.is_aggregate()) note.aggregate = agg_payload_;
  }
  // The empty ΔQ under the schema every later execution's ΔQ carries.
  note.delta.inserted = Relation(note.complete->schema());
  note.delta.deleted = Relation(note.complete->schema());
  if (metrics != nullptr) {
    metrics->add(common::metric::kRowsAssembled,
                 static_cast<std::int64_t>(note.complete->size()));
  }

  reprime_pending_ = false;
  last_exec_ = db.clock().now();
  note.at = last_exec_;
  return note;
}

Notification ContinualQuery::execute_initial(const cat::Database& db,
                                             common::Metrics* metrics) {
  if (executions_ != 0) {
    throw common::InvalidArgument("CQ '" + spec_.name + "': already initialized");
  }
  Notification note = prime_from_scratch(db, metrics);
  note.sequence = 0;
  executions_ = 1;
  return note;
}

void ContinualQuery::restore(const cat::Database& db, Timestamp last_execution,
                             std::uint64_t executions) {
  if (executions_ != 0) {
    throw common::InvalidArgument("CQ '" + spec_.name + "': restore on a live CQ");
  }
  if (executions == 0) {
    throw common::InvalidArgument("CQ '" + spec_.name +
                                  "': restore needs executions >= 1");
  }
  // If garbage collection already reclaimed part of the rollback window
  // (last_execution, now], the inverted differential below would silently
  // reconstruct the *wrong* previous result (the truncated prefix of the
  // window is simply missing from the log). Detect it via the truncation
  // watermark and re-prime on the next execution instead of rolling back.
  for (const auto& table : relations_) {
    const auto reclaimed = db.delta(table).truncated_through();
    if (reclaimed && *reclaimed > last_execution) {
      invalidate_saved_result();
      executions_ = executions;
      last_exec_ = last_execution;
      return;
    }
  }

  // Reconstruct the SPJ result as of last_execution: current state rolled
  // back by the inverted delta window (last_execution, now].
  Relation spj = recompute(program_.query, db);
  DiffResult window = dra_differential(program_, db, last_execution, nullptr, nullptr,
                                       snapshot_deltas(db, relations_));
  DiffResult inverted;
  inverted.inserted = std::move(window.deleted);
  inverted.deleted = std::move(window.inserted);
  load_state(std::make_shared<Relation>(apply_diff(std::move(spj), inverted)));
  executions_ = executions;
  last_exec_ = last_execution;
}

Notification ContinualQuery::execute(const cat::Database& db, common::Metrics* metrics,
                                     DraStats* stats) {
  return execute(db, snapshot_deltas(db, relations_), metrics, stats);
}

Notification ContinualQuery::execute(const cat::Database& db,
                                     const delta::SnapshotMap& snapshots,
                                     common::Metrics* metrics, DraStats* stats) {
  if (executions_ == 0) return execute_initial(db, metrics);
  if (reprime_pending_) {
    // The per-mode state is gone (explicit invalidation, a throw part-way
    // through an execution, or restore() found the rollback window
    // GC-truncated). Re-prime: one full recompute, delivered as a complete
    // result with an empty delta.
    Notification note = prime_from_scratch(db, metrics);
    note.sequence = executions_;
    ++executions_;
    return note;
  }
  // ---- ΔQ of the SPJ core ----
  DiffResult raw = dra_differential(program_, db, last_exec_, metrics, stats, snapshots);
  if (metrics != nullptr) metrics->add(common::metric::kQueryExecutions, 1);

  Notification note;
  note.cq_name = spec_.name;
  note.sequence = executions_;

  // ---- maintain the per-mode state in O(|ΔQ|) and assemble per delivery
  // mode (Algorithm 1, step 4) ----
  // A throw part-way leaves the state half-patched: drop it, so the next
  // execution re-primes instead of building on a corrupt result.
  //
  // Copy-on-write: a sink that kept the last payload keeps it intact. Only
  // a holder of the pointer can copy it, so a count of 1 cannot rise under
  // us.
  auto own = [](std::shared_ptr<Relation>& payload) {
    if (payload.use_count() > 1) payload = std::make_shared<Relation>(*payload);
  };
  std::size_t assembled = 0;  // payload rows built or patched
  try {
    if (saved_result_) {
      own(saved_result_);
      *saved_result_ = apply_diff(std::move(*saved_result_), raw);
    }
    if (agg_state_) {
      note.delta = agg_state_->apply(raw);
      if (spec_.query.having) {
        note.delta.inserted = alg::select(note.delta.inserted, *spec_.query.having);
        note.delta.deleted = alg::select(note.delta.deleted, *spec_.query.having);
      }
      if (agg_payload_) {
        own(agg_payload_);
        assembled =
            patch_groups(*agg_payload_, note.delta, agg_state_->group_columns().size());
      }
      if (rel::prov::enabled()) attach_group_lineage(*agg_state_, raw, note.delta);
      if (spec_.query.is_aggregate()) note.aggregate = agg_payload_;
      if (spec_.mode == DeliveryMode::kComplete) note.complete = agg_payload_;
    } else {
      if (spec_.mode == DeliveryMode::kComplete) {
        assembled = raw.inserted.size() + raw.deleted.size();
        note.complete = saved_result_;
      }
      note.delta = std::move(raw);
    }
  } catch (...) {
    invalidate_saved_result();
    throw;
  }
  if (metrics != nullptr) {
    metrics->add(common::metric::kRowsAssembled, static_cast<std::int64_t>(assembled));
  }

  switch (spec_.mode) {
    case DeliveryMode::kInsertionsOnly:
      note.delta.deleted = Relation(note.delta.deleted.schema());
      break;
    case DeliveryMode::kDeletionsOnly:
      note.delta.inserted = Relation(note.delta.inserted.schema());
      break;
    case DeliveryMode::kDifferential:
    case DeliveryMode::kComplete:
      break;
  }

  ++executions_;
  last_exec_ = db.clock().now();
  note.at = last_exec_;
  return note;
}

}  // namespace cq::core
