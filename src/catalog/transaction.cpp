#include "catalog/transaction.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>

#include "catalog/database.hpp"
#include "common/error.hpp"
#include "common/observability.hpp"

namespace cq::cat {

using common::Timestamp;
using rel::TupleId;
using rel::Value;

namespace obs = common::obs;

Transaction::~Transaction() {
  if (state_ == State::kActive) abort();
}

Transaction::Transaction(Transaction&& other) noexcept
    : db_(other.db_),
      ops_(std::move(other.ops_)),
      reserved_(std::move(other.reserved_)),
      apply_fault_hook_(std::move(other.apply_fault_hook_)),
      state_(other.state_) {
  other.state_ = State::kAborted;
  other.ops_.clear();
  other.reserved_.clear();
}

void Transaction::require_active() const {
  if (state_ != State::kActive) {
    throw common::InvalidArgument("Transaction: already committed or aborted");
  }
}

TupleId Transaction::insert(const std::string& table, std::vector<Value> values) {
  require_active();
  Table& entry = db_->table_entry(table);
  if (values.size() != entry.base.schema().size()) {
    throw common::SchemaMismatch("Transaction::insert arity mismatch for '" + table + "'");
  }
  const TupleId tid = db_->reserve_tid(entry);
  reserved_.emplace_back(&entry, tid);
  ops_.push_back(Op{OpKind::kInsert, &entry, tid, std::move(values)});
  return tid;
}

void Transaction::erase(const std::string& table, TupleId tid) {
  require_active();
  Table& entry = db_->table_entry(table);  // validates the table name early
  if (!tid.valid()) throw common::InvalidArgument("Transaction::erase: invalid tid");
  ops_.push_back(Op{OpKind::kDelete, &entry, tid, {}});
}

void Transaction::modify(const std::string& table, TupleId tid,
                         std::vector<Value> values) {
  require_active();
  Table& entry = db_->table_entry(table);
  if (values.size() != entry.base.schema().size()) {
    throw common::SchemaMismatch("Transaction::modify arity mismatch for '" + table + "'");
  }
  if (!tid.valid()) throw common::InvalidArgument("Transaction::modify: invalid tid");
  ops_.push_back(Op{OpKind::kModify, &entry, tid, std::move(values)});
}

void Transaction::apply(Op& op) {
  switch (op.kind) {
    case OpKind::kInsert:
      op.table->apply_insert(op.tid, std::move(op.values));
      op.values.clear();
      break;
    case OpKind::kDelete:
      op.values = std::move(op.table->apply_erase(op.tid).mutable_values());
      break;
    case OpKind::kModify:
      op.values = std::move(
          op.table->apply_update(op.tid, std::move(op.values)).mutable_values());
      break;
  }
}

void Transaction::undo(Op& op) {
  switch (op.kind) {
    case OpKind::kInsert:
      op.values = std::move(op.table->apply_erase(op.tid).mutable_values());
      break;
    case OpKind::kDelete:
      op.table->apply_insert(op.tid, std::move(op.values));
      op.values.clear();
      break;
    case OpKind::kModify:
      apply(op);  // swapping the pre-image back in is its own inverse
      break;
  }
}

namespace {

[[noreturn]] void throw_invalid_op(bool is_insert, bool is_delete, TupleId tid,
                                   const std::string& table) {
  if (is_insert) {
    throw common::InvalidArgument("Transaction: duplicate insert of tid " + tid.to_string());
  }
  throw common::NotFound(std::string("Transaction: ") + (is_delete ? "delete" : "modify") +
                         " of missing tid " + tid.to_string() + " in '" + table + "'");
}

}  // namespace

Timestamp Transaction::commit() {
  require_active();

  // The causal trace of this commit: allocates the trace id every span
  // downstream of here carries (including pool workers evaluating CQs in
  // parallel — ThreadPool propagates the context), and at scope exit
  // records the root "commit" span, the commit_to_notify_us sample and
  // the tail-retention decision. One branch when collection is off.
  obs::CommitTrace trace;

  // ---- group the ops by (table name, tid), op order inside a group ----
  // The op index breaks ties, so this unstable sort is a stable one.
  const std::size_t n = ops_.size();
  std::vector<std::uint32_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<std::uint32_t>(i);
  std::sort(order.begin(), order.end(), [this](std::uint32_t a, std::uint32_t b) {
    const Op& x = ops_[a];
    const Op& y = ops_[b];
    if (x.table != y.table) return x.table->name < y.table->name;
    if (x.tid != y.tid) return x.tid < y.tid;
    return a < b;
  });
  const auto same_group = [this](std::uint32_t a, std::uint32_t b) {
    return ops_[a].table == ops_[b].table && ops_[a].tid == ops_[b].tid;
  };
  // The write set, in table-name order.
  std::vector<std::string> tables;
  for (std::size_t k = 0; k < n; ++k) {
    if (k == 0 || ops_[order[k]].table != ops_[order[k - 1]].table) {
      tables.push_back(ops_[order[k]].table->name);
    }
  }

  // ---- lock the commit closure's shards, ascending shard order ----
  // The closure is the write set plus everything the eager dispatcher
  // will read on our behalf (the read sets of the CQs we can trigger);
  // holding it across validate/apply/stamp/dispatch is what makes
  // conflicting commits observe exactly the sequential order while
  // disjoint ones overlap completely.
  std::optional<ShardLockSet> locks;
  {
    const std::uint32_t mask = db_->closure_mask(tables);
    static obs::Histogram& lock_wait_hist =
        obs::global().histogram(obs::hist::kCommitLockWaitUs);
    obs::Span lock_span("commit.lock_wait", &lock_wait_hist);
    locks.emplace(*db_, mask);
  }

  // ---- validate each group in op order; the earliest failing op throws ----
  // An insert needs its tid dead, a delete or modify needs it live.
  std::size_t bad = n;
  for (std::size_t b = 0, e = 0; b < n; b = e) {
    const Op& head = ops_[order[b]];
    bool live = head.table->base.contains(head.tid);
    bool failed = false;
    for (e = b; e < n && same_group(order[b], order[e]); ++e) {
      const Op& op = ops_[order[e]];
      if (failed) continue;
      if ((op.kind == OpKind::kInsert) == live) {
        bad = std::min<std::size_t>(bad, order[e]);
        failed = true;
      } else if (op.kind != OpKind::kModify) {
        live = op.kind == OpKind::kInsert;
      }
    }
  }
  if (bad < n) {
    const Op& op = ops_[bad];
    throw_invalid_op(op.kind == OpKind::kInsert, op.kind == OpKind::kDelete, op.tid,
                     op.table->name);
  }

  // ---- apply in op order; the ops journal their pre-images ----
  // Commit is all-or-nothing even past validation (apply can still fail
  // on e.g. allocation): a failure undoes the applied ops newest-first,
  // each undo reversing an op whose post-state is exactly in place.
  std::size_t applied = 0;
  try {
    while (applied < n) {
      apply(ops_[applied]);
      ++applied;
      if (apply_fault_hook_) apply_fault_hook_(applied);
    }
  } catch (...) {
    while (applied > 0) undo(ops_[--applied]);
    throw;
  }

  // ---- stamp and log the net effect, one row per group ----
  // Timestamp + global commit sequence come from one short critical
  // section; our shard locks are held, so per-relation delta appends
  // arrive in timestamp order. A group's first op tells whether the row
  // existed before the transaction (its pre-image is the old half), its
  // last whether it exists after (the stored row is the new half).
  // The tables that got a row are compacted to the front of `tables`, in
  // order: they are the commit hook's touched list.
  const Timestamp ts = db_->allocate_commit_ts();
  std::size_t table_index = 0;
  std::size_t touched = 0;
  const Table* last_logged = nullptr;
  for (std::size_t b = 0, e = 0; b < n; b = e) {
    for (e = b + 1; e < n && same_group(order[b], order[e]); ++e) {
    }
    Op& first = ops_[order[b]];
    Table& table = *first.table;
    if (b > 0 && &table != ops_[order[b - 1]].table) ++table_index;
    const bool existed = first.kind != OpKind::kInsert;
    const bool exists = ops_[order[e - 1]].kind != OpKind::kDelete;
    if (!existed && !exists) continue;  // insert-then-delete: no net effect
    if (&table != last_logged) {
      last_logged = &table;
      if (touched != table_index) tables[touched] = std::move(tables[table_index]);
      ++touched;
    }
    if (!existed) {
      table.delta.record_insert(first.tid, table.base.find(first.tid)->values(), ts);
    } else if (!exists) {
      table.delta.record_delete(first.tid, std::move(first.values), ts);
    } else {
      table.delta.record_modify(first.tid, std::move(first.values),
                                table.base.find(first.tid)->values(), ts);
    }
  }
  tables.resize(touched);

  state_ = State::kCommitted;
  ops_.clear();
  reserved_.clear();  // consumed by the commit
  if (trace.active()) {
    std::string label;
    for (const auto& name : tables) {
      if (!label.empty()) label += ',';
      label += name;
    }
    trace.set_label(std::move(label));
  }
  // Dispatch while the closure is still locked: a conflicting commit
  // cannot slip its changes between our apply and our notifications.
  db_->notify_commit(tables, ts);
  return ts;
}

void Transaction::abort() noexcept {
  state_ = State::kAborted;
  ops_.clear();
  // Return reserved tids newest-first; each return succeeds while the
  // reservation is still on top, so a clean abort leaves the counter
  // exactly where it started.
  for (auto it = reserved_.rbegin(); it != reserved_.rend(); ++it) {
    db_->unreserve_tid(*it->first, it->second);
  }
  reserved_.clear();
}

}  // namespace cq::cat
