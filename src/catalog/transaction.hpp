// Transactions over a Database, mirroring the paper's Example 1:
//
//   Begin Transaction T
//     Insert (101088, MAC, 117);
//     Modify (120992, DEC, 150) = (120992, DEC, 149);
//     Delete (092394);
//   End Transaction
//
// Changes become visible — and are appended to the differential relations,
// composed to their per-tid net effect — atomically at commit(), stamped
// with a single fresh timestamp.
//
// Commit pipeline (multi-writer): compute the commit closure (write set
// plus the read sets of the CQs it can trigger), acquire the closure's
// shard locks in ascending shard order, then make one grouped pass over
// the ops and dispatch notifications — all before releasing the shards.
// Transactions over disjoint closures run this whole pipeline
// concurrently; conflicting ones serialize on their shared shards, so
// each CQ still observes exactly the sequential order.
//
// The grouped pass: each op resolves its Table once, when it is queued.
// One sort of op indexes groups the ops by (table name, tid), keeping op
// order inside a group; the groups come out in the order the net-effect
// rows are appended. Validation walks each group in op order and throws
// for the earliest failing op. Apply then runs in op order and moves each
// op's values into its table; the op keeps the pre-image it displaced, so
// the ops themselves are the undo journal. Stamping writes one delta row
// per group: the group's first pre-image moved out as the old half, and
// one copy of the stored row as the new half. A failure mid-apply replays
// the journal in reverse and hands every op its values back: the tables
// (same rows, by tid), their indexes and byte totals, the delta logs and
// the queued ops are as they were, and commit() may be called again.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/timestamp.hpp"
#include "relation/tuple.hpp"
#include "relation/value.hpp"

namespace cq::cat {

class Database;
struct Table;

class Transaction {
 public:
  ~Transaction();
  Transaction(Transaction&&) noexcept;
  Transaction& operator=(Transaction&&) = delete;
  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  /// Queue an insert; the returned tid may be used by later ops in this
  /// transaction (e.g. modify a row inserted moments earlier). The tid is
  /// reserved under the table's shard lock, so concurrent transactions
  /// never race a reservation.
  rel::TupleId insert(const std::string& table, std::vector<rel::Value> values);

  /// Queue a deletion of the row with this tid.
  void erase(const std::string& table, rel::TupleId tid);

  /// Queue an in-place modification: the row takes these values.
  void modify(const std::string& table, rel::TupleId tid, std::vector<rel::Value> values);

  /// Validate and apply every queued op atomically, append the net effect to
  /// the differential relations, and return the commit timestamp. A
  /// validation failure (unknown tid, double delete, duplicate insert)
  /// throws for the earliest failing op and leaves the database untouched;
  /// a failure mid-apply rolls back the already-applied ops before
  /// rethrowing, so the base tables never expose a partial transaction.
  /// Either way the transaction stays active with its ops intact.
  common::Timestamp commit();

  /// Discard all queued ops. Reserved tids are returned when no later
  /// reservation built on top of them (so an abort normally does not
  /// disturb the tids of subsequent commits).
  void abort() noexcept;

  [[nodiscard]] bool active() const noexcept { return state_ == State::kActive; }
  [[nodiscard]] std::size_t pending_ops() const noexcept { return ops_.size(); }

  /// Test seam: invoked after each op the apply pass applies, with the
  /// count of ops applied so far. A hook that throws exercises the
  /// mid-apply rollback path. Never set in production code.
  void set_apply_fault_hook_for_testing(std::function<void(std::size_t)> hook) {
    apply_fault_hook_ = std::move(hook);
  }

 private:
  friend class Database;
  explicit Transaction(Database& db) : db_(&db) {}

  enum class State { kActive, kCommitted, kAborted };
  enum class OpKind { kInsert, kDelete, kModify };

  struct Op {
    OpKind kind;
    Table* table;  // resolved when the op is queued
    rel::TupleId tid;
    /// Queued: the new values of an insert/modify. While commit() has the
    /// op applied: the row's pre-image (delete/modify; empty for insert).
    std::vector<rel::Value> values;
  };

  void require_active() const;
  /// Apply `op` to its table, leaving the pre-image in its values.
  static void apply(Op& op);
  /// Undo apply(op): the table gets the pre-image back, op its values.
  static void undo(Op& op);

  Database* db_;
  std::vector<Op> ops_;
  /// Tids reserved by insert(), in reservation order; unwound on abort.
  std::vector<std::pair<Table*, rel::TupleId>> reserved_;
  std::function<void(std::size_t)> apply_fault_hook_;
  State state_ = State::kActive;
};

}  // namespace cq::cat
