// The paper defines the result of a continual query as *the sequence*
// {Q(S_1), Q(S_2), ..., Q(S_n)} (Section 3.1). ResultHistory materializes
// that sequence space-efficiently: the initial complete result plus one
// ΔQ per execution (with periodic checkpoints), supporting random access
// by execution number and time-travel by timestamp — "what did the user
// see at time t?".
//
// Works as a ResultSink for CQs in kDifferential or kComplete mode (the
// insertions-/deletions-only modes drop one side of ΔQ, which makes the
// sequence non-reconstructible; attaching one raises Unsupported).
// Aggregate CQs are stored by their (small) delivered aggregate relations.
// Checkpoints share the delivered payloads instead of copying them; the
// CQ's copy-on-write keeps a shared payload unchanged afterwards.
#pragma once

#include <memory>
#include <vector>

#include "common/timestamp.hpp"
#include "cq/continual_query.hpp"

namespace cq::core {

class ResultHistory final : public ResultSink {
 public:
  /// `checkpoint_every` bounds reconstruction cost: the full result is
  /// kept every that-many executions.
  explicit ResultHistory(std::size_t checkpoint_every = 16);

  void on_result(const Notification& notification) override;

  /// Number of recorded executions (including the initial one).
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }

  /// Timestamp of execution i.
  [[nodiscard]] common::Timestamp timestamp(std::size_t execution) const;

  /// The full result the user held after execution i (0 = initial).
  [[nodiscard]] rel::Relation at(std::size_t execution) const;

  /// The result as of logical time t: the latest execution with
  /// timestamp <= t. Throws NotFound when t precedes the initial execution.
  [[nodiscard]] rel::Relation as_of(common::Timestamp t) const;

  /// ΔQ delivered by execution i (empty for the initial execution).
  [[nodiscard]] const DiffResult& delta(std::size_t execution) const;

  /// Total rows held across checkpoints + deltas (memory accounting).
  [[nodiscard]] std::size_t stored_rows() const noexcept;

 private:
  struct Entry {
    common::Timestamp at;
    DiffResult delta;
    std::shared_ptr<const rel::Relation> checkpoint;  // every checkpoint_every-th
  };

  std::size_t checkpoint_every_;
  std::vector<Entry> entries_;
};

}  // namespace cq::core
