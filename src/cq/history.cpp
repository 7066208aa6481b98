#include "cq/history.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace cq::core {

using common::Timestamp;
using rel::Relation;

ResultHistory::ResultHistory(std::size_t checkpoint_every)
    : checkpoint_every_(std::max<std::size_t>(1, checkpoint_every)) {}

void ResultHistory::on_result(const Notification& notification) {
  Entry entry;
  entry.at = notification.at;

  if (notification.aggregate) {
    // Aggregate results are small; store them as per-execution checkpoints
    // with the aggregate-level diff alongside.
    entry.delta = notification.delta;
    entry.checkpoint = notification.aggregate;
    entries_.push_back(std::move(entry));
    return;
  }

  if (entries_.empty()) {
    if (!notification.complete) {
      throw common::Unsupported(
          "ResultHistory: the initial notification must carry the complete "
          "result (use kDifferential or kComplete mode)");
    }
    entry.checkpoint = notification.complete;
    entry.delta = notification.delta;  // empty by construction
    entries_.push_back(std::move(entry));
    return;
  }

  entry.delta = notification.delta;
  if (notification.complete) {
    if (entries_.size() % checkpoint_every_ == 0) {
      entry.checkpoint = notification.complete;
    }
  } else if (entries_.size() % checkpoint_every_ == 0) {
    // Differential mode: build the checkpoint ourselves.
    entry.checkpoint = std::make_shared<const Relation>(
        apply_diff(at(entries_.size() - 1), entry.delta.consolidated()));
  }
  entries_.push_back(std::move(entry));
}

Timestamp ResultHistory::timestamp(std::size_t execution) const {
  if (execution >= entries_.size()) {
    throw common::NotFound("ResultHistory: no execution " + std::to_string(execution));
  }
  return entries_[execution].at;
}

const DiffResult& ResultHistory::delta(std::size_t execution) const {
  if (execution >= entries_.size()) {
    throw common::NotFound("ResultHistory: no execution " + std::to_string(execution));
  }
  return entries_[execution].delta;
}

Relation ResultHistory::at(std::size_t execution) const {
  if (execution >= entries_.size()) {
    throw common::NotFound("ResultHistory: no execution " + std::to_string(execution));
  }
  // Walk back to the nearest checkpoint, then roll forward.
  std::size_t base = execution;
  while (!entries_[base].checkpoint) {
    CQ_ASSERT(base > 0);  // entry 0 always has a checkpoint
    --base;
  }
  Relation result = *entries_[base].checkpoint;
  for (std::size_t i = base + 1; i <= execution; ++i) {
    result = apply_diff(std::move(result), entries_[i].delta.consolidated());
  }
  return result;
}

Relation ResultHistory::as_of(Timestamp t) const {
  if (entries_.empty() || t < entries_.front().at) {
    throw common::NotFound("ResultHistory: no result as of t=" + t.to_string());
  }
  // Entries are timestamp-ordered; find the last one with at <= t.
  const auto it = std::upper_bound(
      entries_.begin(), entries_.end(), t,
      [](Timestamp value, const Entry& e) { return value < e.at; });
  return at(static_cast<std::size_t>(it - entries_.begin()) - 1);
}

std::size_t ResultHistory::stored_rows() const noexcept {
  std::size_t total = 0;
  for (const auto& e : entries_) {
    total += e.delta.size();
    if (e.checkpoint) total += e.checkpoint->size();
  }
  return total;
}

}  // namespace cq::core
