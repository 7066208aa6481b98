#include "delta/delta_relation.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"

namespace cq::delta {

using common::Timestamp;
using rel::Tuple;
using rel::TupleId;
using rel::Value;

const char* to_string(ChangeKind kind) noexcept {
  switch (kind) {
    case ChangeKind::kInsert: return "INSERT";
    case ChangeKind::kDelete: return "DELETE";
    case ChangeKind::kModify: return "MODIFY";
  }
  return "?";
}

DeltaRelation::DeltaRelation(rel::Schema base_schema)
    : base_schema_(std::move(base_schema)) {}

void DeltaRelation::check_values(
    const std::optional<std::vector<Value>>& values) const {
  if (values && values->size() != base_schema_.size()) {
    throw common::SchemaMismatch("DeltaRelation: arity " +
                                 std::to_string(values->size()) + " != base arity " +
                                 std::to_string(base_schema_.size()));
  }
}

void DeltaRelation::append(DeltaRow row) {
  if (!row.tid.valid()) {
    throw common::InvalidArgument("DeltaRelation: row must carry a valid tid");
  }
  if (!row.old_values && !row.new_values) {
    throw common::InvalidArgument("DeltaRelation: row must carry old or new values");
  }
  check_values(row.old_values);
  check_values(row.new_values);
  if (!rows_.empty() && row.ts < rows_.back().ts) {
    throw common::InvalidArgument(
        "DeltaRelation: timestamps must be non-decreasing (got " + row.ts.to_string() +
        " after " + rows_.back().ts.to_string() + ")");
  }
  row.seq = next_seq_++;
  bytes_ += row.byte_size();
  rows_.push_back(std::move(row));
}

void DeltaRelation::set_name(const std::string& name) {
  prov_rel_ = rel::prov::intern_relation(name);
}

void DeltaRelation::record_insert(TupleId tid, std::vector<Value> values, Timestamp ts) {
  append(DeltaRow{tid, std::nullopt, std::move(values), ts});
}

void DeltaRelation::record_delete(TupleId tid, std::vector<Value> old_values,
                                  Timestamp ts) {
  append(DeltaRow{tid, std::move(old_values), std::nullopt, ts});
}

void DeltaRelation::record_modify(TupleId tid, std::vector<Value> old_values,
                                  std::vector<Value> new_values, Timestamp ts) {
  append(DeltaRow{tid, std::move(old_values), std::move(new_values), ts});
}

std::optional<Timestamp> DeltaRelation::latest() const noexcept {
  if (rows_.empty()) return std::nullopt;
  return rows_.back().ts;
}

bool DeltaRelation::changed_since(Timestamp since) const noexcept {
  return !rows_.empty() && rows_.back().ts > since;
}

DeltaRelation::ReadPin::ReadPin(std::shared_ptr<PinState> state)
    : state_(std::move(state)) {
  common::LockGuard lock(state_->mu);
  ++state_->pins;
}

DeltaRelation::ReadPin::~ReadPin() {
  common::LockGuard lock(state_->mu);
  --state_->pins;
}

DeltaRelation::ReadPin DeltaRelation::pin_reads() const {
  return ReadPin(pin_state_);
}

std::size_t DeltaRelation::read_pins() const {
  common::LockGuard lock(pin_state_->mu);
  return pin_state_->pins;
}

std::size_t DeltaRelation::truncate_before(Timestamp before) {
  // Hold the pin mutex across the whole truncation: a pin taken while we
  // reclaim blocks until the erase is done, and an outstanding pin makes
  // this pass a no-op. Either way no reader ever observes rows_ mid-erase,
  // and the lock hand-off orders the reader's accesses against ours.
  common::LockGuard lock(pin_state_->mu);
  if (pin_state_->pins > 0) return 0;  // deferred: a later GC pass retries
  auto keep_from = std::lower_bound(
      rows_.begin(), rows_.end(), before,
      [](const DeltaRow& r, Timestamp t) { return r.ts <= t; });
  const std::size_t dropped = static_cast<std::size_t>(keep_from - rows_.begin());
  if (dropped > 0) {
    for (auto it = rows_.begin(); it != keep_from; ++it) bytes_ -= it->byte_size();
    const Timestamp last_dropped = (keep_from - 1)->ts;
    if (!truncated_through_ || last_dropped > *truncated_through_) {
      truncated_through_ = last_dropped;
    }
    rows_.erase(rows_.begin(), keep_from);
  }
  return dropped;
}

std::size_t DeltaRow::byte_size() const noexcept {
  std::size_t total = 16;  // tid + ts
  if (old_values) {
    for (const auto& v : *old_values) total += v.byte_size();
  }
  if (new_values) {
    for (const auto& v : *new_values) total += v.byte_size();
  }
  return total;
}

std::string DeltaRelation::to_string(std::size_t max_rows) const {
  std::ostringstream os;
  os << "Δ" << base_schema_.to_string() << " [" << rows_.size() << " rows]\n";
  std::size_t shown = 0;
  for (const auto& row : rows_) {
    if (shown++ == max_rows) {
      os << "  ...\n";
      break;
    }
    os << "  " << cq::delta::to_string(row.kind()) << " tid=" << row.tid.to_string() << " ts="
       << row.ts.to_string();
    if (row.old_values) os << " old=" << Tuple(*row.old_values).to_string();
    if (row.new_values) os << " new=" << Tuple(*row.new_values).to_string();
    os << "\n";
  }
  return os.str();
}

}  // namespace cq::delta
