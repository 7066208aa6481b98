#include "cq/agg_state.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace cq::core {

using alg::AggKind;
using rel::Relation;
using rel::Tuple;
using rel::Value;
using rel::ValueType;

bool AggregateState::KeyLess::operator()(const GroupKey& a, const GroupKey& b) const {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    auto c = a[i].compare(b[i]);
    if (c != std::strong_ordering::equal) return c == std::strong_ordering::less;
  }
  return a.size() < b.size();
}

AggregateState::AggregateState(rel::Schema spj_schema, std::vector<std::string> group_by,
                               std::vector<alg::AggSpec> specs)
    : spj_schema_(std::move(spj_schema)),
      group_by_(std::move(group_by)),
      specs_(std::move(specs)),
      out_schema_(alg::aggregate_output_schema(spj_schema_, group_by_, specs_)) {
  for (const auto& g : group_by_) group_idx_.push_back(spj_schema_.index_of(g));
  for (const auto& s : specs_) {
    if (!s.column.empty() && s.column != "*") {
      spec_idx_.push_back(spj_schema_.index_of(s.column));
    } else {
      spec_idx_.push_back(std::nullopt);
    }
  }
}

void AggregateState::initialize(const Relation& spj_result) {
  groups_.clear();
  for (const auto& row : spj_result.rows()) fold_row(row, +1);
}

DiffResult AggregateState::apply(const DiffResult& delta) {
  // Every touched group's row before the fold, in group-key order.
  std::map<GroupKey, std::optional<Tuple>, KeyLess> touched;
  for (const Relation* side : {&delta.inserted, &delta.deleted}) {
    for (const auto& row : side->rows()) {
      auto [it, fresh] = touched.try_emplace(group_key(row));
      if (fresh) it->second = group_row(it->first);
    }
  }

  for (const auto& row : delta.inserted.rows()) fold_row(row, +1);
  for (const auto& row : delta.deleted.rows()) fold_row(row, -1);

  DiffResult out;
  out.inserted = Relation(out_schema_);
  out.deleted = Relation(out_schema_);
  for (auto& [key, before] : touched) {
    std::optional<Tuple> after = group_row(key);
    if (before && after && before->same_values(*after)) continue;
    if (before) out.deleted.append(std::move(*before));
    if (after) out.inserted.append(std::move(*after));
  }
  return out;
}

AggregateState::GroupKey AggregateState::group_key(const Tuple& row) const {
  GroupKey key;
  key.reserve(group_idx_.size());
  for (auto gi : group_idx_) key.push_back(row.at(gi));
  return key;
}

void AggregateState::fold_row(const Tuple& row, std::int64_t weight) {
  GroupKey key = group_key(row);
  auto it = groups_.find(key);
  if (it == groups_.end()) {
    if (weight < 0) {
      throw common::InternalError("AggregateState: deletion from unknown group");
    }
    GroupState fresh;
    fresh.specs.resize(specs_.size());
    it = groups_.emplace(std::move(key), std::move(fresh)).first;
  }
  GroupState& group = it->second;
  group.rows += weight;
  if (group.rows < 0) {
    throw common::InternalError("AggregateState: negative group cardinality");
  }

  for (std::size_t s = 0; s < specs_.size(); ++s) {
    SpecState& state = group.specs[s];
    const Value input = spec_idx_[s] ? row.at(*spec_idx_[s]) : Value(true);
    if (input.is_null()) continue;
    state.non_null += weight;
    if (state.non_null < 0) {
      throw common::InternalError("AggregateState: negative non-null count");
    }
    switch (specs_[s].kind) {
      case AggKind::kCount:
        break;
      case AggKind::kSum:
      case AggKind::kAvg:
        if (input.type() == ValueType::kInt && !state.is_double) {
          state.int_sum += weight * input.as_int();
        } else {
          if (!state.is_double) {
            state.dbl_sum = static_cast<double>(state.int_sum);
            state.is_double = true;
          }
          state.dbl_sum += static_cast<double>(weight) * input.numeric();
        }
        break;
      case AggKind::kMin:
      case AggKind::kMax: {
        auto vit = state.values.find(input);
        if (weight > 0) {
          if (vit == state.values.end()) {
            state.values.emplace(input, 1);
          } else {
            ++vit->second;
          }
        } else {
          if (vit == state.values.end()) {
            throw common::InternalError("AggregateState: deleting absent MIN/MAX value");
          }
          if (--vit->second == 0) state.values.erase(vit);
        }
        break;
      }
    }
  }

  if (group.rows == 0) groups_.erase(it);
}

Value AggregateState::spec_result(const alg::AggSpec& spec, const SpecState& state) const {
  switch (spec.kind) {
    case AggKind::kCount:
      return Value(state.non_null);
    case AggKind::kSum:
      if (state.non_null == 0) return Value::null();
      return state.is_double ? Value(state.dbl_sum) : Value(state.int_sum);
    case AggKind::kAvg:
      if (state.non_null == 0) return Value::null();
      return Value((state.is_double ? state.dbl_sum
                                    : static_cast<double>(state.int_sum)) /
                   static_cast<double>(state.non_null));
    case AggKind::kMin:
      return state.values.empty() ? Value::null() : state.values.begin()->first;
    case AggKind::kMax:
      return state.values.empty() ? Value::null() : state.values.rbegin()->first;
  }
  return Value::null();
}

Tuple AggregateState::output_row(const GroupKey& key, const GroupState& group) const {
  std::vector<Value> values = key;
  for (std::size_t s = 0; s < specs_.size(); ++s) {
    values.push_back(spec_result(specs_[s], group.specs[s]));
  }
  return Tuple(std::move(values));
}

std::optional<Tuple> AggregateState::group_row(const GroupKey& key) const {
  const auto it = groups_.find(key);
  if (it == groups_.end()) return std::nullopt;
  return output_row(key, it->second);
}

Relation AggregateState::current() const {
  Relation out(out_schema_);
  for (const auto& [key, group] : groups_) out.append(output_row(key, group));
  return out;
}

Value AggregateState::scalar() const {
  if (!group_by_.empty() || specs_.size() != 1) {
    throw common::InvalidArgument("AggregateState::scalar needs 1 aggregate, no groups");
  }
  if (groups_.empty()) {
    // SQL: aggregates over an empty input still yield one row.
    SpecState empty;
    return spec_result(specs_[0], empty);
  }
  return spec_result(specs_[0], groups_.begin()->second.specs[0]);
}

}  // namespace cq::core
