#include "relation/tuple.hpp"

#include <sstream>

#include "common/error.hpp"
#include "common/hash.hpp"

namespace cq::rel {

const Value& Tuple::at(std::size_t i) const {
  if (i >= values_.size()) throw common::InvalidArgument("Tuple::at out of range");
  return values_[i];
}

bool Tuple::same_values(const Tuple& other) const noexcept {
  if (values_.size() != other.values_.size()) return false;
  for (std::size_t i = 0; i < values_.size(); ++i) {
    if (!(values_[i] == other.values_[i])) return false;
  }
  return true;
}

std::size_t hash_values(const std::vector<Value>& values) noexcept {
  std::size_t h = 0x7091e;
  for (const auto& v : values) h = common::hash_combine(h, v);
  return h;
}

std::size_t Tuple::value_hash() const noexcept { return hash_values(values_); }

Tuple Tuple::concat(const Tuple& other) const {
  std::vector<Value> merged = values_;
  merged.insert(merged.end(), other.values_.begin(), other.values_.end());
  Tuple joined(std::move(merged));
  joined.weight_ = weight_ * other.weight_;
  if (prov_ || other.prov_) joined.prov_ = prov::merge(prov_, other.prov_);
  return joined;
}

Tuple Tuple::project(const std::vector<std::size_t>& indexes) const {
  std::vector<Value> out;
  out.reserve(indexes.size());
  for (auto i : indexes) out.push_back(at(i));
  Tuple projected(std::move(out));
  projected.weight_ = weight_;
  projected.prov_ = prov_;
  return projected;
}

std::size_t Tuple::byte_size() const noexcept {
  std::size_t total = 8;  // tid
  for (const auto& v : values_) total += v.byte_size();
  return total;
}

std::string Tuple::to_string() const {
  std::ostringstream os;
  os << "(";
  for (std::size_t i = 0; i < values_.size(); ++i) {
    if (i > 0) os << ", ";
    os << values_[i];
  }
  os << ")";
  return os.str();
}

}  // namespace cq::rel
