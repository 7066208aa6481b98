#include "relation/schema.hpp"

#include <sstream>
#include <unordered_set>

#include "common/error.hpp"

namespace cq::rel {

std::string bare_name(const std::string& name) {
  auto dot = name.rfind('.');
  return dot == std::string::npos ? name : name.substr(dot + 1);
}

const std::vector<Attribute> Schema::kNoAttributes;

Schema::Schema(std::vector<Attribute> attributes) {
  auto rep = std::make_shared<Rep>();
  rep->attributes = std::move(attributes);
  for (std::size_t i = 0; i < rep->attributes.size(); ++i) {
    const auto& name = rep->attributes[i].name;
    if (name.empty()) throw common::InvalidArgument("Schema: empty attribute name");
    if (!rep->by_name.emplace(name, i).second) {
      throw common::SchemaMismatch("Schema: duplicate attribute name '" + name + "'");
    }
    const auto suffix = bare_name(name);
    if (suffix != name) {
      auto [it, inserted] = rep->by_suffix.emplace(suffix, i);
      if (!inserted) it->second = kAmbiguous;
    }
  }
  rep_ = std::move(rep);
}

Schema Schema::of(std::initializer_list<Attribute> attributes) {
  return Schema(std::vector<Attribute>(attributes));
}

const Attribute& Schema::at(std::size_t i) const {
  if (i >= size()) throw common::InvalidArgument("Schema::at out of range");
  return rep_->attributes[i];
}

std::optional<std::size_t> Schema::find(const std::string& name) const {
  if (!rep_) return std::nullopt;
  if (auto it = rep_->by_name.find(name); it != rep_->by_name.end()) return it->second;
  if (auto it = rep_->by_suffix.find(name);
      it != rep_->by_suffix.end() && it->second != kAmbiguous) {
    return it->second;
  }
  return std::nullopt;
}

std::size_t Schema::index_of(const std::string& name) const {
  if (auto i = find(name)) return *i;
  if (rep_ && rep_->by_suffix.contains(name)) {
    throw common::NotFound("Schema: ambiguous attribute '" + name + "' in " + to_string());
  }
  throw common::NotFound("Schema: no attribute '" + name + "' in " + to_string());
}

Schema Schema::concat(const Schema& other) const {
  std::vector<Attribute> merged = attributes();
  merged.insert(merged.end(), other.attributes().begin(), other.attributes().end());
  return Schema(std::move(merged));  // ctor checks duplicates
}

Schema Schema::project(const std::vector<std::string>& names) const {
  std::vector<Attribute> out;
  out.reserve(names.size());
  for (const auto& n : names) out.push_back(attributes()[index_of(n)]);
  return Schema(std::move(out));
}

Schema Schema::qualified(const std::string& qualifier) const {
  std::vector<Attribute> out;
  out.reserve(attributes().size());
  for (const auto& a : attributes()) {
    out.push_back({qualifier + "." + bare_name(a.name), a.type});
  }
  return Schema(std::move(out));
}

Schema Schema::unqualified() const {
  std::vector<Attribute> out;
  out.reserve(attributes().size());
  for (const auto& a : attributes()) out.push_back({bare_name(a.name), a.type});
  return Schema(std::move(out));
}

Schema Schema::doubled() const {
  std::vector<Attribute> out;
  out.reserve(attributes().size() * 2);
  for (const auto& a : attributes()) out.push_back({a.name + "_old", a.type});
  for (const auto& a : attributes()) out.push_back({a.name + "_new", a.type});
  return Schema(std::move(out));
}

bool Schema::union_compatible(const Schema& other) const noexcept {
  if (size() != other.size()) return false;
  for (std::size_t i = 0; i < size(); ++i) {
    if (attributes()[i].type != other.attributes()[i].type) return false;
  }
  return true;
}

std::string Schema::to_string() const {
  std::ostringstream os;
  os << "(";
  for (std::size_t i = 0; i < attributes().size(); ++i) {
    if (i > 0) os << ", ";
    os << attributes()[i].name << ":" << rel::to_string(attributes()[i].type);
  }
  os << ")";
  return os.str();
}

}  // namespace cq::rel
