#include "oracle.hpp"

#include <sstream>

#include "query/evaluate.hpp"

namespace cqbench {

namespace {

std::uint64_t mix(std::uint64_t h, std::uint64_t v) noexcept {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (v >> (byte * 8)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Order-independent hash of a relation's row values (ΔQ row order is an
/// evaluation detail; its multiset is the contract).
std::uint64_t bag_hash(const rel::Relation& r) noexcept {
  std::uint64_t sum = 0;
  for (const auto& row : r.rows()) sum += row.value_hash() * 0x9e3779b97f4a7c15ull + 1;
  return sum;
}

/// Multiset equality of two relations' row values.
bool same_bag(const rel::Relation& a, const rel::Relation& b) {
  if (a.size() != b.size()) return false;
  std::unordered_map<std::uint64_t, std::int64_t> counts;
  for (const auto& row : a.rows()) ++counts[row.value_hash()];
  for (const auto& row : b.rows()) {
    auto it = counts.find(row.value_hash());
    if (it == counts.end()) return false;
    if (--it->second == 0) counts.erase(it);
  }
  return counts.empty();
}

}  // namespace

void OracleSink::on_result(const core::Notification& note) {
  ++notifications_;
  if (note.sequence != next_sequence_) ++gaps_;
  next_sequence_ = note.sequence + 1;

  if (note.sequence == 0) {
    const auto& initial = note.complete ? note.complete : note.aggregate;
    if (initial) {
      fold(*initial, +1);
      digest_ = mix(digest_, bag_hash(*initial));
    }
  }
  fold(note.delta.inserted, +1);
  fold(note.delta.deleted, -1);
  digest_ = mix(digest_, note.sequence);
  digest_ = mix(digest_, bag_hash(note.delta.inserted));
  digest_ = mix(digest_, bag_hash(note.delta.deleted));
}

void OracleSink::fold(const rel::Relation& rows, std::int64_t sign) {
  for (const auto& row : rows.rows()) {
    auto it = fold_.try_emplace(row.value_hash(), 0).first;
    it->second += sign;
    if (it->second == 0) fold_.erase(it);
  }
}

bool OracleSink::matches(const rel::Relation& expected) {
  fold(expected, -1);
  return fold_.empty();
}

std::uint64_t combined_digest(const std::vector<InstalledCq>& cqs) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& cq : cqs) h = mix(h, cq.sink->digest());
  return h;
}

bool check_oracle(core::CqManager& manager, const std::vector<InstalledCq>& cqs,
                  const cat::Database& truth, std::vector<std::string>& notes) {
  std::size_t mismatches = 0;
  std::uint64_t gaps = 0;
  std::uint64_t notifications = 0;
  std::string first_bad;
  for (const auto& cq : cqs) {
    const core::Notification last = manager.execute_now(cq.handle);
    const rel::Relation expected = qry::evaluate(cq.query, truth);
    // The saved result a complete-mode or aggregate CQ delivers must agree
    // with the from-scratch answer as well as the ΔQ fold does.
    const auto& payload = last.aggregate ? last.aggregate : last.complete;
    const bool ok = cq.sink->matches(expected) && (!payload || same_bag(*payload, expected));
    gaps += cq.sink->gaps();
    notifications += cq.sink->notifications();
    if (!ok || cq.sink->gaps() != 0) {
      ++mismatches;
      if (first_bad.empty()) first_bad = cq.name;
    }
  }
  std::ostringstream out;
  out << "{\"oracle\": {\"cqs\": " << cqs.size() << ", \"mismatches\": " << mismatches
      << ", \"sequence_gaps\": " << gaps << ", \"notifications\": " << notifications;
  if (!first_bad.empty()) out << ", \"first_bad\": \"" << first_bad << "\"";
  out << "}}";
  notes.push_back(out.str());
  return mismatches == 0;
}

}  // namespace cqbench
