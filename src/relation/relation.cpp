#include "relation/relation.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <utility>

#include "common/error.hpp"

namespace cq::rel {

Relation::Relation(Schema schema, std::vector<Tuple> rows) : schema_(std::move(schema)) {
  for (const auto& r : rows) {
    check_arity(r);
    next_tid_ = std::max(next_tid_, r.tid().raw() + 1);
  }
  rows_ = std::move(rows);
}

const Tuple& Relation::row(std::size_t i) const {
  if (i >= rows_.size()) throw common::InvalidArgument("Relation::row out of range");
  return rows_[i];
}

void Relation::set_schema(Schema schema) {
  if (schema.size() != schema_.size()) {
    throw common::SchemaMismatch("Relation::set_schema arity mismatch");
  }
  schema_ = std::move(schema);
}

void Relation::check_arity(const Tuple& t) const {
  if (t.size() != schema_.size()) {
    throw common::SchemaMismatch("Relation: tuple arity " + std::to_string(t.size()) +
                                 " != schema arity " + std::to_string(schema_.size()) +
                                 " for " + schema_.to_string());
  }
}

TidSlots::TidSlots(const TidSlots& other) : pages_(other.pages_) {
  dense_.resize(other.dense_.size());
  for (std::size_t p = 0; p < dense_.size(); ++p) {
    if (other.dense_[p]) dense_[p] = std::make_unique<Page>(*other.dense_[p]);
  }
  for (const auto& [p, page] : other.sparse_) sparse_.emplace(p, std::make_unique<Page>(*page));
}

TidSlots& TidSlots::operator=(const TidSlots& other) {
  if (this != &other) *this = TidSlots(other);
  return *this;
}

void TidSlots::set(TupleId tid, std::uint32_t value) {
  const std::uint64_t p = tid.raw() >> kPageBits;
  std::unique_ptr<Page>* holder = nullptr;
  if (p < kDensePages) {
    if (p >= dense_.size()) {
      if (value == 0) return;
      dense_.resize(p + 1);
    }
    holder = &dense_[p];
  } else if (auto it = sparse_.find(p); it != sparse_.end()) {
    holder = &it->second;
  } else {
    if (value == 0) return;
    holder = &sparse_[p];
  }
  if (!*holder) {
    if (value == 0) return;
    *holder = spare_ ? std::move(spare_) : std::make_unique<Page>();
    ++pages_;
  }
  Page& page = **holder;
  std::uint32_t& slot = page.slots[tid.raw() & (kPageSize - 1)];
  if (slot == 0 && value != 0) ++page.live;
  if (slot != 0 && value == 0) --page.live;
  slot = value;
  if (page.live == 0) {
    spare_ = std::move(*holder);
    --pages_;
    if (p >= kDensePages) sparse_.erase(p);
  }
}

void TidSlots::clear() noexcept {
  dense_.clear();
  sparse_.clear();
  pages_ = 0;
}

void Relation::require_keyed(const char* op) const {
  if (!keyed_) {
    throw common::InvalidArgument(std::string("Relation::") + op +
                                  " needs a keyed table (keyed_table or key_by_tid)");
  }
}

void Relation::set_slot(TupleId tid, std::size_t row) {
  if (row + 1 >= std::numeric_limits<std::uint32_t>::max()) {
    throw common::InvalidArgument("Relation: a keyed table holds fewer than 2^32 - 1 rows");
  }
  slots_.set(tid, static_cast<std::uint32_t>(row + 1));
}

std::optional<std::size_t> Relation::indexed_row(TupleId tid) const noexcept {
  if (keyed_) {
    const std::uint32_t s = slots_.get(tid);
    if (s != 0) return s - 1;
  } else if (by_tid_) {
    auto it = by_tid_->find(tid);
    if (it != by_tid_->end()) return it->second;
  }
  return std::nullopt;
}

void Relation::reindex(TupleId tid, std::optional<std::size_t> row) {
  if (!tid.valid()) return;
  if (keyed_) {
    if (row) {
      set_slot(tid, *row);
    } else {
      slots_.set(tid, 0);
    }
  } else if (by_tid_) {
    if (row) {
      (*by_tid_)[tid] = *row;
    } else {
      by_tid_->erase(tid);
    }
  }
}

void Relation::sync_tid_index() {
  for (; tid_indexed_ < rows_.size(); ++tid_indexed_) {
    const TupleId tid = rows_[tid_indexed_].tid();
    if (tid.valid()) by_tid_->try_emplace(tid, tid_indexed_);
  }
}

Tuple Relation::remove_at(std::size_t idx) {
  Tuple removed = std::move(rows_[idx]);
  if (indexed_row(removed.tid()) == idx) reindex(removed.tid(), std::nullopt);
  const std::size_t last = rows_.size() - 1;
  if (idx != last) {
    rows_[idx] = std::move(rows_[last]);
    if (indexed_row(rows_[idx].tid()) == last) reindex(rows_[idx].tid(), idx);
  }
  rows_.pop_back();
  if (by_tid_) tid_indexed_ = rows_.size();
  return removed;
}

void Relation::key_by_tid() {
  if (keyed_) return;
  by_tid_.reset();
  tid_indexed_ = 0;
  keyed_ = true;
  try {
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const TupleId tid = rows_[i].tid();
      if (!tid.valid()) continue;
      if (slots_.get(tid) != 0) {
        throw common::InvalidArgument("Relation: duplicate tid " + tid.to_string() +
                                      " in a keyed table");
      }
      set_slot(tid, i);
    }
  } catch (...) {
    keyed_ = false;
    slots_.clear();
    throw;
  }
}

void Relation::insert(Tuple tuple) {
  check_arity(tuple);
  const TupleId tid = tuple.tid();
  if (!tid.valid()) throw common::InvalidArgument("Relation::insert requires a valid tid");
  require_keyed("insert");
  if (slots_.get(tid) != 0) {
    throw common::InvalidArgument("Relation::insert duplicate tid " + tid.to_string());
  }
  set_slot(tid, rows_.size());
  next_tid_ = std::max(next_tid_, tid.raw() + 1);
  rows_.push_back(std::move(tuple));
}

TupleId Relation::insert_values(std::vector<Value> values) {
  const TupleId tid(next_tid_);
  insert(Tuple(std::move(values), tid));
  return tid;
}

Tuple Relation::erase(TupleId tid) {
  require_keyed("erase");
  const std::uint32_t s = slots_.get(tid);
  if (s == 0) throw common::NotFound("Relation::erase: no tid " + tid.to_string());
  return remove_at(s - 1);
}

Tuple Relation::update(TupleId tid, std::vector<Value> values) {
  require_keyed("update");
  const std::uint32_t s = slots_.get(tid);
  if (s == 0) throw common::NotFound("Relation::update: no tid " + tid.to_string());
  Tuple replacement(std::move(values), tid);
  check_arity(replacement);
  return std::exchange(rows_[s - 1], std::move(replacement));
}

const Tuple* Relation::find(TupleId tid) const noexcept {
  if (keyed_) {
    const std::uint32_t s = slots_.get(tid);
    return s == 0 ? nullptr : &rows_[s - 1];
  }
  if (!tid.valid()) return nullptr;
  for (const auto& r : rows_) {
    if (r.tid() == tid) return &r;
  }
  return nullptr;
}

void Relation::append(Tuple tuple) {
  check_arity(tuple);
  const TupleId tid = tuple.tid();
  // A keyed table indexes a fresh tid; a repeated one stays unindexed.
  if (keyed_ && tid.valid() && slots_.get(tid) == 0) set_slot(tid, rows_.size());
  next_tid_ = std::max(next_tid_, tid.raw() + 1);
  rows_.push_back(std::move(tuple));
}

void Relation::require_positional(const char* op, std::size_t pos,
                                  std::size_t limit) const {
  if (keyed_ || by_tid_) {
    throw common::InvalidArgument(std::string("Relation::") + op +
                                  " needs a relation without a tid index");
  }
  if (pos >= limit) {
    throw common::InvalidArgument(std::string("Relation::") + op + " out of range");
  }
}

void Relation::replace_at(std::size_t pos, Tuple tuple) {
  require_positional("replace_at", pos, rows_.size());
  check_arity(tuple);
  next_tid_ = std::max(next_tid_, tuple.tid().raw() + 1);
  rows_[pos] = std::move(tuple);
}

void Relation::insert_at(std::size_t pos, Tuple tuple) {
  require_positional("insert_at", pos, rows_.size() + 1);
  check_arity(tuple);
  next_tid_ = std::max(next_tid_, tuple.tid().raw() + 1);
  rows_.insert(rows_.begin() + static_cast<std::ptrdiff_t>(pos), std::move(tuple));
}

void Relation::erase_at(std::size_t pos) {
  require_positional("erase_at", pos, rows_.size());
  rows_.erase(rows_.begin() + static_cast<std::ptrdiff_t>(pos));
}

bool Relation::remove_one_by_value(const Tuple& values) {
  if (by_tid_) sync_tid_index();
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    if (rows_[i].same_values(values)) {
      remove_at(i);
      return true;
    }
  }
  return false;
}

bool Relation::remove_one(const Tuple& tuple) {
  if (tuple.tid().valid()) {
    if (!keyed_) {
      if (!by_tid_) by_tid_.emplace();
      sync_tid_index();
    }
    if (const auto idx = indexed_row(tuple.tid())) {
      remove_at(*idx);
      return true;
    }
  }
  return remove_one_by_value(tuple);
}

bool Relation::equal_multiset(const Relation& other) const {
  if (size() != other.size()) return false;
  if (!schema_.union_compatible(other.schema_)) return false;
  TupleBag bag;
  for (const auto& r : rows_) bag.add(r, +1);
  for (const auto& r : other.rows_) bag.add(r, -1);
  return bag.all_zero();
}

std::size_t Relation::count_value(const Tuple& values) const {
  std::size_t n = 0;
  for (const auto& r : rows_) {
    if (r.same_values(values)) ++n;
  }
  return n;
}

std::string Relation::to_string(std::size_t max_rows) const {
  std::ostringstream os;
  os << schema_.to_string() << " [" << rows_.size() << " rows]\n";
  std::size_t shown = 0;
  for (const auto& r : sorted_rows()) {
    if (shown++ == max_rows) {
      os << "  ...\n";
      break;
    }
    os << "  " << r.to_string();
    if (r.tid().valid()) os << " @tid=" << r.tid().to_string();
    os << "\n";
  }
  return os.str();
}

std::size_t Relation::byte_size() const noexcept {
  std::size_t total = 0;
  for (const auto& r : rows_) total += r.byte_size();
  return total;
}

std::vector<Tuple> Relation::sorted_rows() const {
  std::vector<Tuple> out = rows_;
  std::sort(out.begin(), out.end(), [](const Tuple& a, const Tuple& b) {
    const std::size_t n = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < n; ++i) {
      auto c = a.values()[i].compare(b.values()[i]);
      if (c != std::strong_ordering::equal) return c == std::strong_ordering::less;
    }
    if (a.size() != b.size()) return a.size() < b.size();
    return a.tid() < b.tid();
  });
  return out;
}

void TupleBag::add(const Tuple& t, std::ptrdiff_t weight) {
  if ((entry(t).weight += weight) == 0) weights_.erase(t.values());
}

TupleBag::Entry& TupleBag::entry(const Tuple& t) {
  auto it = weights_.find(t);
  if (it == weights_.end()) it = weights_.emplace(t.values(), Entry{}).first;
  return it->second;
}

std::ptrdiff_t TupleBag::count(const Tuple& t) const {
  auto it = weights_.find(t);
  return it == weights_.end() ? 0 : it->second.weight;
}

bool TupleBag::all_zero() const {
  return std::all_of(weights_.begin(), weights_.end(),
                     [](const auto& kv) { return kv.second.weight == 0; });
}

}  // namespace cq::rel
