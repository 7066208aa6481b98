#include "catalog/database.hpp"

#include <algorithm>

#include "catalog/transaction.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"

namespace cq::cat {

// ------------------------------------------------------------ ShardLockSet --

namespace {
/// Innermost ShardLockSet frame on this thread — commits nested inside a
/// dispatch (a sink writing back) must not re-acquire shards the
/// enclosing commit already holds.
ShardLockSet** innermost_slot() noexcept {
  thread_local ShardLockSet* innermost = nullptr;
  return &innermost;
}
}  // namespace

ShardLockSet::ShardLockSet(const Database& db, std::uint32_t mask)
    : db_(&db), prev_(*innermost_slot()) {
  std::uint32_t held = 0;
  for (ShardLockSet* f = prev_; f != nullptr; f = f->prev_) {
    if (f->db_ == db_) held |= f->locked_;
  }
  const std::uint32_t to_lock = mask & ~held;
  for (std::size_t i = 0; i < Database::kNumShards; ++i) {
    if ((to_lock & (1u << i)) == 0) continue;
    db_->shards_[i].mu.lock();
    locked_ |= 1u << i;
  }
  *innermost_slot() = this;
}

ShardLockSet::~ShardLockSet() {
  for (std::size_t i = Database::kNumShards; i-- > 0;) {
    if ((locked_ & (1u << i)) != 0) db_->shards_[i].mu.unlock();
  }
  *innermost_slot() = prev_;
}

// ---------------------------------------------------------------- Database --

Database::Database(std::shared_ptr<common::Clock> clock) : clock_(std::move(clock)) {
  if (!clock_) throw common::InvalidArgument("Database: null clock");
  // The shard mutexes share one site and rank; the order key (shard
  // index + 1, zero means "no cohort") is what lets the lock-order
  // checker admit ascending-index acquisition of several of them.
  for (std::size_t i = 0; i < kNumShards; ++i) {
    shards_[i].mu.set_order_key(static_cast<std::uint32_t>(i + 1));
  }
}

Database::Database() : Database(std::make_shared<common::VirtualClock>()) {}

Database::Database(Database&& other) noexcept
    : clock_(std::move(other.clock_)),
      zones_(std::move(other.zones_)),
      commit_hook_(std::move(other.commit_hook_)),
      closure_hook_(std::move(other.closure_hook_)) {
  for (std::size_t i = 0; i < kNumShards; ++i) {
    shards_[i].mu.set_order_key(static_cast<std::uint32_t>(i + 1));
    shards_[i].tables = std::move(other.shards_[i].tables);
    shards_[i].commits.store(other.shards_[i].commits.load(std::memory_order_relaxed),
                             std::memory_order_relaxed);
  }
  // Our own ts_mu_ stays unlocked: *this is invisible mid-construction,
  // and a second same-rank "commit_ts" acquisition would trip the
  // lock-order checker.
  common::LockGuard lock(other.ts_mu_);
  commit_seq_ = other.commit_seq_;
}

std::size_t Database::shard_of(const std::string& name) noexcept {
  return std::hash<std::string>{}(name) % kNumShards;
}

std::uint32_t Database::shard_mask(const std::vector<std::string>& tables) noexcept {
  std::uint32_t mask = 0;
  for (const auto& name : tables) mask |= 1u << shard_of(name);
  return mask;
}

std::uint32_t Database::closure_mask(const std::vector<std::string>& write_set) const {
  const std::uint32_t mask = shard_mask(write_set);
  return closure_hook_ ? mask | closure_hook_(write_set) : mask;
}

common::Timestamp Database::allocate_commit_ts() {
  common::LockGuard lock(ts_mu_);
  ++commit_seq_;
  return clock_->tick();
}

std::uint64_t Database::commit_sequence() const {
  common::LockGuard lock(ts_mu_);
  return commit_seq_;
}

std::uint64_t Database::shard_commits(std::size_t i) const noexcept {
  if (i >= kNumShards) return 0;
  return shards_[i].commits.load(std::memory_order_relaxed);
}

rel::TupleId Database::reserve_tid(Table& table) {
  ShardLockSet lock(*this, 1u << shard_of(table.name));
  return table.base.reserve_tid();
}

void Database::unreserve_tid(Table& table, rel::TupleId tid) noexcept {
  ShardLockSet lock(*this, 1u << shard_of(table.name));
  table.base.unreserve_tid(tid);
}

void Database::create_table(const std::string& name, rel::Schema schema) {
  if (name.empty()) throw common::InvalidArgument("Database: empty table name");
  if (has_table(name)) {
    throw common::InvalidArgument("Database: table '" + name + "' already exists");
  }
  Shard& shard = shards_[shard_of(name)];
  ShardLockSet lock(*this, 1u << shard_of(name));
  auto [it, inserted] = shard.tables.emplace(name, Table(name, std::move(schema)));
  (void)inserted;
  it->second.delta.set_name(name);
}

bool Database::has_table(const std::string& name) const noexcept {
  return shards_[shard_of(name)].tables.contains(name);
}

std::vector<std::string> Database::table_names() const {
  std::vector<std::string> out;
  for (const auto& shard : shards_) {
    for (const auto& [name, table] : shard.tables) out.push_back(name);
  }
  std::sort(out.begin(), out.end());
  return out;
}

Table& Database::table_entry(const std::string& name) {
  auto& tables = shards_[shard_of(name)].tables;
  auto it = tables.find(name);
  if (it == tables.end()) throw common::NotFound("Database: no table '" + name + "'");
  return it->second;
}

const Table& Database::table_entry(const std::string& name) const {
  const auto& tables = shards_[shard_of(name)].tables;
  auto it = tables.find(name);
  if (it == tables.end()) throw common::NotFound("Database: no table '" + name + "'");
  return it->second;
}

const rel::Relation& Database::table(const std::string& name) const {
  return table_entry(name).base;
}

const delta::DeltaRelation& Database::delta(const std::string& name) const {
  return table_entry(name).delta;
}

void Table::apply_insert(rel::TupleId tid, std::vector<rel::Value> values) {
  base.insert(rel::Tuple(std::move(values), tid));
  const rel::Tuple& stored = *base.find(tid);
  base_bytes += stored.byte_size();
  for (auto& [index_name, index] : indexes) index.on_insert(stored);
}

rel::Tuple Table::apply_erase(rel::TupleId tid) {
  rel::Tuple old = base.erase(tid);
  base_bytes -= old.byte_size();
  for (auto& [index_name, index] : indexes) index.on_erase(old);
  return old;
}

rel::Tuple Table::apply_update(rel::TupleId tid, std::vector<rel::Value> values) {
  rel::Tuple old = base.update(tid, std::move(values));
  const rel::Tuple& stored = *base.find(tid);
  base_bytes += stored.byte_size();
  base_bytes -= old.byte_size();
  for (auto& [index_name, index] : indexes) index.on_update(old, stored);
  return old;
}

void Table::publish_gauges() const {
  namespace obs = common::obs;
  if (gauges_.rows == nullptr) {
    const obs::Labels labels{{"table", name}};
    gauges_.rows = &obs::global().gauge(obs::gauge::kRelationRows, labels);
    gauges_.bytes = &obs::global().gauge(obs::gauge::kRelationBytes, labels);
    gauges_.delta_rows = &obs::global().gauge(obs::gauge::kDeltaRows, labels);
    gauges_.delta_bytes = &obs::global().gauge(obs::gauge::kDeltaBytes, labels);
  }
  gauges_.rows->set(static_cast<std::int64_t>(base.size()));
  gauges_.bytes->set(static_cast<std::int64_t>(base_bytes));
  gauges_.delta_rows->set(static_cast<std::int64_t>(delta.size()));
  gauges_.delta_bytes->set(static_cast<std::int64_t>(delta.byte_size()));
}

void Database::create_index(const std::string& table, const std::string& index_name,
                            const std::vector<std::string>& columns) {
  if (index_name.empty()) throw common::InvalidArgument("Database: empty index name");
  if (columns.empty()) {
    throw common::InvalidArgument("Database: index needs at least one column");
  }
  Table& entry = table_entry(table);
  ShardLockSet lock(*this, 1u << shard_of(table));
  if (entry.indexes.contains(index_name)) {
    throw common::InvalidArgument("Database: index '" + index_name +
                                  "' already exists on '" + table + "'");
  }
  std::vector<std::size_t> positions;
  positions.reserve(columns.size());
  for (const auto& c : columns) positions.push_back(entry.base.schema().index_of(c));
  rel::MaintainedIndex index(std::move(positions));
  index.build(entry.base);
  entry.indexes.emplace(index_name, std::move(index));
}

const rel::MaintainedIndex* Database::index_on(
    const std::string& table, const std::vector<std::size_t>& columns) const {
  const Table& entry = table_entry(table);
  for (const auto& [name, index] : entry.indexes) {
    if (index.columns().size() != columns.size()) continue;
    bool all_found = true;
    for (auto c : columns) {
      bool found = false;
      for (auto ic : index.columns()) found = found || ic == c;
      if (!found) {
        all_found = false;
        break;
      }
    }
    if (all_found) return &index;
  }
  return nullptr;
}

const rel::MaintainedIndex& Database::index(const std::string& table,
                                            const std::string& index_name) const {
  const Table& entry = table_entry(table);
  auto it = entry.indexes.find(index_name);
  if (it == entry.indexes.end()) {
    throw common::NotFound("Database: no index '" + index_name + "' on '" + table + "'");
  }
  return it->second;
}

void Database::restore_table(const std::string& name, rel::Relation base,
                             delta::DeltaRelation log) {
  if (name.empty()) throw common::InvalidArgument("Database: empty table name");
  if (has_table(name)) {
    throw common::InvalidArgument("Database: table '" + name + "' already exists");
  }
  if (!(base.schema() == log.base_schema())) {
    throw common::SchemaMismatch("Database::restore_table: base/log schema mismatch");
  }
  // Decoded rows arrive through append; key them before the table serves
  // tid lookups.
  base.key_by_tid();
  Table table(name, base.schema());
  table.base = std::move(base);
  table.delta = std::move(log);
  table.delta.set_name(name);
  table.base_bytes = table.base.byte_size();  // one O(n) pass at restore
  Shard& shard = shards_[shard_of(name)];
  ShardLockSet lock(*this, 1u << shard_of(name));
  shard.tables.emplace(name, std::move(table));
}

std::vector<std::string> Database::index_names(const std::string& table) const {
  const Table& entry = table_entry(table);
  std::vector<std::string> out;
  out.reserve(entry.indexes.size());
  for (const auto& [name, index] : entry.indexes) out.push_back(name);
  return out;
}

Transaction Database::begin() { return Transaction(*this); }

rel::TupleId Database::insert(const std::string& table, std::vector<rel::Value> values) {
  Transaction txn = begin();
  const rel::TupleId tid = txn.insert(table, std::move(values));
  txn.commit();
  return tid;
}

void Database::erase(const std::string& table, rel::TupleId tid) {
  Transaction txn = begin();
  txn.erase(table, tid);
  txn.commit();
}

void Database::modify(const std::string& table, rel::TupleId tid,
                      std::vector<rel::Value> values) {
  Transaction txn = begin();
  txn.modify(table, tid, std::move(values));
  txn.commit();
}

std::size_t Database::garbage_collect() {
  namespace obs = common::obs;
  const common::Timestamp cutoff = zones_.system_zone_start().value_or(clock_->now());
  std::size_t reclaimed = 0;
  // One shard at a time: GC never stalls the whole commit pipeline, only
  // the shard it is truncating.
  for (std::size_t i = 0; i < kNumShards; ++i) {
    ShardLockSet lock(*this, 1u << i);
    for (auto& [name, table] : shards_[i].tables) {
      reclaimed += table.delta.truncate_before(cutoff);
      if (obs::enabled()) table.publish_gauges();
    }
  }
  obs::event(obs::Severity::kInfo, "gc_pass", "database",
             "reclaimed " + std::to_string(reclaimed) + " delta row(s), cutoff " +
                 cutoff.to_string(),
             clock_->now().ticks());
  if (reclaimed > 0) {
    common::log_debug("Database GC reclaimed ", reclaimed, " delta rows (cutoff ",
                      cutoff.to_string(), ")");
  }
  return reclaimed;
}

std::size_t Database::delta_bytes() const noexcept {
  std::size_t total = 0;
  for (std::size_t i = 0; i < kNumShards; ++i) {
    ShardLockSet lock(*this, 1u << i);
    for (const auto& [name, table] : shards_[i].tables) total += table.delta.byte_size();
  }
  return total;
}

void Database::refresh_resource_gauges() const {
  for (std::size_t i = 0; i < kNumShards; ++i) {
    ShardLockSet lock(*this, 1u << i);
    for (const auto& [name, table] : shards_[i].tables) table.publish_gauges();
  }
}

void Database::notify_commit(const std::vector<std::string>& tables,
                             common::Timestamp ts) {
  // Caller (Transaction::commit) holds the shard locks of the whole
  // commit closure, so the gauges and the dispatched CQ evaluations read
  // a stable snapshot of every table involved.
  const std::uint32_t touched_shards = shard_mask(tables);
  for (std::size_t i = 0; i < kNumShards; ++i) {
    if ((touched_shards & (1u << i)) != 0) {
      shards_[i].commits.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (common::obs::enabled()) {
    namespace obs = common::obs;
    // Keep the touched tables' resource gauges fresh: one O(1) publish per
    // table per commit (sizes and byte totals are maintained incrementally).
    for (const auto& name : tables) {
      const auto& shard_tables = shards_[shard_of(name)].tables;
      auto it = shard_tables.find(name);
      if (it != shard_tables.end()) it->second.publish_gauges();
    }
    for (std::size_t i = 0; i < kNumShards; ++i) {
      if ((touched_shards & (1u << i)) == 0) continue;
      const Shard& shard = shards_[i];
      if (shard.commits_gauge == nullptr) {
        shard.commits_gauge = &obs::global().gauge(
            obs::gauge::kShardCommits, obs::Labels{{"shard", std::to_string(i)}});
      }
      shard.commits_gauge->set(
          static_cast<std::int64_t>(shard.commits.load(std::memory_order_relaxed)));
    }
  }
  if (commit_hook_) {
    // The eager dispatch phase of the commit pipeline (trigger checks +
    // CQ evaluation + notification), as a child of the "commit" root span.
    common::obs::Span span("commit.dispatch");
    commit_hook_(tables, ts);
  }
}

}  // namespace cq::cat
