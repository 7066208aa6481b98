// The catalog: named base relations, each paired with its differential
// relation, sharing one clock. This is the paper's picture of an
// information source: updates arrive as transactions (Example 1), the
// system instantiates the differential relation as a side effect, and the
// DRA later reads (base, ΔR, timestamps) from here (Section 4.2 inputs).
//
// The catalog is *sharded* by relation for multi-writer commits: tables
// hash onto kNumShards shards, each with its own commit lock (site
// "commit_shard", a same-rank cohort ordered by shard index — see
// docs/lock-hierarchy.md). A committing transaction acquires only the
// shards its write set (plus the read closure of the CQs it can trigger)
// hashes to, in ascending shard order, so transactions over disjoint
// shard sets commit — and dispatch their notifications — concurrently.
// Timestamp allocation stays a single short critical section
// ("commit_ts") that totally orders commits.
//
// Concurrency contract: DDL (create_table / create_index /
// restore_table) and whole-catalog reads (table_names, index lookups)
// require commits to be quiesced — the table *maps* only change under
// DDL, which is why table()/delta() lookups stay lock-free. Rows inside
// a table are guarded by its shard's commit lock.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/observability.hpp"
#include "common/sync.hpp"
#include "delta/delta_relation.hpp"
#include "delta/delta_zone.hpp"
#include "relation/index.hpp"
#include "relation/relation.hpp"

namespace cq::cat {

class Transaction;
class ShardLockSet;

/// One base relation together with its change log and persistent indexes.
struct Table {
  /// The catalog name, as the shard map keys it.
  std::string name;
  rel::Relation base;
  delta::DeltaRelation delta;
  /// Indexes by name, kept in sync by the commit apply pass.
  std::map<std::string, rel::MaintainedIndex> indexes;
  /// Wire-cost bytes of `base`, maintained by the apply_* mutations so the
  /// resource gauges never rescan the relation.
  std::size_t base_bytes = 0;

  /// `base` starts keyed (rel::Relation::keyed_table): commits look rows up
  /// by tid through its slot table.
  Table(std::string table_name, rel::Schema schema)
      : name(std::move(table_name)),
        base(rel::Relation::keyed_table(schema)),
        delta(std::move(schema)) {}

  // Mutations that keep base, indexes, and byte accounting consistent
  // (used by Transaction). Each moves its values into the stored row and
  // reads that row for the indexes and the byte total; erase and update
  // return the displaced row.
  void apply_insert(rel::TupleId tid, std::vector<rel::Value> values);
  rel::Tuple apply_erase(rel::TupleId tid);
  rel::Tuple apply_update(rel::TupleId tid, std::vector<rel::Value> values);

  /// Publish this table's row/byte levels to the global observability
  /// registry (gauge families relation_rows/relation_bytes/delta_rows/
  /// delta_bytes, label table=`name`). Gauge refs resolve once.
  void publish_gauges() const;

 private:
  struct GaugeRefs {
    common::obs::Gauge* rows = nullptr;
    common::obs::Gauge* bytes = nullptr;
    common::obs::Gauge* delta_rows = nullptr;
    common::obs::Gauge* delta_bytes = nullptr;
  };
  mutable GaugeRefs gauges_;  // lazily resolved; stable for registry lifetime
};

class Database {
 public:
  /// Catalog shard fan-out. A power of two keeps the mask math cheap and
  /// 8 comfortably exceeds the writer parallelism the bench exercises;
  /// the shard lock cohort and the per-shard gauges are sized to it.
  static constexpr std::size_t kNumShards = 8;

  /// Databases share their clock with the CQ manager so commit timestamps
  /// and CQ execution timestamps are comparable.
  explicit Database(std::shared_ptr<common::Clock> clock);

  /// Convenience: a database with its own VirtualClock.
  Database();

  /// Move support for snapshot restore (persist::load_database builds a
  /// Database by value and hands it to a Mediator). The source must be
  /// quiescent — no in-flight transactions, no thread holding any of its
  /// shard locks; the moved-to database gets fresh locks of its own.
  Database(Database&& other) noexcept;
  Database& operator=(Database&&) = delete;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  [[nodiscard]] common::Clock& clock() const noexcept { return *clock_; }
  [[nodiscard]] std::shared_ptr<common::Clock> clock_ptr() const noexcept { return clock_; }

  /// Create an empty table. Throws InvalidArgument if the name is taken.
  void create_table(const std::string& name, rel::Schema schema);

  [[nodiscard]] bool has_table(const std::string& name) const noexcept;
  [[nodiscard]] std::vector<std::string> table_names() const;

  /// Read access to a table's current contents / change log. Lock-free:
  /// the shard maps only change under (quiesced) DDL. Callers racing
  /// concurrent commits must hold the table's shard lock (the eager
  /// dispatch path runs with the whole closure locked).
  [[nodiscard]] const rel::Relation& table(const std::string& name) const;
  [[nodiscard]] const delta::DeltaRelation& delta(const std::string& name) const;

  /// Shard index `name` hashes to (stable for the database's lifetime).
  [[nodiscard]] static std::size_t shard_of(const std::string& name) noexcept;

  /// Commits applied through shard `i` so far.
  [[nodiscard]] std::uint64_t shard_commits(std::size_t i) const noexcept;

  /// Total commits allocated a timestamp so far.
  [[nodiscard]] std::uint64_t commit_sequence() const;

  // ---- persistent indexes ----

  /// Create and build a maintained index named `index_name` over the given
  /// (bare) column names of `table`. Throws if the name is taken.
  void create_index(const std::string& table, const std::string& index_name,
                    const std::vector<std::string>& columns);

  /// An index of `table` whose key is exactly `columns` (bare names, any
  /// order); nullptr when none exists. The second element gives the index's
  /// own column order as base-schema positions.
  [[nodiscard]] const rel::MaintainedIndex* index_on(
      const std::string& table, const std::vector<std::size_t>& columns) const;

  /// Names of the indexes defined on `table`.
  [[nodiscard]] std::vector<std::string> index_names(const std::string& table) const;

  /// Index key columns (base-schema positions) of a named index.
  [[nodiscard]] const rel::MaintainedIndex& index(const std::string& table,
                                                  const std::string& index_name) const;

  /// Snapshot-restore machinery (persist::load_database): install `name`
  /// with the given base contents and differential log verbatim — no new
  /// delta rows are generated. Keys `base` by tid. Throws if the table
  /// already exists, the schemas disagree, or two base rows share a tid.
  void restore_table(const std::string& name, rel::Relation base,
                     delta::DeltaRelation log);

  /// Begin a transaction. Nothing is visible until commit(); commit stamps
  /// every change of the transaction with one fresh timestamp and appends
  /// the transaction's net effect to the differential relations.
  [[nodiscard]] Transaction begin();

  // ---- single-statement conveniences (one-op transactions) ----
  rel::TupleId insert(const std::string& table, std::vector<rel::Value> values);
  void erase(const std::string& table, rel::TupleId tid);
  void modify(const std::string& table, rel::TupleId tid, std::vector<rel::Value> values);

  // ---- garbage collection (Section 5.4) ----

  /// The registry of active CQ delta zones. The CQ manager registers each
  /// CQ here and advances its zone after every execution.
  [[nodiscard]] delta::DeltaZoneRegistry& zones() noexcept { return zones_; }
  [[nodiscard]] const delta::DeltaZoneRegistry& zones() const noexcept { return zones_; }

  /// Drop every delta row outside the system active delta zone. With no
  /// registered CQ, drops everything up to `now`. Locks one shard at a
  /// time, so it interleaves with concurrent commits to other shards.
  /// Returns rows reclaimed.
  std::size_t garbage_collect();

  /// Total bytes held by all differential relations.
  [[nodiscard]] std::size_t delta_bytes() const noexcept;

  /// Publish every table's resource gauges to the global observability
  /// registry. Commits keep the gauges of the tables they touch fresh;
  /// scrape paths call this to cover tables untouched since enabling
  /// collection. O(#tables).
  void refresh_resource_gauges() const;

  /// Hook invoked after every commit (used for eager trigger evaluation,
  /// Section 5.3 strategy 1). Receives the names of the tables the commit
  /// touched and the commit timestamp. Runs *while the commit's shard
  /// lock set is held*, so everything it reads through the closure (see
  /// set_commit_closure_hook) is stable and conflicting commits observe
  /// exactly the sequential dispatch order.
  using CommitHook =
      std::function<void(const std::vector<std::string>&, common::Timestamp)>;
  void set_commit_hook(CommitHook hook) { commit_hook_ = std::move(hook); }

  /// Closure hook: given a commit's write set, return the shard mask
  /// (bit i = shard i) of every further table the commit hook will read
  /// (the read sets of the CQs the write set can trigger). Commit acquires
  /// the shard locks of the write set and of this mask, so disjoint-closure
  /// commits run fully concurrently while commits sharing a CQ serialize.
  /// Without a hook the closure is the write set.
  using ClosureHook = std::function<std::uint32_t(const std::vector<std::string>& write_set)>;
  void set_commit_closure_hook(ClosureHook hook) { closure_hook_ = std::move(hook); }

 private:
  friend class Transaction;
  friend class ShardLockSet;

  /// One catalog shard: the tables hashing here plus the commit lock that
  /// guards their rows (and this map's structure, outside quiesced DDL).
  /// The shard mutexes form a rank cohort — every shard shares the
  /// "commit_shard" site and rank, and carries order key (index + 1) so
  /// the lock-order checker admits only ascending-index acquisition.
  struct Shard {
    mutable common::Mutex mu{"commit_shard",
                             common::lockorder::LockRank::kCommitShard};
    std::map<std::string, Table> tables;
    std::atomic<std::uint64_t> commits{0};
    mutable common::obs::Gauge* commits_gauge = nullptr;  // lazily resolved
  };

  [[nodiscard]] Table& table_entry(const std::string& name);
  [[nodiscard]] const Table& table_entry(const std::string& name) const;

  /// Shard-mask of a table list (bit i = shard i).
  [[nodiscard]] static std::uint32_t shard_mask(
      const std::vector<std::string>& tables) noexcept;

  /// Shard mask of the commit closure of `write_set`: the write set's
  /// shards plus whatever the closure hook adds.
  [[nodiscard]] std::uint32_t closure_mask(const std::vector<std::string>& write_set) const;

  /// Allocate the commit timestamp and the global commit sequence number
  /// as one atomic step (the "commit_ts" critical section). Called with
  /// the commit's shard locks held, so per-relation delta appends stay
  /// timestamp-ordered.
  [[nodiscard]] common::Timestamp allocate_commit_ts();

  /// Reserve / return a tid under the table's shard lock (Transaction
  /// insert/abort — reservation must not race concurrent writers).
  [[nodiscard]] rel::TupleId reserve_tid(Table& table);
  void unreserve_tid(Table& table, rel::TupleId tid) noexcept;

  void notify_commit(const std::vector<std::string>& tables, common::Timestamp ts);

  std::shared_ptr<common::Clock> clock_;
  std::array<Shard, kNumShards> shards_;
  mutable common::Mutex ts_mu_{"commit_ts", common::lockorder::LockRank::kCommitTs};
  std::uint64_t commit_seq_ CQ_GUARDED_BY(ts_mu_) = 0;
  delta::DeltaZoneRegistry zones_;
  CommitHook commit_hook_;
  ClosureHook closure_hook_;
};

/// RAII acquisition of a set of catalog shard locks, always in ascending
/// shard order (the cohort discipline the lock-order checker enforces).
/// Reentrancy-aware: shards already held by an enclosing ShardLockSet on
/// this thread (e.g. a result sink committing during eager dispatch) are
/// not re-acquired — but such nested commits may only *add* shards above
/// the highest one held, or the runtime checker dies loudly; locking a
/// lower shard from inside a dispatch is a deadlock under concurrency.
class ShardLockSet {
 public:
  ShardLockSet(const Database& db, std::uint32_t mask);
  ~ShardLockSet();
  ShardLockSet(const ShardLockSet&) = delete;
  ShardLockSet& operator=(const ShardLockSet&) = delete;

 private:
  const Database* db_;
  std::uint32_t locked_ = 0;      // shards this frame acquired itself
  ShardLockSet* prev_ = nullptr;  // enclosing frame on this thread
};

}  // namespace cq::cat
