// Differential relations (Section 4.1): the log of changes to one base
// relation, represented exactly as the paper describes —
//
//   | A1_old ... An_old | A1_new ... An_new | tid | ts |
//
// where insertions leave the old half null, deletions leave the new half
// null, and modifications carry both. A delta relation spans many
// transactions; rows older than every active CQ's last execution are
// reclaimed by garbage collection (Section 5.4, delta_zone.hpp).
//
// DeltaRelation only records and reclaims. Everything derived from the
// log — the net effect, insertions(ΔR), deletions(ΔR) and the wide layout
// above — is read through a delta::DeltaSnapshot (delta_snapshot.hpp),
// which pins the log against garbage collection while it reads. The pin
// API is private to the snapshot, so no other reader can exist.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/sync.hpp"
#include "common/timestamp.hpp"
#include "relation/provenance.hpp"
#include "relation/relation.hpp"
#include "relation/schema.hpp"

namespace cq::delta {

enum class ChangeKind { kInsert, kDelete, kModify };

[[nodiscard]] const char* to_string(ChangeKind kind) noexcept;

/// One differential tuple: the change made to the logical tuple `tid`.
struct DeltaRow {
  rel::TupleId tid;
  std::optional<std::vector<rel::Value>> old_values;  // absent for insert
  std::optional<std::vector<rel::Value>> new_values;  // absent for delete
  common::Timestamp ts;
  /// Position in the owning log, assigned by DeltaRelation::append (any
  /// caller-supplied value is overwritten). Together with ts it forms the
  /// row's lineage identity (rel::prov::ProvId); not part of the wire
  /// format — a restored log reassigns identical seqs in append order.
  std::uint64_t seq = 0;

  [[nodiscard]] ChangeKind kind() const noexcept {
    if (!old_values) return ChangeKind::kInsert;
    if (!new_values) return ChangeKind::kDelete;
    return ChangeKind::kModify;
  }

  /// Serialized size under the wire cost model (tid + ts + both halves).
  [[nodiscard]] std::size_t byte_size() const noexcept;
};

class DeltaRelation {
  /// Shared between the relation and its outstanding ReadPins: the pin
  /// count gates garbage collection. Held by shared_ptr so DeltaRelation
  /// stays movable (Table moves it) — copies of a DeltaRelation share the
  /// pin state, which is harmless: pins only ever make GC more cautious.
  struct PinState {
    common::Mutex mu{"delta_pins", common::lockorder::LockRank::kDeltaPins};
    std::size_t pins CQ_GUARDED_BY(mu) = 0;
  };

 public:
  /// `base_schema` is the schema of the relation whose changes we log.
  explicit DeltaRelation(rel::Schema base_schema);

  [[nodiscard]] const rel::Schema& base_schema() const noexcept { return base_schema_; }

  /// Name this log for lineage (normally the owning table's name, set by
  /// catalog::Database). Interns the name; cited ProvIds resolve back to
  /// it via rel::prov::relation_name().
  void set_name(const std::string& name);

  /// Interned lineage id of this relation (0 when never named).
  [[nodiscard]] std::uint32_t prov_rel() const noexcept { return prov_rel_; }

  /// Lineage identity of one physical row of this log.
  [[nodiscard]] rel::prov::ProvId prov_id_of(const DeltaRow& row) const noexcept {
    return {row.ts.ticks(), prov_rel_, row.seq};
  }

  // ---- recording (normally called by catalog::Database at commit) ----
  void record_insert(rel::TupleId tid, std::vector<rel::Value> values,
                     common::Timestamp ts);
  void record_delete(rel::TupleId tid, std::vector<rel::Value> old_values,
                     common::Timestamp ts);
  void record_modify(rel::TupleId tid, std::vector<rel::Value> old_values,
                     std::vector<rel::Value> new_values, common::Timestamp ts);

  /// Append an already-formed row (used by translators and tests). Rows must
  /// arrive in non-decreasing timestamp order.
  void append(DeltaRow row);

  [[nodiscard]] const std::vector<DeltaRow>& rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t size() const noexcept { return rows_.size(); }
  [[nodiscard]] bool empty() const noexcept { return rows_.empty(); }

  /// Timestamp of the most recent change, or nullopt when empty.
  [[nodiscard]] std::optional<common::Timestamp> latest() const noexcept;

  /// True when at least one change is strictly after `since`.
  [[nodiscard]] bool changed_since(common::Timestamp since) const noexcept;

  // ---- garbage collection (Section 5.4) ----

  /// Number of live read pins (diagnostics / tests).
  [[nodiscard]] std::size_t read_pins() const;

  /// Drop every row with ts <= `before`. Returns how many rows were
  /// dropped. While read pins are outstanding the call reclaims nothing
  /// and returns 0 — reclamation is simply retried by a later GC pass.
  std::size_t truncate_before(common::Timestamp before);

  /// Highest timestamp ever dropped by truncate_before, or nullopt when
  /// nothing has been reclaimed yet. Lets ContinualQuery::restore detect
  /// that the window (last_execution, now] it wants to roll back has been
  /// partially reclaimed, so it must re-prime instead of trusting a view
  /// derived from a truncated log.
  [[nodiscard]] std::optional<common::Timestamp> truncated_through() const noexcept {
    return truncated_through_;
  }

  /// Approximate memory footprint in bytes (wire cost model). O(1):
  /// maintained incrementally by append/truncate_before, so resource
  /// gauges and Database::delta_bytes never rescan the log.
  [[nodiscard]] std::size_t byte_size() const noexcept { return bytes_; }

  [[nodiscard]] std::string to_string(std::size_t max_rows = 50) const;

 private:
  friend class DeltaSnapshot;

  /// RAII read pin: while at least one pin is alive, truncate_before is a
  /// no-op, so a DeltaSnapshot can keep reading rows() without racing GC
  /// reclamation. Not copyable; pin_reads() returns it by guaranteed elision.
  class ReadPin {
   public:
    ReadPin(const ReadPin&) = delete;
    ReadPin& operator=(const ReadPin&) = delete;
    ~ReadPin();

   private:
    friend class DeltaRelation;
    explicit ReadPin(std::shared_ptr<PinState> state);

    std::shared_ptr<PinState> state_;
  };

  /// Pin the log against garbage collection for the lifetime of the
  /// returned handle. The pin mutex hand-off also gives a happens-before
  /// edge between the pinning thread and any GC pass it defers.
  [[nodiscard]] ReadPin pin_reads() const;

  void check_values(const std::optional<std::vector<rel::Value>>& values) const;

  rel::Schema base_schema_;
  std::uint32_t prov_rel_ = 0;   // interned lineage id; 0 = unnamed
  std::uint64_t next_seq_ = 0;   // monotone over the log's lifetime
  std::vector<DeltaRow> rows_;  // ts-ordered
  std::size_t bytes_ = 0;       // sum of rows_[i].byte_size()
  std::optional<common::Timestamp> truncated_through_;  // max ts reclaimed
  std::shared_ptr<PinState> pin_state_ = std::make_shared<PinState>();
};

}  // namespace cq::delta
