// Incremental maintenance of aggregate query results on top of ΔQ.
//
// The paper's epsilon-query examples (Sections 3.2, 5.3) are aggregates —
// "SELECT SUM(amount) FROM CheckingAccounts" — refreshed differentially.
// AggregateState holds per-group accumulators that can both *add* and
// *remove* contributions, so a DiffResult from the DRA updates the
// aggregate in O(|ΔQ|) instead of O(|Q|):
//   SUM / COUNT / AVG: running sums and counts;
//   MIN / MAX:         a per-group ordered multiset of values (deletions
//                      may expose the second-smallest/-largest).
// With no aggregates the state is SELECT DISTINCT: group by every output
// column, and a group's row (its key) appears when its row count rises
// from zero and vanishes when it falls back; counts moving between
// positive values emit nothing.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "algebra/aggregate.hpp"
#include "cq/diff.hpp"
#include "relation/relation.hpp"

namespace cq::core {

class AggregateState {
 public:
  /// `spj_schema` is the schema of the SPJ core result the aggregates are
  /// computed over (i.e. of the relations later passed to apply()).
  AggregateState(rel::Schema spj_schema, std::vector<std::string> group_by,
                 std::vector<alg::AggSpec> specs);

  /// Reset to the aggregate of `spj_result` (used at CQ installation).
  void initialize(const rel::Relation& spj_result);

  /// Fold one differential result into the state and return the
  /// aggregate-level ΔQ in O(|delta| log groups): each touched group's
  /// row before the fold in `deleted`, its row after in `inserted`. A
  /// group whose row did not change emits nothing; one that appears or
  /// vanishes emits one side. Rows come in group-key order, so the result
  /// equals diff(current() before, current() after) row for row.
  DiffResult apply(const DiffResult& delta);

  /// Current aggregate relation, one row per group in group-key order;
  /// identical (as a multiset) to alg::group_aggregate(current SPJ result,
  /// group_by, specs). Builds every group's row: a CQ calls it only to
  /// prime or restore its payload, then patches that from apply()'s ΔQ.
  [[nodiscard]] rel::Relation current() const;

  /// Schema of current().
  [[nodiscard]] const rel::Schema& output_schema() const noexcept { return out_schema_; }

  /// Indexes of the GROUP BY columns in the SPJ schema (empty when
  /// ungrouped). Output rows of current() lead with these columns in the
  /// same order, so the first group_columns().size() values of an output
  /// row form its group key — lineage attachment relies on this layout.
  [[nodiscard]] const std::vector<std::size_t>& group_columns() const noexcept {
    return group_idx_;
  }

  /// Convenience for single-aggregate, ungrouped queries: the lone value
  /// (e.g. the running SUM). Throws when grouped or multi-aggregate.
  [[nodiscard]] rel::Value scalar() const;

 private:
  struct SpecState {
    std::int64_t non_null = 0;  // rows with a non-null input
    double dbl_sum = 0.0;
    std::int64_t int_sum = 0;
    bool is_double = false;
    // Ordered multiset for MIN/MAX.
    std::map<rel::Value, std::int64_t> values;
  };
  struct GroupState {
    std::int64_t rows = 0;  // total rows in the group (for group liveness)
    std::vector<SpecState> specs;
  };

  using GroupKey = std::vector<rel::Value>;

  [[nodiscard]] GroupKey group_key(const rel::Tuple& row) const;
  void fold_row(const rel::Tuple& row, std::int64_t weight);
  [[nodiscard]] rel::Value spec_result(const alg::AggSpec& spec,
                                       const SpecState& state) const;
  /// The output row of group `key`, or nullopt when the group is empty.
  [[nodiscard]] std::optional<rel::Tuple> group_row(const GroupKey& key) const;
  [[nodiscard]] rel::Tuple output_row(const GroupKey& key, const GroupState& group) const;

  rel::Schema spj_schema_;
  std::vector<std::string> group_by_;
  std::vector<alg::AggSpec> specs_;
  rel::Schema out_schema_;
  std::vector<std::size_t> group_idx_;
  std::vector<std::optional<std::size_t>> spec_idx_;

  struct KeyLess {
    bool operator()(const GroupKey& a, const GroupKey& b) const;
  };
  std::map<GroupKey, GroupState, KeyLess> groups_;
};

}  // namespace cq::core
