// The differential result type shared by the DRA and by the complete
// re-evaluation oracle: which rows entered the query result and which left
// it between two executions. This is the paper's Diff operator output
// (Section 4.2), i.e. ΔQ.
#pragma once

#include <string>
#include <vector>

#include "relation/relation.hpp"

namespace cq::core {

/// ΔQ between two executions: multiset of rows that entered (`inserted`)
/// and left (`deleted`) the result. A modified tuple that stays in the
/// result appears in both (old version in deleted, new in inserted).
struct DiffResult {
  rel::Relation inserted;
  rel::Relation deleted;

  [[nodiscard]] bool empty() const noexcept {
    return inserted.empty() && deleted.empty();
  }

  /// Total number of change rows.
  [[nodiscard]] std::size_t size() const noexcept {
    return inserted.size() + deleted.size();
  }

  /// Two diffs are equivalent when their inserted and deleted multisets
  /// match (tids ignored). This is how DRA output is validated against the
  /// Propagate oracle.
  [[nodiscard]] bool equivalent(const DiffResult& other) const;

  /// Cancel rows present in both inserted and deleted (no net change).
  /// Needed after summing truth-table terms, where a tuple can be produced
  /// positively by one term and negatively by another.
  [[nodiscard]] DiffResult consolidated() const;

  [[nodiscard]] std::string to_string() const;
};

/// Compute Diff(before, after): rows of `after` not in `before` become
/// inserted; rows of `before` not in `after` become deleted. Multiset
/// semantics; schemas must be union-compatible.
[[nodiscard]] DiffResult diff(const rel::Relation& before, const rel::Relation& after);

/// Apply a diff to a previous complete result:
///   next = previous − deleted ∪ inserted    (Section 4.2's complete-set
/// formula). Patches `previous` in O(|delta|) and returns it: pass an
/// rvalue to maintain a result in place, an lvalue to patch a copy.
/// Throws InternalError if a deleted row is absent from previous
/// (indicates an inconsistent diff).
[[nodiscard]] rel::Relation apply_diff(rel::Relation previous, const DiffResult& delta);

/// Classification of a diff by tid: rows modified in place (same tid on
/// both sides) vs pure insertions vs pure deletions. Used to present
/// results the way Section 4.2 describes (deletion notification etc.).
struct ClassifiedDiff {
  rel::Relation pure_insertions;
  rel::Relation pure_deletions;
  /// Pairs (old, new) for tuples whose tid appears on both sides.
  std::vector<std::pair<rel::Tuple, rel::Tuple>> modified;
};

[[nodiscard]] ClassifiedDiff classify(const DiffResult& delta);

}  // namespace cq::core
