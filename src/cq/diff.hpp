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

  /// Two diffs are equivalent when they have the same net effect: every
  /// value's inserted-minus-deleted multiplicity matches (tids ignored).
  /// This is how DRA output is validated against the Propagate oracle.
  [[nodiscard]] bool equivalent(const DiffResult& other) const;

  /// consolidate() over `inserted` at +1 followed by `deleted` at −1:
  /// cancels rows present on both sides (no net change).
  [[nodiscard]] DiffResult consolidated() const;

  [[nodiscard]] std::string to_string() const;
};

/// Consolidate a signed row stream (every row weighs +1 or −1) into ΔQ.
/// With net(v) the summed weight of the rows with values v, a row survives
/// iff it is among the last |net(v)| rows of value v that carry net(v)'s
/// sign. Positive survivors become `inserted` and negative ones `deleted`,
/// each in stream order, reset to weight +1 and carrying the union of the
/// lineage sets of every value-v row: one net row can be produced by
/// several DRA terms (ΔS⋈T', S'⋈ΔT, ΔS⋈ΔT), each citing only its own
/// deltas.
[[nodiscard]] DiffResult consolidate(rel::Relation stream);

/// Compute Diff(before, after): consolidate() over `after` at +1 followed
/// by `before` at −1, so rows of `after` not in `before` become inserted and
/// rows of `before` not in `after` become deleted. Multiset semantics;
/// schemas must be union-compatible.
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
