// Physical relational operators over in-memory relations. All operators are
// pure: they take snapshots and return a fresh Relation. They optionally
// record work done into a Metrics bag so benchmarks can report the paper's
// cost quantities (rows scanned, tuples compared).
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "algebra/expr.hpp"
#include "common/metrics.hpp"
#include "relation/relation.hpp"

namespace cq::alg {

/// σ_pred(input). Output rows keep their tids.
[[nodiscard]] rel::Relation select(const rel::Relation& input, const Expr& predicate,
                                   common::Metrics* metrics = nullptr);

/// σ_pred over `input`'s rows read under `schema` (same arity, e.g. the
/// alias-qualified form of a shared delta view), without copying `input`
/// first. The output carries `schema`.
[[nodiscard]] rel::Relation select(const rel::Relation& input, const rel::Schema& schema,
                                   const Expr& predicate,
                                   common::Metrics* metrics = nullptr);

/// π_columns(input). With dedup=true the output is a set (SELECT DISTINCT);
/// otherwise multiset projection. Tids are preserved when dedup=false.
[[nodiscard]] rel::Relation project(const rel::Relation& input,
                                    const std::vector<std::string>& columns, bool dedup,
                                    common::Metrics* metrics = nullptr);

/// Nested-loop θ-join. predicate may be null (cross product). Output schema
/// is left.schema().concat(right.schema()); output rows are tid-less.
[[nodiscard]] rel::Relation nested_loop_join(const rel::Relation& left,
                                             const rel::Relation& right,
                                             const Expr* predicate,
                                             common::Metrics* metrics = nullptr);

/// Hash equi-join on the given column pairs, with an optional residual
/// predicate applied to the concatenated row. Builds the hash table on the
/// smaller input.
[[nodiscard]] rel::Relation hash_join(
    const rel::Relation& left, const rel::Relation& right,
    const std::vector<std::pair<std::size_t, std::size_t>>& equi_pairs,
    const Expr* residual, common::Metrics* metrics = nullptr);

/// General join entry point: analyzes the predicate and picks hash join when
/// at least one equi pair exists, nested-loop otherwise.
[[nodiscard]] rel::Relation join(const rel::Relation& left, const rel::Relation& right,
                                 const ExprPtr& predicate,
                                 common::Metrics* metrics = nullptr);

/// Duplicate elimination by value.
[[nodiscard]] rel::Relation distinct(const rel::Relation& input);

}  // namespace cq::alg
