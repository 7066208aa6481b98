// Scalar expression language: the predicates and projections of SPJ
// queries. Expressions are immutable trees shared by shared_ptr; rewriting
// (e.g. the DRA's substitution of A -> A_old / A_new over a differential
// relation, Section 4.2) produces new trees.
//
// Logic is two-valued with explicit IS NULL: any comparison or arithmetic
// touching a NULL evaluates to false / NULL respectively. This is
// deliberately simpler than SQL's three-valued logic and is applied
// consistently by both the DRA and the complete re-evaluation oracle.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "relation/schema.hpp"
#include "relation/tuple.hpp"

namespace cq::alg {

enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };
enum class ArithOp { kAdd, kSub, kMul, kDiv };
enum class BoolOp { kAnd, kOr, kNot };

[[nodiscard]] const char* to_string(CmpOp op) noexcept;
[[nodiscard]] const char* to_string(ArithOp op) noexcept;

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// One node of a scalar expression tree.
class Expr {
 public:
  enum class Kind {
    kLiteral,   // constant value
    kColumn,    // named column reference
    kCompare,   // child0 <op> child1
    kArith,     // child0 <op> child1
    kLogical,   // AND/OR (2 children) or NOT (1 child)
    kIsNull,    // child0 IS [NOT] NULL
    kIn,        // child0 [NOT] IN (literal list)
    kBetween,   // child0 BETWEEN lo AND hi (inclusive)
    kLike,      // child0 LIKE 'prefix%'  (prefix-match subset of LIKE)
  };

  // ---- factories ----
  [[nodiscard]] static ExprPtr lit(rel::Value v);
  [[nodiscard]] static ExprPtr col(std::string name);
  [[nodiscard]] static ExprPtr cmp(CmpOp op, ExprPtr lhs, ExprPtr rhs);
  [[nodiscard]] static ExprPtr arith(ArithOp op, ExprPtr lhs, ExprPtr rhs);
  [[nodiscard]] static ExprPtr logical_and(ExprPtr lhs, ExprPtr rhs);
  [[nodiscard]] static ExprPtr logical_or(ExprPtr lhs, ExprPtr rhs);
  [[nodiscard]] static ExprPtr logical_not(ExprPtr child);
  [[nodiscard]] static ExprPtr is_null(ExprPtr child, bool negated = false);
  [[nodiscard]] static ExprPtr in_list(ExprPtr child, std::vector<rel::Value> values,
                                       bool negated = false);
  [[nodiscard]] static ExprPtr between(ExprPtr child, rel::Value lo, rel::Value hi);
  [[nodiscard]] static ExprPtr like_prefix(ExprPtr child, std::string prefix);
  /// The always-true predicate (used when a selection has no condition).
  [[nodiscard]] static ExprPtr always_true();

  // Convenience comparison builders against a literal.
  [[nodiscard]] static ExprPtr col_cmp(std::string name, CmpOp op, rel::Value v) {
    return cmp(op, col(std::move(name)), lit(std::move(v)));
  }

  // ---- structure ----
  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] const rel::Value& literal() const noexcept { return literal_; }
  [[nodiscard]] const std::string& column() const noexcept { return column_; }
  [[nodiscard]] CmpOp cmp_op() const noexcept { return cmp_; }
  [[nodiscard]] ArithOp arith_op() const noexcept { return arith_; }
  [[nodiscard]] BoolOp bool_op() const noexcept { return logic_; }
  [[nodiscard]] bool negated() const noexcept { return negated_; }
  [[nodiscard]] const std::vector<ExprPtr>& children() const noexcept { return children_; }
  [[nodiscard]] const std::vector<rel::Value>& values() const noexcept { return values_; }
  [[nodiscard]] const std::string& prefix() const noexcept { return prefix_; }

  // ---- evaluation ----

  /// Deepest expression tree eval() will walk before raising InvalidArgument.
  /// Programmatically built trees can exceed the parser's nesting cap; the
  /// evaluator enforces its own ceiling so adversarial trees fail with a
  /// typed error instead of a stack overflow.
  static constexpr std::size_t kMaxEvalDepth = 512;

  /// Evaluate over one tuple described by `schema`. Throws NotFound when a
  /// referenced column is missing. Binds on every call: a loop over many
  /// rows should bind once (BoundExpr) instead.
  [[nodiscard]] rel::Value eval(const rel::Tuple& tuple, const rel::Schema& schema) const;

  /// Evaluate as a predicate: non-BOOL or NULL results count as false.
  [[nodiscard]] bool eval_bool(const rel::Tuple& tuple, const rel::Schema& schema) const;

  // ---- analysis / rewriting ----

  /// Append all referenced column names (with duplicates) to `out`.
  void collect_columns(std::vector<std::string>& out) const;

  /// Column names referenced, deduplicated, in first-seen order.
  [[nodiscard]] std::vector<std::string> columns() const;

  /// True if every referenced column resolves in `schema`.
  [[nodiscard]] bool resolves_in(const rel::Schema& schema) const;

  /// New tree with every column name c replaced by rename(c).
  template <typename Fn>
  [[nodiscard]] ExprPtr rewrite_columns(Fn&& rename) const {
    return rewrite_impl([&rename](const std::string& c) { return rename(c); });
  }

  [[nodiscard]] std::string to_string() const;

 private:
  Expr() = default;
  [[nodiscard]] static std::shared_ptr<Expr> make_node();
  [[nodiscard]] ExprPtr rewrite_impl(
      const std::function<std::string(const std::string&)>& rename) const;

  Kind kind_ = Kind::kLiteral;
  rel::Value literal_;
  std::string column_;
  CmpOp cmp_ = CmpOp::kEq;
  ArithOp arith_ = ArithOp::kAdd;
  BoolOp logic_ = BoolOp::kAnd;
  bool negated_ = false;
  std::vector<ExprPtr> children_;
  std::vector<rel::Value> values_;  // IN list, or BETWEEN {lo, hi}
  std::string prefix_;              // LIKE prefix
};

/// An expression bound to one schema: every column is resolved to a
/// position once, and a row is evaluated by reading its values in place
/// instead of looking each column up by name. This is the only evaluator;
/// Expr::eval/eval_bool bind and evaluate one row.
///
/// Errors keep their by-name timing: an unresolvable or ambiguous column
/// throws NotFound only when evaluation reaches it (AND/OR short-circuit
/// first), and a node deeper than Expr::kMaxEvalDepth throws
/// InvalidArgument only when reached. Binding stops at that depth, so an
/// adversarial tree costs bounded stack here too.
///
/// The bound form points into the tree: `expr` must outlive it. `schema`
/// is read only while binding.
class BoundExpr {
 public:
  BoundExpr(const Expr& expr, const rel::Schema& schema);

  [[nodiscard]] rel::Value eval(const rel::Tuple& row) const;

  /// Non-BOOL or NULL results count as false.
  [[nodiscard]] bool eval_bool(const rel::Tuple& row) const;

 private:
  enum class Slot : std::uint8_t { kReady, kUnresolved, kTooDeep };
  struct Node {
    const Expr* expr = nullptr;
    Slot slot = Slot::kReady;
    std::uint32_t index = 0;     // kColumn: row position, or errors_ entry
    std::uint32_t child[2] = {};  // nodes_ indexes of the first two children
  };

  std::uint32_t bind(const Expr& expr, const rel::Schema& schema, std::size_t depth);
  /// Value of node `i`: a reference into `row` or the tree when the node is
  /// a column or literal, else `out` after storing the computed value there.
  [[nodiscard]] const rel::Value& eval_ref(std::uint32_t i, const rel::Tuple& row,
                                           rel::Value& out) const;
  [[nodiscard]] bool truth(std::uint32_t i, const rel::Tuple& row) const;

  std::vector<Node> nodes_;
  std::vector<std::string> errors_;  // NotFound messages of unresolved columns
};

/// AND-combine a list of predicates (nullptr/empty -> always_true()).
[[nodiscard]] ExprPtr conjoin(const std::vector<ExprPtr>& conjuncts);

}  // namespace cq::alg
