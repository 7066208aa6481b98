#include "testing/dra_script.hpp"

#include <algorithm>
#include <compare>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "algebra/ops.hpp"
#include "catalog/database.hpp"
#include "catalog/transaction.hpp"
#include "common/clock.hpp"
#include "common/error.hpp"
#include "cq/dra.hpp"
#include "cq/manager.hpp"
#include "cq/propagate.hpp"
#include "query/ast.hpp"
#include "query/evaluate.hpp"
#include "relation/provenance.hpp"
#include "relation/schema.hpp"
#include "relation/value.hpp"
#include "testing/fuzz_input.hpp"

namespace cq::testing {
namespace {

using rel::Value;

// Script shape limits. Small on purpose: libFuzzer explores breadth, not
// depth, and every commit costs a CQ execution plus a full evaluation.
constexpr std::size_t kMaxSeedRows = 24;
constexpr std::size_t kMaxCommits = 24;
constexpr std::size_t kMaxOpsPerTxn = 4;

// Categories join S to T; a tiny domain keeps join fan-out and group
// counts interesting without exploding run time.
constexpr const char* kCategories[] = {"red", "green", "blue", "gold"};
constexpr std::size_t kCategoryCount = std::size(kCategories);

// Values stay small integers so incrementally maintained double sums
// (SUM/AVG) are bit-identical to recomputed ones: every intermediate is an
// integer far below 2^53, where IEEE doubles are exact regardless of the
// order of additions.
std::vector<Value> random_s_row(ByteReader& in) {
  std::vector<Value> row;
  row.reserve(4);
  row.emplace_back(static_cast<std::int64_t>(in.range(0, 99)));  // id
  row.emplace_back(kCategories[in.index(kCategoryCount)]);       // category
  if (in.index(8) == 0) {
    row.emplace_back(Value::null());  // NULL price: exercises skip-NULL aggs
  } else {
    row.emplace_back(static_cast<std::int64_t>(in.range(0, 400)));  // price
  }
  row.emplace_back(static_cast<std::int64_t>(in.range(0, 20)));  // qty
  return row;
}

std::vector<Value> random_t_row(ByteReader& in) {
  std::vector<Value> row;
  row.reserve(2);
  row.emplace_back(kCategories[in.index(kCategoryCount)]);       // category
  row.emplace_back(static_cast<std::int64_t>(in.range(0, 50)));  // bonus
  return row;
}

// A predicate over the (possibly qualified) S columns. `q` is the column
// qualifier prefix ("" or "s.").
//
// Every choice is read in its own statement, never two in one call's
// arguments: C++ leaves the order of argument evaluation open (GCC and
// Clang differ), and an input must decode to the same script under the
// clang-built fuzzer that finds it and the GCC-built replay that keeps it.
alg::ExprPtr random_predicate(ByteReader& in, const std::string& q, int depth) {
  using alg::CmpOp;
  using alg::Expr;
  if (depth > 0 && in.index(4) == 0) {
    auto lhs = random_predicate(in, q, depth - 1);
    auto rhs = random_predicate(in, q, depth - 1);
    switch (in.index(3)) {
      case 0: return Expr::logical_and(std::move(lhs), std::move(rhs));
      case 1: return Expr::logical_or(std::move(lhs), std::move(rhs));
      default: return Expr::logical_not(std::move(lhs));
    }
  }
  switch (in.index(6)) {
    case 0: {
      static constexpr CmpOp kOps[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt,
                                       CmpOp::kLe, CmpOp::kGt, CmpOp::kGe};
      const CmpOp op = kOps[in.index(std::size(kOps))];
      return Expr::col_cmp(q + "price", op,
                           Value(static_cast<std::int64_t>(in.range(0, 400))));
    }
    case 1: {
      const auto lo = in.range(0, 20);
      return Expr::between(Expr::col(q + "qty"), Value(static_cast<std::int64_t>(lo)),
                           Value(static_cast<std::int64_t>(lo + in.range(0, 10))));
    }
    case 2: {
      std::vector<Value> list{Value(kCategories[in.index(kCategoryCount)]),
                              Value(kCategories[in.index(kCategoryCount)])};
      return Expr::in_list(Expr::col(q + "category"), std::move(list), in.flip());
    }
    case 3:
      return Expr::like_prefix(Expr::col(q + "category"),
                               std::string(1, "rgb"[in.index(3)]));
    case 4: return Expr::is_null(Expr::col(q + "price"), in.flip());
    default: {
      // Arithmetic inside a comparison: price + qty <op> k.
      const CmpOp op = in.flip() ? CmpOp::kGt : CmpOp::kLe;
      return Expr::cmp(op,
                       Expr::arith(alg::ArithOp::kAdd, Expr::col(q + "price"),
                                   Expr::col(q + "qty")),
                       Expr::lit(Value(static_cast<std::int64_t>(in.range(0, 420)))));
    }
  }
}

qry::SpjQuery random_query(ByteReader& in, bool& uses_t) {
  using alg::AggKind;
  using alg::Expr;
  qry::SpjQuery query;
  uses_t = in.index(4) == 0;
  if (uses_t) {
    query.from = {{"S", "s"}, {"T", "t"}};
    auto join = Expr::cmp(alg::CmpOp::kEq, Expr::col("s.category"),
                          Expr::col("t.category"));
    query.where = in.flip()
                      ? Expr::logical_and(std::move(join), random_predicate(in, "s.", 1))
                      : std::move(join);
    if (in.flip()) {
      query.projection = {"s.id", "s.category", "t.bonus"};
    }
    query.distinct = in.index(4) == 0;
    return query;
  }
  query.from = {{"S", ""}};
  if (in.index(4) != 0) query.where = random_predicate(in, "", 2);
  if (in.index(3) == 0) {
    // Aggregate query: optional GROUP BY category, 1-2 aggregate columns.
    if (in.flip()) query.group_by = {"category"};
    static constexpr AggKind kKinds[] = {AggKind::kCount, AggKind::kSum,
                                         AggKind::kAvg, AggKind::kMin, AggKind::kMax};
    const std::size_t n_aggs = 1 + in.index(2);
    for (std::size_t i = 0; i < n_aggs; ++i) {
      const AggKind kind = kKinds[in.index(std::size(kKinds))];
      const std::string column =
          kind == AggKind::kCount && in.flip() ? "" : (in.flip() ? "price" : "qty");
      query.aggregates.push_back({kind, column, "a" + std::to_string(i)});
    }
    if (in.index(3) == 0) {
      const alg::CmpOp op = in.flip() ? alg::CmpOp::kGe : alg::CmpOp::kLt;
      query.having =
          Expr::col_cmp("a0", op, Value(static_cast<std::int64_t>(in.range(0, 200))));
    }
    if (!query.group_by.empty() && in.flip()) {
      query.order_by = {{"category", in.flip()}};
    }
  } else {
    if (in.flip()) query.projection = {"category", "price"};
    query.distinct = in.index(4) == 0;
    if (!query.distinct && in.index(4) == 0) query.order_by = {{"id", in.flip()}};
  }
  return query;
}

core::TriggerPtr random_trigger(ByteReader& in) {
  using namespace core::triggers;
  switch (in.index(6)) {
    case 0: return on_change();
    case 1: return change_count(1 + in.index(6));
    case 2:
      return aggregate_drift("S", "price", 1.0 + static_cast<double>(in.range(0, 300)));
    case 3: return periodic(common::Duration(1 + static_cast<int>(in.index(4))));
    case 4:
      return any_of({change_count(2 + in.index(4)),
                     aggregate_drift("S", "price", 50.0)});
    default: return all_of({on_change(), change_count(1 + in.index(3))});
  }
}

/// Attribute names of `schema`, in order, for the column-name check.
std::string column_names(const rel::Schema& schema) {
  std::string out = "(";
  for (const auto& attribute : schema.attributes()) {
    if (out.size() > 1) out += ", ";
    out += attribute.name;
  }
  return out + ")";
}

/// The independent oracle, run at install and after every commit. The
/// notification delivered since the previous call, if any (`seen` counts
/// those already checked), must match qry::evaluate(query, db) over `db`
/// as it is now, which is what that execution read: no commit lies between
/// an execution and this call. `previous` keeps the evaluation as of the
/// previous notification; `checks` counts the notifications compared.
///   * A step delivers at most one notification, CqStats::executions
///     equals the number delivered, and each one's sequence is its index.
///   * Both sides of the delta carry evaluate's column names.
///   * Sequence 0 has an empty delta and `complete` ≡ evaluate.
///   * Later, the delta ≡ diff(previous evaluate, evaluate), with the side
///     the delivery mode drops emptied; in kComplete, `complete` ≡
///     evaluate.
///   * An aggregate CQ's `aggregate` ≡ evaluate.
/// Results compare as multisets. Empty string = all match.
std::string check_against_evaluate(const cat::Database& db, const core::CqManager& mgr,
                                   const core::CollectingSink& sink,
                                   const qry::SpjQuery& query, core::DeliveryMode mode,
                                   std::optional<rel::Relation>& previous,
                                   std::size_t& seen, std::size_t& checks) {
  const auto& notifs = sink.notifications();
  const auto stats = mgr.cq_stats();
  const auto it = stats.find("cq");
  const std::uint64_t executions = it == stats.end() ? 0 : it->second.executions;
  std::ostringstream os;
  if (notifs.size() > seen + 1) {
    os << "one step delivered " << notifs.size() - seen << " notifications";
    return os.str();
  }
  if (executions != notifs.size()) {
    os << "executions " << executions << " vs " << notifs.size() << " notifications";
    return os.str();
  }
  if (notifs.size() == seen) return {};
  const core::Notification& n = notifs[seen];
  os << "notification " << seen << " ";
  if (n.sequence != seen) {
    os << "carries sequence " << n.sequence;
    return os.str();
  }
  ++seen;
  ++checks;
  rel::Relation expected = qry::evaluate(query, db);
  const std::string names = column_names(expected.schema());
  for (const rel::Relation* side : {&n.delta.inserted, &n.delta.deleted}) {
    if (column_names(side->schema()) != names) {
      os << "delta columns " << column_names(side->schema()) << " vs evaluate " << names;
      return os.str();
    }
  }
  auto differs = [&](const std::shared_ptr<const rel::Relation>& got) {
    return got == nullptr || !got->equal_multiset(expected);
  };
  if (n.sequence == 0) {
    if (!n.delta.empty()) {
      os << "initial execution delivered a delta:\n" << n.delta.to_string();
      return os.str();
    }
    if (differs(n.complete)) {
      os << "initial complete result differs from evaluate";
      return os.str();
    }
  } else {
    // Sequence 0 was checked first, so `previous` holds an evaluation.
    core::DiffResult want = core::diff(*previous, expected);
    if (mode == core::DeliveryMode::kInsertionsOnly) {
      want.deleted = rel::Relation(want.deleted.schema());
    } else if (mode == core::DeliveryMode::kDeletionsOnly) {
      want.inserted = rel::Relation(want.inserted.schema());
    }
    if (!n.delta.equivalent(want)) {
      os << "delta differs from diff(previous evaluate, evaluate):\nDRA "
         << n.delta.to_string() << "\nevaluate " << want.to_string();
      return os.str();
    }
    if (mode == core::DeliveryMode::kComplete && differs(n.complete)) {
      os << "complete result differs from evaluate";
      return os.str();
    }
  }
  if (query.is_aggregate() && differs(n.aggregate)) {
    os << "aggregate result differs from evaluate";
    return os.str();
  }
  previous = std::move(expected);
  return {};
}

/// Weights never escape the DRA: every row delivered since the last call
/// (`checked` counts the notifications already seen) and every row of the
/// live CQ's saved result weighs +1. Empty string = all do.
std::string check_unit_weights(const core::CqManager& mgr, core::CqHandle handle,
                               const core::CollectingSink& sink, std::size_t& checked) {
  auto weighted = [](const rel::Relation* r) {
    return r != nullptr && std::any_of(r->rows().begin(), r->rows().end(),
                                       [](const rel::Tuple& t) { return t.weight() != 1; });
  };
  const auto& notifs = sink.notifications();
  for (; checked < notifs.size(); ++checked) {
    const core::Notification& n = notifs[checked];
    if (weighted(&n.delta.inserted) || weighted(&n.delta.deleted) ||
        weighted(n.complete.get()) || weighted(n.aggregate.get())) {
      return "notification " + std::to_string(checked) + " delivers a row of weight != 1";
    }
  }
  const auto stats = mgr.cq_stats();
  if (const auto it = stats.find("cq"); it != stats.end() && !it->second.finished &&
                                        weighted(mgr.cq(handle).saved_result())) {
    return "saved result holds a row of weight != 1";
  }
  return {};
}

/// The grouped payload oracle, run at install and after every commit;
/// counts each comparison in `checks`. Empty string = equal.
///   * An aggregate CQ's `aggregate` payload in the latest notification,
///     which the CQ patches in place from each execution's aggregate-level
///     ΔQ, must equal the CQ's accumulators rebuilt from scratch
///     (current(), HAVING applied), row for row and in group-key order.
///   * A DISTINCT CQ's `complete` payload, when the latest notification
///     carries one and arrived since the previous check (`seen` counts the
///     notifications checked so far), must hold no duplicate row and come
///     in ascending value order (check_against_evaluate compares its
///     rows).
std::string check_grouped_payload(const core::CqManager& mgr, core::CqHandle handle,
                                  const core::CollectingSink& sink,
                                  const qry::SpjQuery& query, std::size_t& seen,
                                  std::size_t& checks) {
  const auto& notifs = sink.notifications();
  const bool fresh = notifs.size() > seen;
  seen = notifs.size();
  const auto stats = mgr.cq_stats();
  const auto it = stats.find("cq");
  if (it == stats.end() || it->second.finished || notifs.empty()) return {};
  const core::Notification& last = notifs.back();
  if (!query.is_aggregate()) {
    if (!query.distinct || !fresh || last.complete == nullptr) return {};
    ++checks;
    const auto& got = last.complete->rows();
    std::string error;
    for (std::size_t i = 1; error.empty() && i < got.size(); ++i) {
      std::strong_ordering order = std::strong_ordering::equal;
      for (std::size_t c = 0; order == 0 && c < got[i].size(); ++c) {
        order = got[i - 1].at(c).compare(got[i].at(c));
      }
      if (order == 0) error = "holds a duplicate row";
      if (order > 0) error = "is not in ascending order";
    }
    if (error.empty()) return {};
    return "DISTINCT payload " + error + ":\n" + last.complete->to_string(got.size());
  }
  const core::AggregateState* state = mgr.cq(handle).aggregate_state();
  if (state == nullptr) return {};
  if (last.aggregate == nullptr) return "aggregate CQ delivered no aggregate payload";
  rel::Relation expected = state->current();
  if (query.having) expected = alg::select(expected, *query.having);
  ++checks;
  const auto& got = last.aggregate->rows();
  bool same = got.size() == expected.size();
  for (std::size_t i = 0; same && i < got.size(); ++i) {
    same = got[i].same_values(expected.row(i));
  }
  if (same) return {};
  return "aggregate payload diverged from its accumulators:\npayload " +
         last.aggregate->to_string(got.size()) + "\ncurrent() " +
         expected.to_string(expected.size());
}

/// One line per delta row: its sorted provenance set as
/// "relation:txn:seq" triples. Provenance sets are canonically sorted, so
/// this is deterministic whenever the delivered stream itself is.
void append_lineage(std::ostringstream& os, const rel::Relation& r, char sign) {
  for (const auto& row : r.rows()) {
    os << "  " << sign << " prov{";
    if (row.prov() != nullptr) {
      const char* sep = "";
      for (const auto& id : *row.prov()) {
        os << sep << rel::prov::relation_name(id.rel) << ':' << id.txn << ':'
           << id.seq;
        sep = ",";
      }
    }
    os << "}\n";
  }
}

/// Deterministic serialization of the delivered stream (see
/// DraScriptReport::digest).
std::string stream_digest(const core::CqManager& mgr, const core::CollectingSink& sink,
                          bool lineage) {
  std::ostringstream os;
  for (const core::Notification& n : sink.notifications()) {
    os << n.cq_name << '#' << n.sequence << '@' << n.at.ticks() << '\n';
    os << n.delta.to_string() << '\n';
    if (lineage) {
      append_lineage(os, n.delta.inserted, '+');
      append_lineage(os, n.delta.deleted, '-');
    }
    // Print every row (the default to_string truncates at 50).
    if (n.complete) os << "complete:" << n.complete->to_string(n.complete->size()) << '\n';
    if (n.aggregate) {
      os << "aggregate:" << n.aggregate->to_string(n.aggregate->size()) << '\n';
    }
  }
  const auto stats = mgr.cq_stats();
  if (const auto it = stats.find("cq"); it != stats.end()) {
    const core::CqStats& s = it->second;
    os << "stats:" << s.executions << '/' << s.trigger_checks << '/' << s.fired << '/'
       << s.suppressed << '/' << s.delta_rows_consumed << '/' << s.rows_delivered << '/'
       << s.finished << '\n';
  }
  return os.str();
}

/// Every row of ΔQ in order, with its tid and weight.
std::string rows_in_order(const core::DiffResult& d) {
  std::ostringstream os;
  for (const rel::Relation* side : {&d.inserted, &d.deleted}) {
    os << (side == &d.inserted ? "+" : "-") << side->schema().to_string() << '\n';
    for (const auto& row : side->rows()) {
      os << row.to_string() << '@' << row.tid().to_string() << 'w' << row.weight() << '\n';
    }
  }
  return os.str();
}

}  // namespace

DraScriptReport run_dra_oracle_script(const std::uint8_t* data, std::size_t size) {
  return run_dra_oracle_script(data, size, DraScriptConfig{});
}

DraScriptReport run_dra_oracle_script(const std::uint8_t* data, std::size_t size,
                                      const DraScriptConfig& config) {
  ByteReader in(data, size);
  DraScriptReport report;

  bool uses_t = false;
  qry::SpjQuery query = random_query(in, uses_t);
  try {
    query.validate();
  } catch (const common::Error&) {
    return report;  // boring: generator produced an invalid shape
  }

  auto fail = [&](std::size_t commit_idx, const std::string& what) {
    std::ostringstream os;
    os << "DRA/evaluate divergence at commit " << commit_idx << ": " << what
       << "\n  query: " << query.to_string();
    report.ok = false;
    report.message = os.str();
    return report;
  };

  try {
    auto clock = std::make_shared<common::VirtualClock>();
    cat::Database db(clock);
    db.create_table("S", rel::Schema::of({{"id", rel::ValueType::kInt},
                                          {"category", rel::ValueType::kString},
                                          {"price", rel::ValueType::kInt},
                                          {"qty", rel::ValueType::kInt}}));
    db.create_table("T", rel::Schema::of({{"category", rel::ValueType::kString},
                                          {"bonus", rel::ValueType::kInt}}));
    const bool index_category = in.flip();
    const bool index_price = in.flip();
    if (index_category) db.create_index("S", "s_cat", {"category"});
    if (index_price) db.create_index("S", "s_price", {"price"});
    if (uses_t && index_category) db.create_index("T", "t_cat", {"category"});

    // Seed rows (committed before the CQ installs, so E_0 is non-trivial).
    struct LiveRow {
      std::string table;
      rel::TupleId tid;
    };
    std::vector<LiveRow> live;
    {
      auto txn = db.begin();
      const std::size_t seed_rows = in.index(kMaxSeedRows + 1);
      for (std::size_t i = 0; i < seed_rows; ++i) {
        const bool into_t = uses_t && in.index(3) == 0;
        const auto row = into_t ? random_t_row(in) : random_s_row(in);
        const std::string table = into_t ? "T" : "S";
        live.push_back({table, txn.insert(table, row)});
      }
      if (uses_t) {  // guarantee at least one T row so joins can match
        live.push_back({"T", txn.insert("T", random_t_row(in))});
      }
      txn.commit();
    }

    core::CqSpec spec;
    spec.name = "cq";
    spec.query = query;
    spec.trigger = random_trigger(in);
    if (in.index(4) == 0) spec.stop = core::stop::after_executions(2 + in.index(4));
    spec.mode = static_cast<core::DeliveryMode>(in.index(4));
    const core::DeliveryMode mode = spec.mode;
    // Three bytes that select nothing: reading them keeps every checked-in
    // corpus and regression input decoding to the same script.
    for (int unused = 0; unused < 3; ++unused) (void)in.flip();

    core::CqManager mgr(db);
    mgr.set_parallelism(config.eval_threads);
    // Lineage collection flips a process-global provenance flag; reset it
    // on every exit path so back-to-back script runs stay independent.
    struct ProvReset {
      bool active;
      ~ProvReset() {
        if (active) rel::prov::set_enabled(false);
      }
    } prov_reset{config.lineage};
    if (config.lineage) mgr.set_lineage(true, kMaxCommits + 8);
    auto sink = std::make_shared<core::CollectingSink>();

    core::CqHandle handle{};
    try {
      handle = mgr.install(spec, sink);
    } catch (const common::Error&) {
      return report;  // boring: the engine rejected the spec
    }

    const bool eager = in.flip();
    mgr.set_eager(eager);

    // Remember the initial state for the final direct DRA-vs-Propagate
    // check (non-aggregate, non-DISTINCT queries only: that is the SPJ
    // class dra_differential itself covers).
    const common::Timestamp install_ts = db.clock().now();
    std::optional<rel::Relation> initial_full;
    // The same class's program, compiled once against the install-time
    // table sizes, must keep matching a per-call compile as they change.
    std::optional<qry::SpjProgram> program;
    common::Timestamp checked_through = install_ts;
    std::vector<std::string> tables;
    for (const auto& ref : query.from) tables.push_back(ref.table);
    if (!query.is_aggregate() && !query.distinct) {
      initial_full = core::recompute(query, db);
      program = qry::compile(query, db);
    }

    std::optional<rel::Relation> evaluated;
    std::size_t evaluated_seen = 0;
    std::size_t weights_checked = 0;
    std::size_t payloads_seen = 0;
    // Every per-step check, after install and after each commit.
    auto check_step = [&]() -> std::string {
      if (auto m = check_against_evaluate(db, mgr, *sink, query, mode, evaluated,
                                          evaluated_seen, report.evaluate_checks);
          !m.empty()) {
        return m;
      }
      if (auto m = check_unit_weights(mgr, handle, *sink, weights_checked); !m.empty()) {
        return m;
      }
      return check_grouped_payload(mgr, handle, *sink, query, payloads_seen,
                                   report.payload_checks);
    };
    if (const auto m = check_step(); !m.empty()) return fail(0, m);

    // The transaction script.
    while (!in.empty() && report.commits < kMaxCommits) {
      if (in.index(4) == 0) {
        clock->advance(common::Duration(1 + static_cast<int>(in.index(3))));
      }
      auto txn = db.begin();
      const std::size_t ops = 1 + in.index(kMaxOpsPerTxn);
      for (std::size_t op = 0; op < ops; ++op) {
        const std::size_t kind = in.index(10);
        if (kind >= 7 && !live.empty()) {  // erase
          const std::size_t victim = in.index(live.size());
          const LiveRow row = live[victim];
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
          txn.erase(row.table, row.tid);
        } else if (kind >= 5 && !live.empty()) {  // modify
          const LiveRow& row = live[in.index(live.size())];
          txn.modify(row.table, row.tid,
                     row.table == "T" ? random_t_row(in) : random_s_row(in));
        } else if (kind == 4) {  // insert + erase in the same txn: net zero
          txn.erase("S", txn.insert("S", random_s_row(in)));
        } else {  // insert
          const bool into_t = uses_t && in.index(4) == 0;
          const auto row = into_t ? random_t_row(in) : random_s_row(in);
          const std::string table = into_t ? "T" : "S";
          live.push_back({table, txn.insert(table, row)});
        }
      }
      txn.commit();
      ++report.commits;
      if (!eager) (void)mgr.poll();
      if (const auto m = check_step(); !m.empty()) return fail(report.commits, m);
      if (program) {
        const std::string via_program = rows_in_order(
            core::dra_differential(*program, db, checked_through, nullptr, nullptr,
                                   core::snapshot_deltas(db, tables)));
        const std::string via_query =
            rows_in_order(core::dra_differential(query, db, checked_through));
        if (via_program != via_query) {
          return fail(report.commits, "install-time program vs per-call compile:\n" +
                                          via_program + "vs\n" + via_query);
        }
        ++report.program_checks;
        checked_through = db.clock().now();
      }
    }

    // Direct Section 4.2 check, bypassing the CQ layer: the DRA's ΔQ over
    // the whole script must match Propagate's full recompute + diff.
    if (initial_full) {
      const auto dra_delta = core::dra_differential(query, db, install_ts);
      const auto prop_delta = core::propagate(query, db, *initial_full);
      if (!dra_delta.consolidated().equivalent(prop_delta.consolidated())) {
        return fail(report.commits,
                    "direct dra_differential vs propagate mismatch:\nDRA " +
                        dra_delta.to_string() + "\noracle " + prop_delta.to_string());
      }
    }

    // Every delta row a notification cites must still exist in the
    // database's delta log with exactly that (relation, txn, seq) identity.
    if (config.lineage) {
      for (const core::Notification& n : sink->notifications()) {
        for (const rel::Relation* r : {&n.delta.inserted, &n.delta.deleted}) {
          for (const auto& row : r->rows()) {
            if (row.prov() == nullptr) continue;
            for (const auto& id : *row.prov()) {
              const std::string table = rel::prov::relation_name(id.rel);
              bool found = db.has_table(table);
              if (found) {
                found = false;
                for (const auto& d : db.delta(table).rows()) {
                  if (d.ts.ticks() == id.txn && d.seq == id.seq) {
                    found = true;
                    break;
                  }
                }
              }
              if (!found) {
                std::ostringstream os;
                os << "lineage cites a delta row missing from the log: Δ" << table
                   << " txn=" << id.txn << " seq=" << id.seq;
                return fail(report.commits, os.str());
              }
            }
          }
        }
      }
    }

    report.executions = mgr.cq_stats().at("cq").executions;
    report.digest = stream_digest(mgr, *sink, config.lineage);
  } catch (const common::Error& e) {
    return fail(report.commits, std::string("unexpected engine error: ") + e.what());
  }
  return report;
}

}  // namespace cq::testing
