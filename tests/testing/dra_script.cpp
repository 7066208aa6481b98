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
// depth, and every commit costs two full CQ pipelines.
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

// Compares the two pipelines after one step; empty string = agree.
std::string compare_step(const core::CqManager& dra_mgr,
                         const core::CqManager& oracle_mgr,
                         const core::CollectingSink& dra_sink,
                         const core::CollectingSink& oracle_sink) {
  const auto dra_all = dra_mgr.cq_stats();
  const auto oracle_all = oracle_mgr.cq_stats();
  const auto dra_it = dra_all.find("cq");
  const auto oracle_it = oracle_all.find("cq");
  if ((dra_it == dra_all.end()) != (oracle_it == oracle_all.end())) {
    return "stats registry disagrees on CQ presence";
  }
  if (dra_it != dra_all.end()) {
    const core::CqStats& a = dra_it->second;
    const core::CqStats& b = oracle_it->second;
    std::ostringstream os;
    if (a.executions != b.executions) {
      os << "executions " << a.executions << " vs " << b.executions;
    } else if (a.trigger_checks != b.trigger_checks) {
      os << "trigger_checks " << a.trigger_checks << " vs " << b.trigger_checks;
    } else if (a.fired != b.fired) {
      os << "fired " << a.fired << " vs " << b.fired;
    } else if (a.suppressed != b.suppressed) {
      os << "suppressed " << a.suppressed << " vs " << b.suppressed;
    } else if (a.finished != b.finished) {
      os << "finished " << a.finished << " vs " << b.finished;
    }
    if (const auto s = os.str(); !s.empty()) return "stats diverged: " + s;
  }
  const auto& dra_notifs = dra_sink.notifications();
  const auto& oracle_notifs = oracle_sink.notifications();
  if (dra_notifs.size() != oracle_notifs.size()) {
    std::ostringstream os;
    os << "notification counts diverged: " << dra_notifs.size() << " vs "
       << oracle_notifs.size();
    return os.str();
  }
  for (std::size_t i = 0; i < dra_notifs.size(); ++i) {
    const core::Notification& a = dra_notifs[i];
    const core::Notification& b = oracle_notifs[i];
    std::ostringstream os;
    os << "notification " << i << " ";
    if (a.sequence != b.sequence) {
      os << "sequence " << a.sequence << " vs " << b.sequence;
      return os.str();
    }
    if (!a.delta.equivalent(b.delta)) {
      os << "delta diverged:\nDRA " << a.delta.to_string() << "\noracle "
         << b.delta.to_string();
      return os.str();
    }
    if ((a.complete != nullptr) != (b.complete != nullptr) ||
        (a.complete && !a.complete->equal_multiset(*b.complete))) {
      os << "complete result diverged";
      return os.str();
    }
    if ((a.aggregate != nullptr) != (b.aggregate != nullptr) ||
        (a.aggregate && !a.aggregate->equal_multiset(*b.aggregate))) {
      os << "aggregate result diverged";
      return os.str();
    }
  }
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
///     notifications checked so far), so that it reflects `db` as it is
///     now, must equal qry::evaluate(query) as a multiset, hold no
///     duplicate row and come in ascending value order.
std::string check_grouped_payload(const cat::Database& db, const core::CqManager& mgr,
                                  core::CqHandle handle, const core::CollectingSink& sink,
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
    const rel::Relation expected = qry::evaluate(query, db);
    const auto& got = last.complete->rows();
    std::string error;
    if (!last.complete->equal_multiset(expected)) error = "differs from a fresh evaluation";
    for (std::size_t i = 1; error.empty() && i < got.size(); ++i) {
      std::strong_ordering order = std::strong_ordering::equal;
      for (std::size_t c = 0; order == 0 && c < got[i].size(); ++c) {
        order = got[i - 1].at(c).compare(got[i].at(c));
      }
      if (order == 0) error = "holds a duplicate row";
      if (order > 0) error = "is not in ascending order";
    }
    if (error.empty()) return {};
    return "DISTINCT payload " + error + ":\npayload " +
           last.complete->to_string(got.size()) + "\nevaluate " +
           expected.to_string(expected.size());
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
    os << "DRA/oracle divergence at commit " << commit_idx << ": " << what
       << "\n  query: " << query.to_string();
    report.ok = false;
    report.message = os.str();
    return report;
  };

  try {
    // Two databases, two virtual clocks, driven in lockstep: identical op
    // sequences produce identical tids and commit timestamps on both sides.
    auto dra_clock = std::make_shared<common::VirtualClock>();
    auto oracle_clock = std::make_shared<common::VirtualClock>();
    cat::Database dra_db(dra_clock);
    cat::Database oracle_db(oracle_clock);
    const auto s_schema = rel::Schema::of({{"id", rel::ValueType::kInt},
                                           {"category", rel::ValueType::kString},
                                           {"price", rel::ValueType::kInt},
                                           {"qty", rel::ValueType::kInt}});
    const auto t_schema = rel::Schema::of(
        {{"category", rel::ValueType::kString}, {"bonus", rel::ValueType::kInt}});
    for (cat::Database* db : {&dra_db, &oracle_db}) {
      db->create_table("S", s_schema);
      db->create_table("T", t_schema);
    }
    const bool index_category = in.flip();
    const bool index_price = in.flip();
    for (cat::Database* db : {&dra_db, &oracle_db}) {
      if (index_category) db->create_index("S", "s_cat", {"category"});
      if (index_price) db->create_index("S", "s_price", {"price"});
      if (uses_t && index_category) db->create_index("T", "t_cat", {"category"});
    }

    // Seed rows (committed before the CQ installs, so E_0 is non-trivial).
    struct LiveRow {
      std::string table;
      rel::TupleId dra_tid;
      rel::TupleId oracle_tid;
    };
    std::vector<LiveRow> live;
    {
      auto dra_txn = dra_db.begin();
      auto oracle_txn = oracle_db.begin();
      const std::size_t seed_rows = in.index(kMaxSeedRows + 1);
      for (std::size_t i = 0; i < seed_rows; ++i) {
        const bool into_t = uses_t && in.index(3) == 0;
        const auto row = into_t ? random_t_row(in) : random_s_row(in);
        const std::string table = into_t ? "T" : "S";
        live.push_back({table, dra_txn.insert(table, row), oracle_txn.insert(table, row)});
      }
      if (uses_t) {  // guarantee at least one T row so joins can match
        const auto row = random_t_row(in);
        live.push_back({"T", dra_txn.insert("T", row), oracle_txn.insert("T", row)});
      }
      dra_txn.commit();
      oracle_txn.commit();
    }

    core::CqSpec spec;
    spec.name = "cq";
    spec.query = query;
    spec.trigger = random_trigger(in);
    if (in.index(4) == 0) spec.stop = core::stop::after_executions(2 + in.index(4));
    spec.mode = static_cast<core::DeliveryMode>(in.index(4));
    // Three bytes that select nothing: reading them keeps every checked-in
    // corpus and regression input decoding to the same script.
    for (int unused = 0; unused < 3; ++unused) (void)in.flip();

    core::CqManager dra_mgr(dra_db);
    core::CqManager oracle_mgr(oracle_db);
    dra_mgr.set_parallelism(config.eval_threads);
    oracle_mgr.set_parallelism(config.eval_threads);
    // Lineage collection flips a process-global provenance flag; reset it
    // on every exit path so back-to-back script runs stay independent.
    struct ProvReset {
      bool active;
      ~ProvReset() {
        if (active) rel::prov::set_enabled(false);
      }
    } prov_reset{config.lineage};
    if (config.lineage) dra_mgr.set_lineage(true, kMaxCommits + 8);
    auto dra_sink = std::make_shared<core::CollectingSink>();
    auto oracle_sink = std::make_shared<core::CollectingSink>();

    spec.strategy = core::ExecutionStrategy::kDra;
    bool dra_installed = true;
    core::CqHandle dra_handle{};
    try {
      dra_handle = dra_mgr.install(spec, dra_sink);
    } catch (const common::Error&) {
      dra_installed = false;
    }
    spec.strategy = core::ExecutionStrategy::kRecompute;
    bool oracle_installed = true;
    try {
      (void)oracle_mgr.install(spec, oracle_sink);
    } catch (const common::Error&) {
      oracle_installed = false;
    }
    if (dra_installed != oracle_installed) {
      return fail(0, "install succeeded on one side only");
    }
    if (!dra_installed) return report;  // boring: both rejected the spec

    const bool eager = in.flip();
    dra_mgr.set_eager(eager);
    oracle_mgr.set_eager(eager);

    // Remember the initial state for the final direct DRA-vs-Propagate
    // check (non-aggregate, non-DISTINCT queries only: that is the SPJ
    // class dra_differential itself covers).
    const common::Timestamp install_ts = dra_db.clock().now();
    std::optional<rel::Relation> initial_full;
    // The same class's program, compiled once against the install-time
    // table sizes, must keep matching a per-call compile as they change.
    std::optional<qry::SpjProgram> program;
    common::Timestamp checked_through = install_ts;
    std::vector<std::string> tables;
    for (const auto& ref : query.from) tables.push_back(ref.table);
    if (!query.is_aggregate() && !query.distinct) {
      initial_full = core::recompute(query, dra_db);
      program = qry::compile(query, dra_db);
    }

    std::size_t weights_checked = 0;
    if (const auto m = compare_step(dra_mgr, oracle_mgr, *dra_sink, *oracle_sink);
        !m.empty()) {
      return fail(0, m);
    }
    if (const auto m = check_unit_weights(dra_mgr, dra_handle, *dra_sink, weights_checked);
        !m.empty()) {
      return fail(0, m);
    }
    std::size_t payloads_seen = 0;
    if (const auto m = check_grouped_payload(dra_db, dra_mgr, dra_handle, *dra_sink, query,
                                             payloads_seen, report.payload_checks);
        !m.empty()) {
      return fail(0, m);
    }

    // The transaction script.
    while (!in.empty() && report.commits < kMaxCommits) {
      if (in.index(4) == 0) {
        const common::Duration jump(1 + static_cast<int>(in.index(3)));
        dra_clock->advance(jump);
        oracle_clock->advance(jump);
      }
      auto dra_txn = dra_db.begin();
      auto oracle_txn = oracle_db.begin();
      const std::size_t ops = 1 + in.index(kMaxOpsPerTxn);
      for (std::size_t op = 0; op < ops; ++op) {
        const std::size_t kind = in.index(10);
        if (kind >= 7 && !live.empty()) {  // erase
          const std::size_t victim = in.index(live.size());
          const LiveRow row = live[victim];
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
          dra_txn.erase(row.table, row.dra_tid);
          oracle_txn.erase(row.table, row.oracle_tid);
        } else if (kind >= 5 && !live.empty()) {  // modify
          const std::size_t victim = in.index(live.size());
          const LiveRow& row = live[victim];
          const auto values = row.table == "T" ? random_t_row(in) : random_s_row(in);
          dra_txn.modify(row.table, row.dra_tid, values);
          oracle_txn.modify(row.table, row.oracle_tid, values);
        } else if (kind == 4) {  // insert + erase in the same txn: net zero
          const auto row = random_s_row(in);
          dra_txn.erase("S", dra_txn.insert("S", row));
          oracle_txn.erase("S", oracle_txn.insert("S", row));
        } else {  // insert
          const bool into_t = uses_t && in.index(4) == 0;
          const auto row = into_t ? random_t_row(in) : random_s_row(in);
          const std::string table = into_t ? "T" : "S";
          live.push_back(
              {table, dra_txn.insert(table, row), oracle_txn.insert(table, row)});
        }
      }
      dra_txn.commit();
      oracle_txn.commit();
      ++report.commits;
      if (!eager) {
        (void)dra_mgr.poll();
        (void)oracle_mgr.poll();
      }
      if (const auto m = compare_step(dra_mgr, oracle_mgr, *dra_sink, *oracle_sink);
          !m.empty()) {
        return fail(report.commits, m);
      }
      if (const auto m =
              check_unit_weights(dra_mgr, dra_handle, *dra_sink, weights_checked);
          !m.empty()) {
        return fail(report.commits, m);
      }
      if (const auto m = check_grouped_payload(dra_db, dra_mgr, dra_handle, *dra_sink,
                                               query, payloads_seen, report.payload_checks);
          !m.empty()) {
        return fail(report.commits, m);
      }
      if (program) {
        const std::string via_program = rows_in_order(
            core::dra_differential(*program, dra_db, checked_through, nullptr, nullptr,
                                   core::snapshot_deltas(dra_db, tables)));
        const std::string via_query =
            rows_in_order(core::dra_differential(query, dra_db, checked_through));
        if (via_program != via_query) {
          return fail(report.commits, "install-time program vs per-call compile:\n" +
                                          via_program + "vs\n" + via_query);
        }
        ++report.program_checks;
        checked_through = dra_db.clock().now();
      }
    }

    // Direct Section 4.2 check, bypassing the CQ layer: the DRA's ΔQ over
    // the whole script must match Propagate's full recompute + diff.
    if (initial_full) {
      const auto dra_delta = core::dra_differential(query, dra_db, install_ts);
      const auto prop_delta = core::propagate(query, dra_db, *initial_full);
      if (!dra_delta.consolidated().equivalent(prop_delta.consolidated())) {
        return fail(report.commits,
                    "direct dra_differential vs propagate mismatch:\nDRA " +
                        dra_delta.to_string() + "\noracle " + prop_delta.to_string());
      }
    }

    // Every delta row a notification cites must still exist in the DRA
    // database's delta log with exactly that (relation, txn, seq) identity.
    if (config.lineage) {
      for (const core::Notification& n : dra_sink->notifications()) {
        for (const rel::Relation* r : {&n.delta.inserted, &n.delta.deleted}) {
          for (const auto& row : r->rows()) {
            if (row.prov() == nullptr) continue;
            for (const auto& id : *row.prov()) {
              const std::string table = rel::prov::relation_name(id.rel);
              bool found = dra_db.has_table(table);
              if (found) {
                found = false;
                for (const auto& d : dra_db.delta(table).rows()) {
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

    report.executions = dra_mgr.cq_stats().at("cq").executions;
    report.digest = stream_digest(dra_mgr, *dra_sink, config.lineage);
  } catch (const common::Error& e) {
    return fail(report.commits, std::string("unexpected engine error: ") + e.what());
  }
  return report;
}

}  // namespace cq::testing
