// cqshell — an interactive shell over the continual-query engine.
//
// Lets you create tables and indexes, run updates, issue one-shot queries,
// install continual queries with triggers, advance the virtual clock, poll
// the CQ manager, and inspect delta logs / plans / staleness. Reads
// commands from stdin (one per line; '#' starts a comment), so it works
// both interactively and with piped scripts:
//
//   build/examples/cqshell <<'EOF'
//   CREATE TABLE Stocks (name STRING, price INT)
//   INSERT INTO Stocks VALUES ('DEC', 150)
//   INSTALL watch TRIGGER ONCHANGE AS SELECT * FROM Stocks WHERE price > 120
//   INSERT INTO Stocks VALUES ('MAC', 130)
//   POLL
//   EOF
//
// Type HELP for the command list.
#include <unistd.h>

#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "catalog/database.hpp"
#include "catalog/transaction.hpp"
#include "common/error.hpp"
#include "common/introspect_server.hpp"
#include "common/lock_profile.hpp"
#include "common/sync.hpp"
#include "common/observability.hpp"
#include "common/prometheus.hpp"
#include "cq/manager.hpp"
#include "persist/snapshot.hpp"
#include "query/evaluate.hpp"
#include "query/lexer.hpp"
#include "query/parser.hpp"

namespace {

using namespace cq;

const char* kHelp = R"(commands:
  CREATE TABLE <name> (<col> <INT|DOUBLE|STRING|BOOL>, ...)
  CREATE INDEX <name> ON <table> (<col>[, <col>...])
  INSERT INTO <table> VALUES (<literal>, ...)
  UPDATE <table> SET <col> = <literal>[, ...] WHERE <predicate>
  DELETE FROM <table> WHERE <predicate>
  SELECT ...                          one-shot query
  INSTALL <name> [MODE DIFF|COMPLETE|INSERTIONS|DELETIONS]
          TRIGGER ONCHANGE | PERIODIC <ticks> | COUNT <n>
                | DRIFT <table> <col> <epsilon>
          [STOP AFTER <n>]
          AS SELECT ...               install a continual query
  POLL                                check triggers, run fired CQs
  ADVANCE <ticks>                     move the virtual clock forward
  EXPLAIN <cq-name>                   plan + pending deltas + staleness
  EXPLAIN SELECT ...                  run the query; plan tree with
                                      estimated vs. actual row counts
  EXPLAIN NOTIFICATION <cq> [n]       retained lineage for the CQ's last n
                                      notifications: each delivered row and
                                      the base delta rows it derives from
  LINEAGE ON [k] | OFF                collect notification lineage (retain
                                      the last k notifications per CQ;
                                      default 8); OFF keeps retained records
  STATS [JSON]                        engine counters, latency histograms,
                                      per-CQ statistics (JSON: one document)
  STATS RESET                         zero counters, histograms, gauges and
                                      per-CQ statistics
  SERVE <port>                        start the introspection HTTP server
                                      (/metrics /stats /healthz /trace
                                      /events /lineage /profile); port 0
                                      picks one
  EVENTS [n]                          last n journal events as NDJSON
                                      (default 20; needs TRACE ON)
  TRACE ON | OFF | DUMP <path>        span tracing (DUMP writes a
                                      chrome://tracing JSON file)
  TRACE SLOWEST [n]                   n slowest retained commit traces
                                      (default: all; needs TRACE ON)
  THREADS <n>                         evaluate CQs on n threads (1 = serial)
  PROFILE ON | OFF | SHOW             lock-contention profiling; SHOW prints
                                      the per-site wait/hold table
  STALENESS <cq-name>
  REMOVE <cq-name>
  GC                                  collect delta garbage
  SNAPSHOT <path>                     persist database + CQ manifest
  RESTORE <path>                      restart from a snapshot (re-installs
                                      the CQs recorded at INSTALL time)
  TABLES | SHOW <table> | DELTA <table> | CQS
  HELP | QUIT)";

/// A SELECT result as text. Relation::to_string lists rows sorted by
/// value; a query with ORDER BY keeps its result order, in the same layout.
std::string result_text(const qry::SpjQuery& query, const rel::Relation& out) {
  if (query.order_by.empty()) return out.to_string();
  constexpr std::size_t kMaxRows = 50;
  std::ostringstream os;
  os << out.schema().to_string() << " [" << out.size() << " rows]\n";
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (i == kMaxRows) {
      os << "  ...\n";
      break;
    }
    const rel::Tuple& r = out.row(i);
    os << "  " << r.to_string();
    if (r.tid().valid()) os << " @tid=" << r.tid().to_string();
    os << "\n";
  }
  return os.str();
}

class Shell {
 public:
  Shell()
      : db_(std::make_unique<cat::Database>()),
        manager_(std::make_unique<core::CqManager>(*db_)) {}

  /// Process one command line; returns false on QUIT. Serialized against
  /// the introspection server's handlers via mu_.
  bool handle(const std::string& line) {
    const std::string trimmed = trim(line);
    if (trimmed.empty() || trimmed[0] == '#') return true;
    const common::LockGuard lock(mu_);
    try {
      return dispatch(trimmed);
    } catch (const common::Error& e) {
      std::cout << "error: " << e.what() << "\n";
      return true;
    }
  }

 private:
  static std::string trim(const std::string& s) {
    const auto b = s.find_first_not_of(" \t\r\n");
    if (b == std::string::npos) return "";
    const auto e = s.find_last_not_of(" \t\r\n");
    return s.substr(b, e - b + 1);
  }

  static std::string upper_word(const std::string& s, std::size_t* rest = nullptr) {
    std::size_t i = 0;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    std::string w = s.substr(0, i);
    for (auto& c : w) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    if (rest != nullptr) *rest = i;
    return w;
  }

  bool dispatch(const std::string& line) {
    std::size_t rest = 0;
    const std::string cmd = upper_word(line, &rest);
    const std::string args = line.substr(rest);

    if (cmd == "QUIT" || cmd == "EXIT") return false;
    if (cmd == "HELP") {
      std::cout << kHelp << "\n";
    } else if (cmd == "CREATE") {
      do_create(args);
    } else if (cmd == "INSERT") {
      do_insert(args);
    } else if (cmd == "UPDATE") {
      do_update(args);
    } else if (cmd == "DELETE") {
      do_delete(args);
    } else if (cmd == "SELECT") {
      const qry::SpjQuery query = qry::parse_query(line);
      std::cout << result_text(query, qry::evaluate(query, *db_));
    } else if (cmd == "INSTALL") {
      do_install(args);
    } else if (cmd == "POLL") {
      std::cout << manager_->poll() << " CQ(s) executed\n";
    } else if (cmd == "ADVANCE") {
      auto& clock = dynamic_cast<common::VirtualClock&>(db_->clock());
      clock.advance(common::Duration(std::stoll(args)));
      std::cout << "clock now at t=" << db_->clock().now().to_string() << "\n";
    } else if (cmd == "EXPLAIN") {
      do_explain(trim(args));
    } else if (cmd == "STATS") {
      const std::string verb = upper_word(trim(args));
      if (verb == "RESET") {
        do_stats_reset();
      } else {
        do_stats(verb == "JSON");
      }
    } else if (cmd == "SERVE") {
      do_serve(trim(args));
    } else if (cmd == "EVENTS") {
      do_events(trim(args));
    } else if (cmd == "LINEAGE") {
      do_lineage(trim(args));
    } else if (cmd == "TRACE") {
      do_trace(trim(args));
    } else if (cmd == "THREADS") {
      const auto n = parse_count(trim(args), "THREADS");
      manager_->set_parallelism(static_cast<std::size_t>(n));
      std::cout << "evaluating on " << manager_->parallelism() << " thread(s)\n";
    } else if (cmd == "PROFILE") {
      do_profile(trim(args));
    } else if (cmd == "STALENESS") {
      const auto s = manager_->cq(handle_of(trim(args))).staleness(*db_);
      std::cout << s.pending_changes << " pending / " << s.relevant_changes
                << " relevant changes, age " << s.age.ticks() << " ticks\n";
    } else if (cmd == "REMOVE") {
      manager_->remove(handle_of(trim(args)));
      std::cout << "removed\n";
    } else if (cmd == "SNAPSHOT") {
      persist::save_snapshot_file(trim(args), *db_, *manager_);
      std::cout << "snapshot written to " << trim(args) << "\n";
    } else if (cmd == "RESTORE") {
      do_restore(trim(args));
    } else if (cmd == "GC") {
      std::cout << manager_->collect_garbage() << " delta rows reclaimed\n";
    } else if (cmd == "TABLES") {
      for (const auto& t : db_->table_names()) {
        std::cout << t << " " << db_->table(t).schema().to_string() << " ["
                  << db_->table(t).size() << " rows, Δ " << db_->delta(t).size()
                  << " rows]\n";
      }
    } else if (cmd == "SHOW") {
      std::cout << db_->table(trim(args)).to_string(20);
    } else if (cmd == "DELTA") {
      std::cout << db_->delta(trim(args)).to_string(20);
    } else if (cmd == "CQS") {
      for (const auto h : manager_->handles()) {
        const auto& cq = manager_->cq(h);
        std::cout << cq.name() << ": " << cq.spec().query.to_string() << "  [trigger "
                  << cq.spec().trigger->describe() << ", " << cq.executions()
                  << " executions]\n";
      }
    } else {
      std::cout << "unknown command '" << cmd << "' (try HELP)\n";
    }
    return true;
  }

  // EXPLAIN SELECT ... runs the statement and prints the plan tree with
  // estimated vs. actual row counts; EXPLAIN <cq-name> keeps the original
  // CQ inspection (plan + pending deltas + staleness).
  void do_explain(const std::string& args) {
    std::size_t rest = 0;
    const std::string first = upper_word(args, &rest);
    if (first == "SELECT") {
      const qry::QueryExplain ex = qry::explain_query(qry::parse_query(args), *db_);
      std::cout << ex.to_string();
      std::cout << ex.result.size() << " row(s)\n";
      return;
    }
    if (first == "NOTIFICATION") {
      std::size_t name_end = 0;
      const std::string tail = trim(args.substr(rest));
      const std::string name = tail.substr(0, tail.find_first_of(" \t"));
      std::size_t n = core::LineageStore::kDefaultRetention;
      if (name.size() < tail.size()) {
        name_end = tail.find_first_not_of(" \t", name.size());
        n = static_cast<std::size_t>(
            parse_count(tail.substr(name_end), "EXPLAIN NOTIFICATION"));
      }
      if (name.empty()) {
        throw common::ParseError("EXPLAIN NOTIFICATION <cq-name> [n]");
      }
      std::cout << manager_->lineage().explain(*db_, name, n);
      return;
    }
    std::cout << manager_->cq(handle_of(args)).explain(*db_);
  }

  // LINEAGE ON [k] | OFF — toggle lineage collection. ON also sets the
  // per-CQ retention ring depth; OFF stops collecting but keeps whatever
  // records are already retained (still inspectable via /lineage and
  // EXPLAIN NOTIFICATION).
  void do_lineage(const std::string& args) {
    std::size_t rest = 0;
    const std::string verb = upper_word(args, &rest);
    if (verb == "ON") {
      std::size_t k = core::LineageStore::kDefaultRetention;
      const std::string tail = trim(args.substr(rest));
      if (!tail.empty()) {
        k = static_cast<std::size_t>(parse_count(tail, "LINEAGE ON"));
        if (k == 0) throw common::InvalidArgument("LINEAGE ON needs k >= 1");
      }
      manager_->set_lineage(true, k);
      std::cout << "lineage on (retaining last " << k
                << " notification(s) per CQ)\n";
    } else if (verb == "OFF") {
      manager_->set_lineage(false);
      std::cout << "lineage off (retained records kept)\n";
    } else {
      throw common::ParseError("LINEAGE ON [k] | OFF");
    }
  }

  void do_stats(bool as_json) {
    if (as_json) {
      std::cout << common::obs::export_json(manager_->metrics(),
                                            common::obs::global().histogram_snapshot(),
                                            {manager_->stats_section()})
                << "\n";
      return;
    }
    const std::string counters = manager_->metrics().to_string();
    std::cout << "counters:\n" << (counters.empty() ? "  (none)\n" : counters);
    for (const auto& [name, h] : common::obs::global().histogram_snapshot()) {
      std::cout << "hist " << name << ": " << h.to_string() << "\n";
    }
    for (const auto& [name, s] : manager_->cq_stats()) {
      std::cout << "cq " << name << ": " << s.executions << " execution(s), "
                << s.trigger_checks << " trigger check(s) (" << s.fired << " fired, "
                << s.suppressed << " suppressed), " << s.delta_rows_consumed
                << " delta row(s) consumed, " << s.rows_delivered
                << " row(s) delivered, last exec " << s.last_exec_ns / 1000 << " us"
                << (s.finished ? " [finished]" : "") << "\n";
    }
  }

  void do_stats_reset() {
    manager_->reset_stats();
    common::obs::global().reset();
    std::cout << "stats reset\n";
  }

  static std::uint64_t parse_count(const std::string& args, const char* what) {
    if (args.find_first_not_of("0123456789") != std::string::npos) {
      throw common::InvalidArgument(std::string("expected a number for ") +
                                    what + ", got '" + args + "'");
    }
    try {
      return std::stoull(args);
    } catch (const std::exception&) {
      throw common::InvalidArgument(std::string("expected a number for ") +
                                    what + ", got '" + args + "'");
    }
  }

  void do_events(const std::string& args) {
    std::size_t n = 20;
    if (!args.empty()) n = static_cast<std::size_t>(parse_count(args, "EVENTS"));
    const std::string out = common::obs::global().events().to_ndjson(n);
    if (out.empty()) {
      std::cout << "(no events; enable the journal with TRACE ON)\n";
    } else {
      std::cout << out;
    }
  }

  // SERVE <port>: expose /metrics /stats /healthz /trace /events /profile
  // on 127.0.0.1. Handlers run on the server thread and take mu_, so scrapes
  // serialize with the command loop. The shell has no attached sources, so
  // /healthz always reports ok.
  void do_serve(const std::string& args) {
    if (server_.running()) {
      std::cout << "already serving on port " << server_.port() << "\n";
      return;
    }
    std::uint16_t port = 0;
    if (!args.empty()) {
      const std::uint64_t parsed = parse_count(args, "SERVE");
      if (parsed > 65535) {
        throw common::InvalidArgument("port out of range: " + args);
      }
      port = static_cast<std::uint16_t>(parsed);
    }
    namespace obs = common::obs;
    server_.route("/metrics", [this](const obs::HttpRequest&) {
      const common::LockGuard lock(mu_);
      db_->refresh_resource_gauges();
      obs::HttpResponse resp;
      resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
      resp.body = obs::render_prometheus(manager_->metrics(), obs::global(),
                                         {manager_->prometheus_section()});
      return resp;
    });
    server_.route("/stats", [this](const obs::HttpRequest&) {
      const common::LockGuard lock(mu_);
      return obs::HttpResponse::json(
          obs::export_json(manager_->metrics(), obs::global().histogram_snapshot(),
                           {manager_->stats_section(), obs::events_section()}));
    });
    server_.route("/healthz", [this](const obs::HttpRequest&) {
      const common::LockGuard lock(mu_);
      obs::JsonWriter w;
      w.begin_object();
      w.kv("status", "ok");
      w.kv("active_cqs", static_cast<std::uint64_t>(manager_->active_count()));
      w.end_object();
      return obs::HttpResponse::json(w.str());
    });
    server_.route("/trace", [this](const obs::HttpRequest& req) {
      const common::LockGuard lock(mu_);
      return obs::HttpResponse::json(
          obs::global().traces().to_chrome_json(req.query_u64("trace_id", 0)));
    });
    server_.route("/profile", [this](const obs::HttpRequest&) {
      const common::LockGuard lock(mu_);
      return obs::HttpResponse::json(obs::export_profile_json());
    });
    server_.route("/events", [this](const obs::HttpRequest& req) {
      const common::LockGuard lock(mu_);
      obs::HttpResponse resp;
      resp.content_type = "application/x-ndjson; charset=utf-8";
      resp.body = obs::global().events().to_ndjson(
          static_cast<std::size_t>(req.query_u64("n", 100)),
          req.query_u64("since", 0));
      return resp;
    });
    server_.route("/lineage", [this](const obs::HttpRequest& req) {
      const common::LockGuard lock(mu_);
      return obs::HttpResponse::json(manager_->lineage().to_json(
          req.query_str("cq"),
          static_cast<std::size_t>(
              req.query_u64("n", core::LineageStore::kDefaultRetention))));
    });
    server_.route("/lockgraph", [](const obs::HttpRequest& req) {
      // Atomics-only on the far side: no engine lock, by design.
      if (req.query_str("format") == "dot") {
        return obs::HttpResponse::text(common::lockorder::to_dot());
      }
      return obs::HttpResponse::json(common::lockorder::to_json());
    });
    server_.start(port);
    std::cout << "serving introspection on http://127.0.0.1:" << server_.port()
              << " (/metrics /stats /healthz /trace /events /lineage /profile"
                 " /lockgraph)\n";
  }

  void do_trace(const std::string& args) {
    std::size_t rest = 0;
    const std::string verb = upper_word(args, &rest);
    if (verb == "ON") {
      common::obs::set_enabled(true);
      std::cout << "tracing on\n";
    } else if (verb == "OFF") {
      common::obs::set_enabled(false);
      std::cout << "tracing off\n";
    } else if (verb == "DUMP") {
      const std::string path = trim(args.substr(rest));
      if (path.empty()) throw common::ParseError("TRACE DUMP <path>");
      common::obs::global().traces().write_chrome_trace(path);
      std::cout << "wrote " << common::obs::global().traces().size()
                << " span(s) to " << path << "\n";
    } else if (verb == "SLOWEST") {
      do_trace_slowest(trim(args.substr(rest)));
    } else {
      throw common::ParseError("TRACE ON | OFF | DUMP <path> | SLOWEST [n]");
    }
  }

  // TRACE SLOWEST [n]: the tail-retained commit traces, slowest first,
  // with their per-phase span breakdown. Fetch them through /trace?trace_id=
  // for the full chrome://tracing view of one commit.
  void do_trace_slowest(const std::string& args) {
    std::size_t n = ~std::size_t{0};
    if (!args.empty()) n = static_cast<std::size_t>(parse_count(args, "SLOWEST"));
    const auto slowest = common::obs::global().traces().slowest();
    if (slowest.empty()) {
      std::cout << "(no retained commit traces; enable with TRACE ON and commit)\n";
      return;
    }
    std::size_t shown = 0;
    for (const auto& t : slowest) {
      if (shown++ == n) break;
      std::cout << "trace " << t.trace_id << "  " << t.dur_ns / 1000 << " us  ["
                << (t.label.empty() ? "commit" : t.label) << "]  "
                << t.events.size() << " span(s)\n";
      // Aggregate child spans by name so a 64-CQ commit prints a handful of
      // phase rows, not hundreds of eval.batch lines.
      std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> phases;
      for (const auto& e : t.events) {
        auto& [count, total_ns] = phases[e.name];
        ++count;
        total_ns += e.dur_ns;
      }
      for (const auto& [name, agg] : phases) {
        std::cout << "  " << name << ": " << agg.first << " span(s), "
                  << agg.second / 1000 << " us total\n";
      }
    }
  }

  // PROFILE ON | OFF | SHOW: lock-contention profiling over the named
  // cq::Mutex sites (pool, trace_ring, cq_stats, ...).
  void do_profile(const std::string& args) {
    namespace lockprof = common::lockprof;
    const std::string verb = upper_word(args);
    if (verb == "ON") {
      lockprof::set_enabled(true);
      std::cout << "lock profiling on\n";
    } else if (verb == "OFF") {
      lockprof::set_enabled(false);
      std::cout << "lock profiling off\n";
    } else if (verb == "SHOW") {
      const std::size_t n = lockprof::site_count();
      if (n == 0) {
        std::cout << "(no profiled acquisitions; enable with PROFILE ON)\n";
        return;
      }
      for (std::size_t i = 0; i < n; ++i) {
        const auto& s = lockprof::site(i);
        const char* name = s.name.load(std::memory_order_acquire);
        std::cout << (name != nullptr ? name : "?") << ": "
                  << s.acquisitions.load(std::memory_order_relaxed)
                  << " acquisition(s), "
                  << s.contended.load(std::memory_order_relaxed) << " contended, wait "
                  << s.wait_ns.load(std::memory_order_relaxed) / 1000 << " us, hold "
                  << s.hold_ns.load(std::memory_order_relaxed) / 1000 << " us\n";
        if (s.wait_us.count() > 0) {
          std::cout << "  wait_us " << s.wait_us.to_string() << "\n";
        }
        if (s.hold_us.count() > 0) {
          std::cout << "  hold_us " << s.hold_us.to_string() << "\n";
        }
      }
    } else {
      throw common::ParseError("PROFILE ON | OFF | SHOW");
    }
  }

  // CREATE TABLE t (a INT, b STRING) | CREATE INDEX i ON t (a, b)
  void do_create(const std::string& args) {
    std::size_t rest = 0;
    const std::string what = upper_word(args, &rest);
    const std::string tail = args.substr(rest);
    const auto open = tail.find('(');
    if (open == std::string::npos || tail.back() != ')') {
      throw common::ParseError("CREATE: expected (...) list");
    }
    const std::string inner = tail.substr(open + 1, tail.size() - open - 2);

    if (what == "TABLE") {
      const std::string name = trim(tail.substr(0, open));
      std::vector<rel::Attribute> attrs;
      std::istringstream items(inner);
      std::string item;
      while (std::getline(items, item, ',')) {
        std::istringstream pair(trim(item));
        std::string col;
        std::string type;
        pair >> col >> type;
        for (auto& c : type) c = static_cast<char>(std::toupper(c));
        rel::ValueType vt;
        if (type == "INT") {
          vt = rel::ValueType::kInt;
        } else if (type == "DOUBLE") {
          vt = rel::ValueType::kDouble;
        } else if (type == "STRING") {
          vt = rel::ValueType::kString;
        } else if (type == "BOOL") {
          vt = rel::ValueType::kBool;
        } else {
          throw common::ParseError("CREATE TABLE: unknown type '" + type + "'");
        }
        attrs.push_back({col, vt});
      }
      db_->create_table(name, rel::Schema(std::move(attrs)));
      std::cout << "created table " << name << "\n";
    } else if (what == "INDEX") {
      // INDEX <name> ON <table> (cols)
      std::istringstream head(tail.substr(0, open));
      std::string index_name;
      std::string on;
      std::string table;
      head >> index_name >> on >> table;
      std::vector<std::string> cols;
      std::istringstream items(inner);
      std::string item;
      while (std::getline(items, item, ',')) cols.push_back(trim(item));
      db_->create_index(table, index_name, cols);
      std::cout << "created index " << index_name << " on " << table << "\n";
    } else {
      throw common::ParseError("CREATE: expected TABLE or INDEX");
    }
  }

  static rel::Value token_to_value(const qry::Token& t) {
    switch (t.kind) {
      case qry::TokenKind::kInteger: return rel::Value(t.integer);
      case qry::TokenKind::kDouble: return rel::Value(t.real);
      case qry::TokenKind::kString: return rel::Value(t.text);
      case qry::TokenKind::kKeyword:
        if (t.text == "NULL") return rel::Value::null();
        if (t.text == "TRUE") return rel::Value(true);
        if (t.text == "FALSE") return rel::Value(false);
        [[fallthrough]];
      default:
        throw common::ParseError("expected a literal, got '" + t.text + "'");
    }
  }

  // INSERT INTO t VALUES (1, 'x', ...)
  void do_insert(const std::string& args) {
    std::size_t rest = 0;
    if (upper_word(args, &rest) != "INTO") throw common::ParseError("expected INTO");
    const std::string tail = args.substr(rest);
    std::size_t rest2 = 0;
    std::istringstream head(tail);
    std::string table;
    head >> table;
    rest2 = tail.find(table) + table.size();
    std::string values_part = trim(tail.substr(rest2));
    if (upper_word(values_part, &rest) != "VALUES") {
      throw common::ParseError("expected VALUES");
    }
    values_part = trim(values_part.substr(rest));
    if (values_part.empty() || values_part.front() != '(' || values_part.back() != ')') {
      throw common::ParseError("expected (literals)");
    }
    std::vector<rel::Value> values;
    for (const auto& tok :
         qry::tokenize(values_part.substr(1, values_part.size() - 2))) {
      if (tok.kind == qry::TokenKind::kEnd || tok.is_symbol(",")) continue;
      if (tok.is_symbol("-")) throw common::ParseError("negate literals inline: -5");
      values.push_back(token_to_value(tok));
    }
    const auto tid = db_->insert(table, std::move(values));
    std::cout << "inserted tid " << tid.to_string() << "\n";
  }

  [[nodiscard]] std::vector<rel::TupleId> matching_tids(const std::string& table,
                                                        const std::string& predicate) {
    const alg::ExprPtr pred = qry::parse_predicate(predicate);
    const rel::Relation& base = db_->table(table);
    std::vector<rel::TupleId> out;
    const alg::BoundExpr bound(*pred, base.schema());
    for (const auto& row : base.rows()) {
      if (bound.eval_bool(row)) out.push_back(row.tid());
    }
    return out;
  }

  // DELETE FROM t WHERE pred
  void do_delete(const std::string& args) {
    std::size_t rest = 0;
    if (upper_word(args, &rest) != "FROM") throw common::ParseError("expected FROM");
    std::istringstream head(args.substr(rest));
    std::string table;
    head >> table;
    const auto where_at = args.find(" WHERE ");
    const auto where_at2 = args.find(" where ");
    const auto at = where_at != std::string::npos ? where_at : where_at2;
    if (at == std::string::npos) {
      throw common::ParseError("DELETE requires a WHERE clause");
    }
    const auto tids = matching_tids(table, args.substr(at + 7));
    auto txn = db_->begin();
    for (const auto tid : tids) txn.erase(table, tid);
    txn.commit();
    std::cout << "deleted " << tids.size() << " row(s)\n";
  }

  // UPDATE t SET a = 1, b = 'x' WHERE pred
  void do_update(const std::string& args) {
    std::istringstream head(args);
    std::string table;
    head >> table;
    const auto set_at = args.find(" SET ");
    const auto set_at2 = args.find(" set ");
    const auto sat = set_at != std::string::npos ? set_at : set_at2;
    const auto where_at = args.find(" WHERE ");
    const auto where_at2 = args.find(" where ");
    const auto wat = where_at != std::string::npos ? where_at : where_at2;
    if (sat == std::string::npos || wat == std::string::npos || wat < sat) {
      throw common::ParseError("UPDATE <t> SET <col>=<lit>[,...] WHERE <pred>");
    }
    const std::string sets = args.substr(sat + 5, wat - sat - 5);
    const std::string predicate = args.substr(wat + 7);

    const rel::Schema& schema = db_->table(table).schema();
    std::vector<std::pair<std::size_t, rel::Value>> assignments;
    std::istringstream items(sets);
    std::string item;
    while (std::getline(items, item, ',')) {
      const auto eq = item.find('=');
      if (eq == std::string::npos) throw common::ParseError("SET expects col = literal");
      const std::string col = trim(item.substr(0, eq));
      const auto toks = qry::tokenize(trim(item.substr(eq + 1)));
      rel::Value v = toks[0].is_symbol("-")
                         ? rel::Value(-token_to_value(toks[1]).numeric())
                         : token_to_value(toks[0]);
      assignments.emplace_back(schema.index_of(col), std::move(v));
    }

    const auto tids = matching_tids(table, predicate);
    auto txn = db_->begin();
    for (const auto tid : tids) {
      std::vector<rel::Value> values = db_->table(table).find(tid)->values();
      for (const auto& [idx, v] : assignments) values[idx] = v;
      txn.modify(table, tid, std::move(values));
    }
    txn.commit();
    std::cout << "updated " << tids.size() << " row(s)\n";
  }

  // INSTALL name [MODE x] TRIGGER ... [STOP AFTER n] AS SELECT ...
  void do_install(const std::string& args) {
    const auto as_at = args.find(" AS ");
    const auto as_at2 = args.find(" as ");
    const auto at = as_at != std::string::npos ? as_at : as_at2;
    if (at == std::string::npos) throw common::ParseError("INSTALL ... AS SELECT ...");
    const std::string sql = trim(args.substr(at + 4));

    std::istringstream head(args.substr(0, at));
    std::string name;
    head >> name;

    core::DeliveryMode mode = core::DeliveryMode::kDifferential;
    core::TriggerPtr trigger;
    core::StopPtr stop;
    std::string word;
    while (head >> word) {
      for (auto& c : word) c = static_cast<char>(std::toupper(c));
      if (word == "MODE") {
        std::string m;
        head >> m;
        for (auto& c : m) c = static_cast<char>(std::toupper(c));
        if (m == "DIFF") {
          mode = core::DeliveryMode::kDifferential;
        } else if (m == "COMPLETE") {
          mode = core::DeliveryMode::kComplete;
        } else if (m == "INSERTIONS") {
          mode = core::DeliveryMode::kInsertionsOnly;
        } else if (m == "DELETIONS") {
          mode = core::DeliveryMode::kDeletionsOnly;
        } else {
          throw common::ParseError("unknown MODE " + m);
        }
      } else if (word == "TRIGGER") {
        std::string kind;
        head >> kind;
        for (auto& c : kind) c = static_cast<char>(std::toupper(c));
        if (kind == "ONCHANGE") {
          trigger = core::triggers::on_change();
        } else if (kind == "PERIODIC") {
          std::int64_t ticks = 0;
          head >> ticks;
          trigger = core::triggers::periodic(common::Duration(ticks));
        } else if (kind == "COUNT") {
          std::size_t n = 0;
          head >> n;
          trigger = core::triggers::change_count(n);
        } else if (kind == "DRIFT") {
          std::string table;
          std::string col;
          double eps = 0;
          head >> table >> col >> eps;
          trigger = core::triggers::aggregate_drift(table, col, eps);
        } else {
          throw common::ParseError("unknown TRIGGER " + kind);
        }
      } else if (word == "STOP") {
        std::string after;
        std::uint64_t n = 0;
        head >> after >> n;
        stop = core::stop::after_executions(n);
      }
    }
    if (!trigger) trigger = core::triggers::on_change();


    core::CqSpec spec = core::CqSpec::from_sql(name, sql, trigger, stop, mode);
    specs_[name] = SavedSpec{spec};
    const core::CqHandle h = manager_->install(std::move(spec), make_sink(name));
    handles_[name] = h;
  }

  /// Notification printer shared by INSTALL and RESTORE.
  [[nodiscard]] std::shared_ptr<core::ResultSink> make_sink(const std::string& name) {
    return std::make_shared<core::CallbackSink>([name](const core::Notification& n) {
      std::cout << "[" << name << " #" << n.sequence << " @t=" << n.at.to_string()
                << "]";
      if (n.sequence == 0) {
        std::cout << " initial result: "
                  << (n.complete ? n.complete->size() : n.aggregate->size())
                  << " row(s)\n";
        if (n.complete) std::cout << n.complete->to_string(10);
        return;
      }
      if (n.aggregate) {
        std::cout << " aggregate now:\n" << n.aggregate->to_string(10);
        return;
      }
      std::cout << " Δ+" << n.delta.inserted.size() << "/-" << n.delta.deleted.size()
                << "\n";
      if (!n.delta.inserted.empty()) {
        std::cout << " entered:\n" << n.delta.inserted.to_string(10);
      }
      if (!n.delta.deleted.empty()) {
        std::cout << " left:\n" << n.delta.deleted.to_string(10);
      }
      if (n.complete) std::cout << " complete:\n" << n.complete->to_string(10);
    });
  }

  // RESTORE <path>: swap in the snapshot database and re-install every CQ
  // whose spec this shell session recorded, resuming where each left off.
  void do_restore(const std::string& path) {
    persist::DecodedSnapshot snap = persist::load_snapshot_file(path);
    manager_.reset();  // drop CQs bound to the old database first
    db_ = std::make_unique<cat::Database>(std::move(snap.db));
    manager_ = std::make_unique<core::CqManager>(*db_);
    handles_.clear();
    std::size_t restored = 0;
    for (const auto& entry : snap.cqs) {
      auto it = specs_.find(entry.name);
      if (it == specs_.end()) {
        std::cout << "warning: no spec recorded for CQ '" << entry.name
                  << "'; not restored\n";
        continue;
      }
      handles_[entry.name] = manager_->install_restored(
          it->second.spec, make_sink(entry.name), entry.last_execution,
          entry.executions);
      ++restored;
    }
    std::cout << "restored database (" << db_->table_names().size()
              << " tables) and " << restored << " CQ(s) from " << path << "\n";
  }

  [[nodiscard]] core::CqHandle handle_of(const std::string& name) const {
    auto it = handles_.find(name);
    if (it == handles_.end() || !manager_->contains(it->second)) {
      throw common::NotFound("no installed CQ named '" + name + "'");
    }
    return it->second;
  }

  struct SavedSpec {
    core::CqSpec spec;
  };

  std::unique_ptr<cat::Database> db_;
  std::unique_ptr<core::CqManager> manager_;
  std::map<std::string, core::CqHandle> handles_;
  std::map<std::string, SavedSpec> specs_;  // for RESTORE
  // Serializes the command loop with server handlers. Outermost lock of
  // the process: rank kEngine (see docs/lock-hierarchy.md).
  common::Mutex mu_{"engine", common::lockorder::LockRank::kEngine};
  common::obs::IntrospectServer server_;
};

}  // namespace

int main() {
  Shell shell;
  std::string line;
  const bool interactive = isatty(0) != 0;
  if (interactive) std::cout << "cqshell — type HELP for commands\n";
  while (true) {
    if (interactive) std::cout << "cq> " << std::flush;
    if (!std::getline(std::cin, line)) break;
    if (!interactive) std::cout << "cq> " << line << "\n";
    if (!shell.handle(line)) break;
  }
  return 0;
}
