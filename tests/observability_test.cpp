// Tests for the observability layer: histograms (percentile math), spans
// and the trace ring, the JSON exporter (well-formedness checked by a
// small recursive-descent validator), and the per-CQ statistics registry.
#include "common/observability.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <string>

#include "catalog/database.hpp"
#include "cq/manager.hpp"
#include "query/parser.hpp"

namespace cq {
namespace {

namespace obs = common::obs;
using rel::Value;
using rel::ValueType;

// --------------------------------------------------- tiny JSON validator --

/// Strict-enough JSON syntax checker (objects, arrays, strings, numbers,
/// true/false/null). Returns true iff `text` is exactly one JSON value.
class JsonValidator {
 public:
  static bool valid(const std::string& text) {
    JsonValidator v(text);
    return v.value() && (v.skip_ws(), v.pos_ == text.size());
  }

 private:
  explicit JsonValidator(const std::string& text) : text_(text) {}

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool eat(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool peek(char c) {
    skip_ws();
    return pos_ < text_.size() && text_[pos_] == c;
  }

  bool string() {
    if (!eat('"')) return false;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
      }
      const auto c = static_cast<unsigned char>(text_[pos_]);
      if (c < 0x20) return false;  // raw control character: invalid JSON
      ++pos_;
    }
    return pos_ < text_.size() && text_[pos_++] == '"';
  }

  bool number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* word) {
    const std::size_t len = std::string(word).size();
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  bool value() {
    skip_ws();
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    if (!eat('{')) return false;
    if (eat('}')) return true;
    do {
      skip_ws();
      if (!string() || !eat(':') || !value()) return false;
    } while (eat(','));
    return eat('}');
  }

  bool array() {
    if (!eat('[')) return false;
    if (eat(']')) return true;
    do {
      if (!value()) return false;
    } while (eat(','));
    return eat(']');
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

TEST(JsonValidatorSelfTest, AcceptsAndRejects) {
  EXPECT_TRUE(JsonValidator::valid(R"({"a":[1,2.5,-3e2],"b":{"c":"x\"y"},"d":null})"));
  EXPECT_TRUE(JsonValidator::valid("[]"));
  EXPECT_FALSE(JsonValidator::valid(R"({"a":1,})"));
  EXPECT_FALSE(JsonValidator::valid(R"({"a")"));
  EXPECT_FALSE(JsonValidator::valid("{} extra"));
  EXPECT_FALSE(JsonValidator::valid("\"raw\ncontrol\""));
}

// -------------------------------------------------------------- Histogram --

TEST(Histogram, EmptyIsAllZero) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(h.p99(), 0.0);
}

TEST(Histogram, SingleSampleIsExactAtEveryPercentile) {
  obs::Histogram h;
  h.record(42);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 42u);
  EXPECT_EQ(h.max(), 42u);
  EXPECT_DOUBLE_EQ(h.mean(), 42.0);
  // Interpolation clamps to [min, max], so one sample is exact everywhere.
  EXPECT_DOUBLE_EQ(h.percentile(0), 42.0);
  EXPECT_DOUBLE_EQ(h.p50(), 42.0);
  EXPECT_DOUBLE_EQ(h.p95(), 42.0);
  EXPECT_DOUBLE_EQ(h.p99(), 42.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 42.0);
}

TEST(Histogram, PercentilesAreMonotoneAndBounded) {
  obs::Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 1000u);
  const double p50 = h.p50();
  const double p95 = h.p95();
  const double p99 = h.p99();
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, static_cast<double>(h.max()));
  EXPECT_GE(p50, static_cast<double>(h.min()));
  // Log2 buckets bound the error to the winning bucket's width: the true
  // p50 of 1..1000 is 500, inside bucket [256, 511].
  EXPECT_GE(p50, 256.0);
  EXPECT_LE(p50, 512.0);
  EXPECT_GE(p99, 512.0);
}

TEST(Histogram, ZeroAndHugeSamplesLand) {
  obs::Histogram h;
  h.record(0);
  h.record(~std::uint64_t{0});
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), ~std::uint64_t{0});
}

TEST(Histogram, ResetClears) {
  obs::Histogram h;
  h.record(7);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.p50(), 0.0);
}

// ------------------------------------------------------- spans and traces --

/// Enables span collection for one test and restores a clean global state.
struct TracingScope {
  TracingScope() {
    obs::global().traces().clear();
    obs::set_enabled(true);
  }
  ~TracingScope() {
    obs::set_enabled(false);
    obs::global().traces().clear();
  }
};

TEST(Span, RecordsNestedSpansWithDepthAndDuration) {
  TracingScope scope;
  {
    obs::Span outer("outer");
    {
      obs::Span inner("inner");
    }
  }
  const auto events = obs::global().traces().snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Spans close inner-first.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[0].depth, 1u);
  EXPECT_EQ(events[1].name, "outer");
  EXPECT_EQ(events[1].depth, 0u);
  EXPECT_GE(events[0].start_ns, events[1].start_ns);
  EXPECT_LE(events[0].dur_ns, events[1].dur_ns);
}

TEST(Span, DisabledRecordsNothing) {
  obs::global().traces().clear();
  obs::set_enabled(false);
  {
    obs::Span span("invisible");
  }
  EXPECT_EQ(obs::global().traces().size(), 0u);
}

TEST(Span, FeedsLatencyHistogram) {
  TracingScope scope;
  obs::Histogram h;
  {
    obs::Span span("timed", &h);
  }
  EXPECT_EQ(h.count(), 1u);
}

TEST(Span, CloseIsIdempotent) {
  TracingScope scope;
  obs::Span span("once");
  span.close();
  span.close();
  EXPECT_EQ(obs::global().traces().size(), 1u);
}

TEST(TraceCollector, RingOverwritesOldest) {
  obs::TraceCollector ring(4);
  for (int i = 0; i < 6; ++i) {
    ring.record("e" + std::to_string(i), static_cast<std::uint64_t>(i), 1, 0);
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(ring.dropped(), 2u);
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().name, "e2");  // oldest survivor
  EXPECT_EQ(events.back().name, "e5");   // newest
}

TEST(TraceCollector, ChromeJsonIsValidAndComplete) {
  obs::TraceCollector ring(8);
  ring.record("a \"quoted\" span", 1500, 2500, 0);
  ring.record("plain", 5000, 1000, 1);
  const std::string json = ring.to_chrome_json();
  EXPECT_TRUE(JsonValidator::valid(json)) << json;
  // chrome://tracing requires name/ph/ts/dur; ph "X" = complete event.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"a \\\"quoted\\\" span\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
}

TEST(Clock, NowNsIsMonotone) {
  const auto a = obs::now_ns();
  const auto b = obs::now_ns();
  EXPECT_LE(a, b);
}

// ------------------------------------------- trace context and retention --

TEST(TraceCollector, EventsCarryLaneAndTraceId) {
  obs::TraceCollector ring(8);
  ring.record("e", 1000, 10, 0, /*tid=*/3, /*trace_id=*/77);
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].tid, 3u);
  EXPECT_EQ(events[0].trace_id, 77u);
}

TEST(TraceCollector, ChromeJsonEmitsLaneMetadataTracks) {
  obs::TraceCollector ring(8);
  ring.record("on-lane-0", 1000, 10, 0, 0, 0);
  ring.record("on-lane-3", 2000, 10, 0, 3, 7);
  const std::string json = ring.to_chrome_json();
  EXPECT_TRUE(JsonValidator::valid(json)) << json;
  // Perfetto derives track names from "M" metadata events: one
  // process_name plus a thread_name per lane (max observed tid + 1).
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
  std::size_t lanes = 0;
  for (std::size_t at = json.find("thread_name"); at != std::string::npos;
       at = json.find("thread_name", at + 1)) {
    ++lanes;
  }
  EXPECT_GE(lanes, 4u);
  // The X events keep the real per-lane tid and the owning trace id.
  EXPECT_NE(json.find("\"tid\":3"), std::string::npos);
  EXPECT_NE(json.find("\"trace_id\":7"), std::string::npos);
}

TEST(TraceCollector, RetainsSlowestTracesSortedAndTrimmed) {
  obs::TraceCollector ring(64);
  ring.set_slow_capacity(2);
  const auto run = [&ring](std::uint64_t id, std::uint64_t dur_ns) {
    ring.begin_trace(id);
    ring.record("phase", id * 100, dur_ns / 2, 1, 0, id);
    ring.end_trace(id, id * 100, dur_ns, "t" + std::to_string(id));
  };
  run(1, 5000);
  run(2, 9000);
  run(3, 1000);  // never ranks: both retained slots already hold slower traces
  run(4, 7000);
  const auto slow = ring.slowest();
  ASSERT_EQ(slow.size(), 2u);
  EXPECT_EQ(slow[0].trace_id, 2u);
  EXPECT_EQ(slow[1].trace_id, 4u);
  EXPECT_EQ(slow[0].label, "t2");
  EXPECT_EQ(slow[0].dur_ns, 9000u);
  ASSERT_EQ(slow[0].events.size(), 1u);
  EXPECT_EQ(slow[0].events[0].name, "phase");
  EXPECT_EQ(ring.slow_capacity(), 2u);
}

TEST(TraceCollector, TraceIdFilterNarrowsToOneCommit) {
  obs::TraceCollector ring(64);
  ring.set_slow_capacity(1);
  ring.begin_trace(5);
  ring.record("slow-phase", 100, 400, 1, 0, 5);
  ring.end_trace(5, 100, 1000, "slow");
  ring.record("other", 5000, 10, 0, 0, 6);

  // Retained capture first: only trace 5's events, not trace 6's.
  const std::string five = ring.to_chrome_json(5);
  EXPECT_TRUE(JsonValidator::valid(five)) << five;
  EXPECT_NE(five.find("slow-phase"), std::string::npos);
  EXPECT_EQ(five.find("\"other\""), std::string::npos);

  // Trace 6 was never retained: the filter falls back to the ring.
  const std::string six = ring.to_chrome_json(6);
  EXPECT_TRUE(JsonValidator::valid(six)) << six;
  EXPECT_NE(six.find("\"other\""), std::string::npos);
  EXPECT_EQ(six.find("slow-phase"), std::string::npos);
}

TEST(SpanContext, ContextScopeStampsSpansAndRestores) {
  TracingScope scope;
  {
    obs::ContextScope ctx(obs::SpanContext{42, 0});
    obs::Span inside("inside");
  }
  {
    obs::Span outside("outside");
  }
  const auto events = obs::global().traces().snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "inside");
  EXPECT_EQ(events[0].trace_id, 42u);
  EXPECT_EQ(events[1].name, "outside");
  EXPECT_EQ(events[1].trace_id, 0u);  // scope exit restored the null context
}

TEST(CommitTrace, CommitAllocatesTraceIdAndRetainsCapture) {
  TracingScope scope;
  const std::uint64_t commits_before =
      obs::global().histogram(obs::hist::kCommitToNotifyUs).count();

  cat::Database db;
  db.create_table("T", rel::Schema::of({{"id", ValueType::kInt}}));
  db.insert("T", {Value(std::int64_t{1})});

  const auto slow = obs::global().traces().slowest();
  ASSERT_EQ(slow.size(), 1u);
  EXPECT_GT(slow[0].trace_id, 0u);
  EXPECT_EQ(slow[0].label, "T");  // the touched table
  EXPECT_GT(slow[0].dur_ns, 0u);

  // The root "commit" span landed in the ring carrying the trace id.
  bool saw_commit = false;
  for (const auto& e : obs::global().traces().snapshot()) {
    saw_commit = saw_commit || (e.name == "commit" && e.trace_id == slow[0].trace_id);
  }
  EXPECT_TRUE(saw_commit);
  EXPECT_GT(obs::global().histogram(obs::hist::kCommitToNotifyUs).count(),
            commits_before);

  // A second commit gets a fresh, larger trace id.
  db.insert("T", {Value(std::int64_t{2})});
  const auto slow2 = obs::global().traces().slowest();
  ASSERT_EQ(slow2.size(), 2u);
  EXPECT_NE(slow2[0].trace_id, slow2[1].trace_id);
}

TEST(ExportProfileJson, WellFormedAndListsSections) {
  TracingScope scope;
  cat::Database db;
  db.create_table("T", rel::Schema::of({{"id", ValueType::kInt}}));
  db.insert("T", {Value(std::int64_t{1})});
  const std::string json = obs::export_profile_json();
  EXPECT_TRUE(JsonValidator::valid(json)) << json;
  EXPECT_NE(json.find("\"lock_profiling\""), std::string::npos);
  EXPECT_NE(json.find("\"lock_contention\""), std::string::npos);
  EXPECT_NE(json.find("\"lanes\""), std::string::npos);
  EXPECT_NE(json.find("\"slowest_commits\""), std::string::npos);
  EXPECT_NE(json.find("\"commit_to_notify_us\""), std::string::npos);
}

// ----------------------------------------------------------------- JSON ---

TEST(JsonWriter, EscapesControlAndSpecialCharacters) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("k\"ey", std::string("line\nbreak\ttab\\slash\x01"));
  w.end_object();
  EXPECT_TRUE(JsonValidator::valid(w.str())) << w.str();
}

TEST(JsonWriter, NestedStructures) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("list").begin_array();
  w.value(std::int64_t{1});
  w.value(2.5);
  w.value(true);
  w.value("x");
  w.begin_object();
  w.kv("inner", std::uint64_t{7});
  w.end_object();
  w.end_array();
  w.kv("tail", false);
  w.end_object();
  EXPECT_TRUE(JsonValidator::valid(w.str())) << w.str();
  EXPECT_EQ(w.str(), R"({"list":[1,2.5,true,"x",{"inner":7}],"tail":false})");
}

TEST(ExportJson, DocumentIsWellFormedAndHasAllParts) {
  common::Metrics m;
  m.add(common::metric::kRowsScanned, 10);
  std::map<std::string, obs::Histogram> hists;
  hists["lat_us"].record(5);
  hists["lat_us"].record(9);
  const std::vector<obs::Section> sections = {
      {"extra", [](obs::JsonWriter& w) {
         w.begin_object();
         w.kv("nested", std::int64_t{1});
         w.end_object();
       }}};
  const std::string json = obs::export_json(m, hists, sections);
  EXPECT_TRUE(JsonValidator::valid(json)) << json;
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"rows_scanned\":10"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"lat_us\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
  EXPECT_NE(json.find("\"extra\":{\"nested\":1}"), std::string::npos);
}

// ------------------------------------------------------- metric interning --

TEST(MetricIds, NamesRoundTrip) {
  // Every well-known id has its own spelling, and all() reports each
  // counter under it.
  using namespace common;
  Metrics m;
  for (std::size_t i = 0; i < metric::kIdCount; ++i) {
    m.add(static_cast<metric::Id>(i), static_cast<std::int64_t>(i) + 1);
  }
  const auto all = m.all();
  ASSERT_EQ(all.size(), static_cast<std::size_t>(metric::kIdCount));
  for (std::size_t i = 0; i < metric::kIdCount; ++i) {
    const char* name = metric::name(static_cast<metric::Id>(i));
    ASSERT_EQ(all.count(name), 1u) << name;
    EXPECT_EQ(all.at(name), static_cast<std::int64_t>(i) + 1) << name;
  }
}

TEST(Metrics, ToStringIsDeterministicAndSorted) {
  common::Metrics a;
  common::Metrics b;
  a.add(common::metric::kTuplesCompared, 1);
  a.add(common::metric::kGcRuns, 2);
  b.add(common::metric::kGcRuns, 2);
  b.add(common::metric::kTuplesCompared, 1);
  EXPECT_EQ(a.to_string(), b.to_string());
  EXPECT_LT(a.to_string().find("gc_runs"), a.to_string().find("tuples_compared"));
}

// ------------------------------------------------------ per-CQ statistics --

struct CqFixture {
  cat::Database db;
  core::CqManager manager{db};
  std::shared_ptr<core::CollectingSink> sink = std::make_shared<core::CollectingSink>();

  CqFixture() {
    db.create_table("Stocks", rel::Schema::of({{"name", ValueType::kString},
                                               {"price", ValueType::kInt}}));
    db.insert("Stocks", {Value("DEC"), Value(150)});
    db.insert("Stocks", {Value("IBM"), Value(80)});
  }

  core::CqHandle install(const std::string& name, core::TriggerPtr trigger) {
    return manager.install(
        core::CqSpec::from_sql(name, "SELECT * FROM Stocks WHERE price > 120",
                               std::move(trigger)),
        sink);
  }
};

TEST(CqStatsRegistry, InstallPollRemoveLifecycle) {
  CqFixture f;
  const core::CqHandle h = f.install("watch", core::triggers::on_change());
  {
    const core::CqStats& s = f.manager.stats(h);
    EXPECT_EQ(s.name, "watch");
    EXPECT_EQ(s.executions, 1u);  // the initial execution
    EXPECT_EQ(s.trigger_checks, 0u);
    EXPECT_EQ(s.rows_delivered, 1u);  // DEC
    EXPECT_FALSE(s.finished);
  }

  f.db.insert("Stocks", {Value("MAC"), Value(130)});
  f.manager.poll();
  {
    const core::CqStats& s = f.manager.stats(h);
    EXPECT_EQ(s.executions, 2u);
    EXPECT_EQ(s.trigger_checks, 1u);
    EXPECT_EQ(s.fired, 1u);
    EXPECT_EQ(s.suppressed, 0u);
    EXPECT_EQ(s.delta_rows_consumed, 1u);
    EXPECT_EQ(s.rows_delivered, 2u);  // initial row + the delta row
  }

  f.manager.poll();  // nothing pending: checked but suppressed
  EXPECT_EQ(f.manager.stats(h).trigger_checks, 2u);
  EXPECT_EQ(f.manager.stats(h).suppressed, 1u);
  EXPECT_EQ(f.manager.stats(h).executions, 2u);

  // Stats survive removal, flagged finished, keyed by name.
  f.manager.remove(h);
  const auto& all = f.manager.cq_stats();
  ASSERT_EQ(all.count("watch"), 1u);
  EXPECT_TRUE(all.at("watch").finished);
  EXPECT_EQ(all.at("watch").executions, 2u);
}

TEST(CqStatsRegistry, ExecutionTimeAccumulates) {
  CqFixture f;
  const core::CqHandle h = f.install("t", core::triggers::on_change());
  f.db.insert("Stocks", {Value("MAC"), Value(130)});
  f.manager.poll();
  const core::CqStats& s = f.manager.stats(h);
  EXPECT_GE(s.total_exec_ns, s.last_exec_ns);
  EXPECT_GT(s.total_exec_ns, 0u);
}

TEST(CqStatsRegistry, StatsJsonSectionIsValid) {
  CqFixture f;
  f.install("a", core::triggers::on_change());
  f.install("b", core::triggers::manual());
  f.db.insert("Stocks", {Value("MAC"), Value(130)});
  f.manager.poll();
  const std::string json =
      obs::export_json(f.manager.metrics(), obs::global().histogram_snapshot(),
                       {f.manager.stats_section()});
  EXPECT_TRUE(JsonValidator::valid(json)) << json;
  EXPECT_NE(json.find("\"cqs\""), std::string::npos);
  EXPECT_NE(json.find("\"a\""), std::string::npos);
  EXPECT_NE(json.find("\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"executions\""), std::string::npos);
}

}  // namespace
}  // namespace cq
