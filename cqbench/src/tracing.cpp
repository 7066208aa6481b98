#include "tracing.hpp"

#include <array>
#include <fstream>
#include <mutex>
#include <vector>

namespace cqbench {

namespace {

struct SpanRecord {
  std::uint64_t start_ns;
  std::uint64_t dur_ns;
  Span kind;
};

/// Spans kept for the dump, over all threads; histograms see every span.
constexpr std::uint64_t kMaxRetainedSpans = 1 << 18;
std::atomic<std::uint64_t> g_retained{0};

/// One thread's spans. Owned by the registry so a recorder outlives the
/// engine pool thread that filled it.
struct Recorder {
  std::array<FineHist, static_cast<std::size_t>(Span::kCount)> hist;
  std::vector<SpanRecord> spans;
  std::uint64_t dropped = 0;
  std::size_t index = 0;
};

std::atomic<bool> g_on{false};
std::atomic<CommitStamp*> g_shared_stamp{nullptr};
thread_local CommitStamp* t_stamp = nullptr;

std::mutex g_registry_mu;
std::vector<std::shared_ptr<Recorder>>& registry() {
  static std::vector<std::shared_ptr<Recorder>> recorders;
  return recorders;
}

Recorder& local_recorder() {
  thread_local std::shared_ptr<Recorder> recorder = [] {
    auto r = std::make_shared<Recorder>();
    std::lock_guard lock(g_registry_mu);
    r->index = registry().size();
    registry().push_back(r);
    return r;
  }();
  return *recorder;
}

/// Set `slot` to `t` if it is still unset (the first caller wins).
void stamp_first(std::atomic<std::uint64_t>& slot, std::uint64_t t) noexcept {
  std::uint64_t expected = 0;
  slot.compare_exchange_strong(expected, t, std::memory_order_relaxed);
}

}  // namespace

void CommitStamp::close(std::uint64_t end) const {
  const std::uint64_t s = start.load(std::memory_order_acquire);
  const std::uint64_t check = first_check.load(std::memory_order_relaxed);
  const std::uint64_t sink0 = first_sink.load(std::memory_order_relaxed);
  const std::uint64_t sink1 = last_sink_end.load(std::memory_order_relaxed);
  if (check >= s && check != 0) tracer::record(Span::kFirstCheck, s, check);
  if (sink1 != 0 && sink1 <= end) tracer::record(Span::kCommitTail, sink1, end);
  if (sink0 != 0 && sink1 >= sink0) tracer::record(Span::kDispatchSpread, sink0, sink1);
}

namespace tracer {

bool on() noexcept { return g_on.load(std::memory_order_relaxed); }
void set_on(bool on) noexcept { g_on.store(on, std::memory_order_relaxed); }

void record(Span kind, std::uint64_t start_ns, std::uint64_t end_ns) {
  Recorder& r = local_recorder();
  const std::uint64_t dur = end_ns - start_ns;
  r.hist[static_cast<std::size_t>(kind)].record_ns(dur);
  if (g_retained.load(std::memory_order_relaxed) < kMaxRetainedSpans &&
      g_retained.fetch_add(1, std::memory_order_relaxed) < kMaxRetainedSpans) {
    r.spans.push_back({start_ns, dur, kind});
  } else {
    ++r.dropped;
  }
}

void bind_thread_stamp(CommitStamp* stamp) noexcept { t_stamp = stamp; }
void set_shared_stamp(CommitStamp* stamp) noexcept {
  g_shared_stamp.store(stamp, std::memory_order_release);
}
CommitStamp* stamp() noexcept {
  return t_stamp != nullptr ? t_stamp : g_shared_stamp.load(std::memory_order_acquire);
}

std::map<Span, FineHist> merged() {
  std::map<Span, FineHist> out;
  std::lock_guard lock(g_registry_mu);
  for (const auto& r : registry()) {
    for (std::size_t k = 0; k < r->hist.size(); ++k) {
      if (r->hist[k].count() > 0) out[static_cast<Span>(k)].merge(r->hist[k]);
    }
  }
  return out;
}

void write_chrome_trace(const std::string& path) {
  std::ofstream out(path);
  out << "[";
  bool first = true;
  std::lock_guard lock(g_registry_mu);
  for (const auto& r : registry()) {
    for (const SpanRecord& s : r->spans) {
      out << (first ? "\n" : ",\n") << "{\"name\":\"" << span_name(s.kind)
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << r->index
          << ",\"ts\":" << static_cast<double>(s.start_ns) / 1e3
          << ",\"dur\":" << static_cast<double>(s.dur_ns) / 1e3 << "}";
      first = false;
    }
    if (r->dropped > 0) {
      out << (first ? "\n" : ",\n") << "{\"name\":\"dropped\",\"ph\":\"M\",\"pid\":1,\"tid\":"
          << r->index << ",\"args\":{\"spans\":" << r->dropped << "}}";
      first = false;
    }
  }
  out << "\n]\n";
}

}  // namespace tracer

bool TimingTrigger::should_fire(const core::TriggerContext& context) const {
  if (!tracer::on()) return inner_->should_fire(context);
  const std::uint64_t t0 = now_ns();
  const bool fire = inner_->should_fire(context);
  tracer::record(Span::kTriggerCheck, t0, now_ns());
  if (CommitStamp* s = tracer::stamp()) stamp_first(s->first_check, t0);
  return fire;
}

void TimingSink::on_result(const core::Notification& notification) {
  if (!tracer::on()) return inner_->on_result(notification);
  const std::uint64_t t0 = now_ns();
  inner_->on_result(notification);
  const std::uint64_t t1 = now_ns();
  tracer::record(Span::kSink, t0, t1);
  if (CommitStamp* s = tracer::stamp()) {
    stamp_first(s->first_sink, t0);
    s->last_sink_end.store(t1, std::memory_order_relaxed);
  }
}

std::vector<delta::DeltaRow> TimingSource::pull_deltas(common::Timestamp since) const {
  if (!tracer::on()) return inner_->pull_deltas(since);
  const std::uint64_t t0 = now_ns();
  std::vector<delta::DeltaRow> rows = inner_->pull_deltas(since);
  tracer::record(Span::kPull, t0, now_ns());
  return rows;
}

core::TriggerPtr instrument(core::TriggerPtr trigger, bool trace) {
  if (!trace) return trigger;
  return std::make_shared<const TimingTrigger>(std::move(trigger));
}

std::shared_ptr<core::ResultSink> instrument(std::shared_ptr<core::ResultSink> sink,
                                             bool trace) {
  if (!trace) return sink;
  return std::make_shared<TimingSink>(std::move(sink));
}

std::shared_ptr<diom::InformationSource> instrument(
    std::shared_ptr<diom::InformationSource> source, bool trace) {
  if (!trace) return source;
  return std::make_shared<TimingSource>(std::move(source));
}

}  // namespace cqbench
