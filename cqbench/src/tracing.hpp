// The traced run's instruments. All measurement is taken from outside the
// engine: the benchmark times its own calls into public functions, and
// wraps the public extension points the engine calls back into —
//
//   * TimingTrigger around each CQ's Trigger (should_fire),
//   * TimingSink around each CQ's ResultSink (on_result),
//   * TimingSource around each diom::RelationalSource (pull_deltas),
//
// each recording a span and reporting against the per-commit CommitStamp of
// the commit being dispatched. Spans stay in per-thread memory and are
// written out once, when the run ends. When tracing is off the decorators
// forward with one relaxed load.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "cq/continual_query.hpp"
#include "cq/trigger.hpp"
#include "diom/source.hpp"
#include "harness.hpp"

namespace cqbench {

/// Per-commit timing stamp. A writer opens it right before commit(); the
/// decorators fill in the first trigger check and the first/last sink call
/// of that commit's dispatch, from whichever thread the engine runs them on.
struct CommitStamp {
  std::atomic<std::uint64_t> start{0};
  std::atomic<std::uint64_t> first_check{0};
  std::atomic<std::uint64_t> first_sink{0};
  std::atomic<std::uint64_t> last_sink_end{0};

  void open(std::uint64_t t) noexcept {
    first_check.store(0, std::memory_order_relaxed);
    first_sink.store(0, std::memory_order_relaxed);
    last_sink_end.store(0, std::memory_order_relaxed);
    start.store(t, std::memory_order_release);
  }
  /// Record the derived commit phases once commit() has returned at `end`.
  void close(std::uint64_t end) const;
};

namespace tracer {

[[nodiscard]] bool on() noexcept;
void set_on(bool on) noexcept;

/// Record one span into the calling thread's recorder.
void record(Span kind, std::uint64_t start_ns, std::uint64_t end_ns);

/// The stamp decorators report to. A driver thread binds its own; engine
/// pool lanes have none bound and fall back to the shared stamp, which a
/// single-writer workload sets so dispatches evaluated on the pool still
/// land on the committing writer's stamp.
void bind_thread_stamp(CommitStamp* stamp) noexcept;
void set_shared_stamp(CommitStamp* stamp) noexcept;
[[nodiscard]] CommitStamp* stamp() noexcept;

/// Every thread's histograms merged. Call only once the run has quiesced.
[[nodiscard]] std::map<Span, FineHist> merged();

/// Write the retained spans as a chrome://tracing event array.
void write_chrome_trace(const std::string& path);

}  // namespace tracer

class TimingTrigger final : public core::Trigger {
 public:
  explicit TimingTrigger(core::TriggerPtr inner) : inner_(std::move(inner)) {}
  [[nodiscard]] bool should_fire(const core::TriggerContext& context) const override;
  [[nodiscard]] std::string describe() const override { return inner_->describe(); }

 private:
  core::TriggerPtr inner_;
};

class TimingSink final : public core::ResultSink {
 public:
  explicit TimingSink(std::shared_ptr<core::ResultSink> inner) : inner_(std::move(inner)) {}
  void on_result(const core::Notification& notification) override;

 private:
  std::shared_ptr<core::ResultSink> inner_;
};

class TimingSource final : public diom::InformationSource {
 public:
  explicit TimingSource(std::shared_ptr<diom::InformationSource> inner)
      : inner_(std::move(inner)) {}
  [[nodiscard]] const std::string& name() const noexcept override { return inner_->name(); }
  [[nodiscard]] const rel::Schema& schema() const override { return inner_->schema(); }
  [[nodiscard]] rel::Relation snapshot() const override { return inner_->snapshot(); }
  [[nodiscard]] std::vector<delta::DeltaRow> pull_deltas(
      common::Timestamp since) const override;
  [[nodiscard]] common::Timestamp now() const override { return inner_->now(); }

 private:
  std::shared_ptr<diom::InformationSource> inner_;
};

/// Wrap in the timing decorator when the run is traced; unchanged otherwise.
[[nodiscard]] core::TriggerPtr instrument(core::TriggerPtr trigger, bool trace);
[[nodiscard]] std::shared_ptr<core::ResultSink> instrument(
    std::shared_ptr<core::ResultSink> sink, bool trace);
[[nodiscard]] std::shared_ptr<diom::InformationSource> instrument(
    std::shared_ptr<diom::InformationSource> source, bool trace);

}  // namespace cqbench
