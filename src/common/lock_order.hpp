// Runtime lock-order verification for the annotated mutexes in
// common/sync.hpp — layer 1 of the three-layer lock-discipline subsystem
// (see docs/static-analysis.md and the checked-in hierarchy manifest
// docs/lock-hierarchy.md).
//
// Every *named* cq::common::Mutex carries a LockRank. In a build with
// CQ_LOCK_ORDER_CHECKS defined (default for Debug / RelWithDebInfo / the
// tsan preset; compiled out for Release) Mutex::lock():
//
//   1. pushes the acquisition onto a thread-local held-lock stack,
//   2. enforces monotone rank acquisition — blocking on a mutex whose
//      rank is <= any ranked mutex already held aborts the process,
//      naming both sites, both ranks, the full held chain and both
//      acquisition backtraces,
//   3. records the observed (held-site -> acquired-site) edge into a
//      process-global lock-order graph with incremental cycle detection,
//      so an ordering cycle between *unranked* sites (which the rank
//      check cannot see) also aborts at the moment it first closes.
//
// The graph is exported through the /lockgraph introspection endpoint
// (JSON + DOT) and each first-observed edge is journaled as a
// `lock_order_edge` event via the installable edge hook.
//
// Like lock_profile.hpp, this header sits *below* sync.hpp (sync.hpp
// includes it) and therefore never takes a lock of its own: the graph is
// a fixed matrix of relaxed atomics and the held stack is thread-local.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace cq::common::lockorder {

/// Acquisition ranks for the engine's long-lived mutex sites. Locks must
/// be acquired in strictly increasing rank order: outermost (held the
/// longest, taken first) ranks lowest. The numeric gaps are deliberate —
/// new sites slot between existing layers without renumbering. Every
/// ranked site must appear in docs/lock-hierarchy.md with its rationale;
/// scripts/check_lock_order.py cross-checks code against that manifest.
enum class LockRank : std::uint16_t {
  /// No rank declared. Unranked named mutexes (test scaffolding) are
  /// exempt from the monotonicity check but still feed the edge graph
  /// and its cycle detection.
  kUnranked = 0,
  /// The engine "big lock": serializes the command/commit loop with the
  /// introspection server's handlers. Outermost by construction.
  kEngine = 10,
  /// diom::Mediator internal state (sources, cursors, sync stats).
  kMediator = 20,
  /// Per-shard catalog commit locks (catalog::Database). A *cohort*: the
  /// shards share this rank and one site literal, and are acquired in
  /// ascending shard order — each shard mutex carries its shard index as
  /// an order key, and same-rank acquisition is legal only with strictly
  /// ascending nonzero keys.
  kCommitShard = 22,
  /// Commit timestamp/sequence allocator (catalog::Database) — the short
  /// critical section that totally orders commits.
  kCommitTs = 24,
  /// CqManager registered-CQ map structure (install/finish vs. dispatch).
  kCqEntries = 26,
  /// DeltaZoneRegistry per-relation zone clocks.
  kDeltaZones = 28,
  /// CqManager history of finished CQs' stats, and the manager-wide
  /// metrics bag the per-CQ bags fold into on read.
  kCqStats = 30,
  /// One installed CQ's stats, metrics and latest DRA stats (CqManager
  /// entry): taken by the thread evaluating that CQ and by stats readers.
  kCqEntryStats = 32,
  /// core::LineageStore retention rings (delivery-time recording).
  kLineageStore = 35,
  /// ThreadPool queue mutex — acquired by the dispatcher while the
  /// engine-side locks above are (possibly) held; never held across task
  /// execution (drain releases it around run_task).
  kPool = 40,
  /// DeltaSnapshot memoization — taken by pool workers during parallel
  /// evaluation.
  kDeltaSnapshot = 50,
  /// DeltaRelation GC pin counts (pin_reads / truncate_before).
  kDeltaPins = 55,
  /// rel::prov relation-name interner.
  kProvInterner = 60,
  /// Observability refresh-hook table: held *while hooks run*, and hooks
  /// publish gauges, so this must rank before the registry.
  kRefreshHooks = 65,
  /// Structured journal ring (EventLog).
  kEventLog = 70,
  /// Span/trace ring (TraceCollector).
  kTraceRing = 72,
  /// obs::Registry histogram/gauge maps.
  kObsRegistry = 74,
  /// Trace lane-name table.
  kLaneNames = 76,
  /// Strictly-innermost leaf locks (test scaffolding that wants rank
  /// checking without claiming a real layer).
  kLeaf = 90,
};

[[nodiscard]] constexpr std::uint16_t rank_value(LockRank r) noexcept {
  return static_cast<std::uint16_t>(r);
}

/// Is the checker compiled into this build?
[[nodiscard]] constexpr bool compiled_in() noexcept {
#if defined(CQ_LOCK_ORDER_CHECKS)
  return true;
#else
  return false;
#endif
}

/// Capacity of the site table (mirrors lockprof::kMaxSites: sites are
/// per-role compile-time literals, not per-instance).
inline constexpr std::size_t kMaxSites = 64;

/// Sentinel: "no graph slot" — table full, or not yet registered.
inline constexpr std::uint32_t kNoSite = ~static_cast<std::uint32_t>(0);

/// Find-or-create the graph slot for `name` (pointer-keyed, then string
/// compare, so instances sharing a site literal aggregate into one node —
/// lockdep-style lock classes). Returns kNoSite when the table is full;
/// the mutex then still rank-checks but stays out of the graph. A site
/// re-registered with a *different* nonzero rank keeps its first rank
/// (scripts/check_lock_order.py rejects such drift at lint time).
[[nodiscard]] std::uint32_t register_site(const char* name,
                                          std::uint16_t rank) noexcept;

/// Mutex::lock/try_lock instrumentation: rank-check `addr` against this
/// thread's held stack (only when `blocking`), record held->acquired
/// edges, then push. Aborts on a rank inversion, a self-deadlock (same
/// mutex already held by this thread), or a freshly closed graph cycle.
///
/// `order_key` refines the rank rule for *cohorts* — arrays of mutexes
/// sharing one rank (the commit shards): blocking on a mutex whose rank
/// *equals* a held rank is legal iff both carry nonzero order keys and
/// the new key is strictly greater than every held same-rank key.
/// Key 0 means "no cohort": equal-rank blocking stays a violation.
void on_lock(const void* addr, const char* name, std::uint16_t rank,
             std::uint32_t order_key, std::uint32_t site,
             bool blocking) noexcept;

/// Mutex::unlock instrumentation: remove `addr` from the held stack
/// (wherever it sits — release order need not mirror acquisition).
void on_unlock(const void* addr) noexcept;

/// Depth of the calling thread's held-lock stack (tests: balance).
[[nodiscard]] std::size_t held_depth() noexcept;

// ------------------------------------------------------- graph inspection --

struct SiteInfo {
  const char* name = nullptr;
  std::uint16_t rank = 0;
};

[[nodiscard]] std::size_t site_count() noexcept;
[[nodiscard]] SiteInfo site(std::size_t i) noexcept;

/// Times the edge from->to was observed (0 = never).
[[nodiscard]] std::uint64_t edge_count(std::uint32_t from,
                                       std::uint32_t to) noexcept;

/// Violations that were *reported* rather than aborted on (see
/// set_abort_on_violation — tests flip it to assert on the count).
[[nodiscard]] std::uint64_t violations() noexcept;

/// The observed lock-order graph as JSON:
///   {"enabled":true,"sites":[{"id":0,"name":"engine","rank":10},...],
///    "edges":[{"from":"engine","to":"mediator","count":12},...]}
/// With the checker compiled out this still links and reports
/// {"enabled":false,...} with empty arrays.
[[nodiscard]] std::string to_json();

/// Same graph as GraphViz DOT (one node per site, labelled with its
/// rank; one edge per observed ordered pair, labelled with its count).
[[nodiscard]] std::string to_dot();

/// Drop every recorded edge (site registrations and ranks survive).
/// Test scaffolding — the graph is normally append-only for the process
/// lifetime.
void reset_graph() noexcept;

// ----------------------------------------------------------------- hooks --

/// First-observation edge callback, installed by the observability layer
/// to journal `lock_order_edge` events. Called at most once per ordered
/// site pair, outside the checker's own bookkeeping (re-entrant lock
/// acquisitions made by the hook are ignored). Plain function pointer:
/// this layer sits below <functional> users.
struct EdgeEvent {
  const char* held = nullptr;
  const char* acquired = nullptr;
  std::uint16_t held_rank = 0;
  std::uint16_t acquired_rank = 0;
};
using EdgeHook = void (*)(const EdgeEvent&);
void set_edge_hook(EdgeHook hook) noexcept;

/// When false, a detected violation is counted (see violations()) and
/// reported to stderr but does not abort. Default true — production
/// debug builds should die loudly. Tests use the non-fatal mode to probe
/// the detector without EXPECT_DEATH's fork cost.
void set_abort_on_violation(bool abort_on_violation) noexcept;

}  // namespace cq::common::lockorder
