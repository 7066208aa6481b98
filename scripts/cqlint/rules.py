"""The four cqlint rules — policy over the backend-neutral fact model.

  guarded-ref-escape   methods returning references/pointers to fields
                       guarded by a cq::common::Mutex: the reference
                       outlives the lock the moment the accessor returns
                       (the scrape-vs-engine race class).
  blocking-under-lock  no sleeps, file/socket I/O, ThreadPool::run_all or
                       foreign-condvar waits while a named Mutex is held
                       — the static complement of the runtime lockdep.
  worker-purity        lambdas submitted to ThreadPool::run_all capture
                       engine state only by value or through sanctioned
                       snapshot/context types, preserving the
                       serially-replayed-side-effects discipline.
  exhaustive-switch    switches over project enums enumerate every
                       variant; a silent `default:` swallows the variants
                       nobody listed (loud defaults — throw/fail/abort —
                       are the sanctioned escape).
"""

from __future__ import annotations

from model import Facts, Finding

RULE_IDS = (
    "guarded-ref-escape",
    "blocking-under-lock",
    "worker-purity",
    "exhaustive-switch",
)

#: Callee spellings that block (or can block arbitrarily long) — not
#: allowed while a cq::common::Mutex is held.
BLOCKING_CALLS = {
    "sleep_for": "sleeps",
    "sleep_until": "sleeps",
    "sleep": "sleeps",
    "usleep": "sleeps",
    "nanosleep": "sleeps",
    "run_all": "dispatches to the thread pool (workers may need this lock)",
    "fopen": "does file I/O",
    "ifstream": "does file I/O",
    "ofstream": "does file I/O",
    "fstream": "does file I/O",
    "basic_ifstream": "does file I/O",
    "basic_ofstream": "does file I/O",
    "basic_fstream": "does file I/O",
    "getline": "does stream I/O",
    "accept": "does socket I/O",
    "recv": "does socket I/O",
    "send": "does socket I/O",
    "connect": "does socket I/O",
    "poll": "does socket I/O",
    "select": "does socket I/O",
    "system": "spawns a process",
}

#: Types a run_all worker may capture by reference: read-only snapshot /
#: context state whose sharing discipline the engine already guarantees.
SANCTIONED_REF_TYPES = ("SnapshotMap", "DeltaSnapshot", "Context")

#: Mutex member names the capability system itself returns by reference
#: (CQ_RETURN_CAPABILITY accessors and friends) — not data escapes.
_MUTEX_NAME_HINTS = ("mu", "mu_", "mutex", "mutex_")


def run_rules(facts: Facts, enabled: set[str] | None = None) -> list[Finding]:
    findings: list[Finding] = []
    active = enabled or set(RULE_IDS)
    if "guarded-ref-escape" in active:
        findings += guarded_ref_escape(facts)
    if "blocking-under-lock" in active:
        findings += blocking_under_lock(facts)
    if "worker-purity" in active:
        findings += worker_purity(facts)
    if "exhaustive-switch" in active:
        findings += exhaustive_switch(facts)
    findings.sort(key=lambda f: (f.file, f.line, f.rule))
    return findings


def guarded_ref_escape(facts: Facts) -> list[Finding]:
    by_class: dict[str, list] = {}
    for g in facts.guarded_fields:
        by_class.setdefault(g.class_name, []).append(g)
    out = []
    for r in facts.ref_returns:
        for g in by_class.get(r.class_name, ()):
            if g.field_name in r.returned_names and g.field_name not in _MUTEX_NAME_HINTS:
                out.append(Finding(
                    "guarded-ref-escape", r.file, r.line,
                    f"{r.class_name}::{r.method}",
                    f"returns `{r.ret_type}` reaching field `{g.field_name}` "
                    f"guarded by `{g.mutex}` — the reference escapes the "
                    "critical section; return a copy or document why the "
                    "referent is immutable"))
                break
    return out


def blocking_under_lock(facts: Facts) -> list[Finding]:
    out = []
    for s in facts.lock_scopes:
        seen: set[tuple[int, str]] = set()
        for c in s.calls:
            why = BLOCKING_CALLS.get(c.text)
            if why is None or (c.line, c.text) in seen:
                continue
            seen.add((c.line, c.text))
            out.append(Finding(
                "blocking-under-lock", s.file, c.line, s.mutex,
                f"`{c.text}` {why} while `{s.mutex}` is held "
                f"(acquired line {s.line}) — shrink the critical section"))
        for line, waited in s.waits:
            if waited != s.mutex:
                out.append(Finding(
                    "blocking-under-lock", s.file, line, s.mutex,
                    f"condition-variable wait on `{waited}` while holding "
                    f"`{s.mutex}` (acquired line {s.line}) — waiting on a "
                    "foreign mutex under a held lock is a deadlock recipe"))
    return out


def worker_purity(facts: Facts) -> list[Finding]:
    out = []
    for w in facts.worker_lambdas:
        for cap in w.captures:
            cap = cap.strip()
            if cap == "&":
                out.append(Finding(
                    "worker-purity", w.file, w.line, w.enclosing,
                    "run_all worker captures everything by reference "
                    "([&]) — name each capture so the purity contract is "
                    "auditable"))
            elif cap == "this":
                out.append(Finding(
                    "worker-purity", w.file, w.line, w.enclosing,
                    "run_all worker captures `this` — engine state is "
                    "reachable mutably from a pool lane; route reads "
                    "through snapshots and replay side effects serially"))
            elif cap.startswith("&"):
                ty = w.capture_types.get(cap, "")
                if any(t in ty for t in SANCTIONED_REF_TYPES):
                    continue
                out.append(Finding(
                    "worker-purity", w.file, w.line, w.enclosing,
                    f"run_all worker captures `{cap}` by reference "
                    f"(type `{ty or 'unresolved'}`) — only const/value "
                    "captures or sanctioned snapshot/context types "
                    f"({', '.join(SANCTIONED_REF_TYPES)}) are pure"))
    return out


def exhaustive_switch(facts: Facts) -> list[Finding]:
    # Variant-set index; the label qualifier tail picks the enum, the
    # variant set disambiguates same-named nested enums (Kind, ...).
    by_name: dict[str, list] = {}
    for e in facts.enums:
        by_name.setdefault(e.name, []).append(e)
    out = []
    for s in facts.switches:
        candidates = by_name.get(s.enum_name, [])
        enum = None
        for e in candidates:
            if set(s.labels) <= set(e.variants):
                enum = e
                break
        if enum is None:
            continue  # not a project enum (or labels we cannot resolve)
        missing = [v for v in enum.variants if v not in s.labels]
        if s.has_default and not s.default_loud:
            what = (f"future variants of {enum.qualified}" if not missing
                    else f"{', '.join(missing)}")
            out.append(Finding(
                "exhaustive-switch", s.file, s.default_line, enum.qualified,
                f"silent `default:` over {enum.qualified} swallows {what} — "
                "enumerate every variant (or make the default throw)"))
        elif not s.has_default and missing:
            out.append(Finding(
                "exhaustive-switch", s.file, s.line, enum.qualified,
                f"switch over {enum.qualified} misses "
                f"{', '.join(missing)} — enumerate every variant"))
    return out
