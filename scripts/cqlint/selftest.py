"""cqlint self-test: every rule is proven against its negative fixture.

Each fixture under tests/negative/cqlint/ marks its violating lines with
a `// cqlint-expect: <rule>` comment. The self-test runs the analyzer
(whichever backend is active) over each fixture and asserts

  1. every marked line produced a finding of the marked rule (within a
     small line tolerance — backends anchor findings slightly
     differently), and
  2. the rule produced no findings *away* from the marks — the fixtures
     contain deliberate near-misses (loud defaults, pure captures,
     locals) that a sloppy rule would flag.

Then the baseline machinery is checked: a justification-free suppression
and a stale suppression must both be rejected.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

from baseline import Baseline, Suppression
from cli import REPO, analyze
from model import Finding
from rules import RULE_IDS

FIXTURE_DIR = REPO / "tests" / "negative" / "cqlint"
EXPECT_RE = re.compile(r"//\s*cqlint-expect:\s*([\w-]+)")
TOLERANCE = 3  # lines; backends anchor on decl vs block-open vs label


def fixture_expectations(path: Path) -> list[tuple[int, str]]:
    out = []
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        for m in EXPECT_RE.finditer(line):
            out.append((lineno, m.group(1)))
    return out


def check_fixture(path: Path, findings: list[Finding]) -> list[str]:
    errors = []
    expects = fixture_expectations(path)
    if not expects:
        return [f"{path.name}: fixture carries no cqlint-expect markers"]
    rules_under_test = {rule for _, rule in expects}
    for lineno, rule in expects:
        hit = [f for f in findings
               if f.rule == rule and abs(f.line - lineno) <= TOLERANCE]
        if not hit:
            errors.append(f"{path.name}:{lineno}: expected {rule}, rule did "
                          "not fire")
    for f in findings:
        if f.rule not in rules_under_test:
            continue  # fixtures may incidentally trip sibling rules
        near = [e for e in expects
                if e[1] == f.rule and abs(f.line - e[0]) <= TOLERANCE]
        if not near:
            errors.append(f"{path.name}:{f.line}: unexpected {f.rule} "
                          f"finding ({f.message[:60]}...) — near-miss "
                          "incorrectly flagged")
    return errors


def self_test(backend: str, require_clang: bool) -> int:
    failures: list[str] = []
    fixtures = sorted(FIXTURE_DIR.glob("*.cpp"))
    covered = {rule for fx in fixtures for _, rule in fixture_expectations(fx)}
    if missing := sorted(set(RULE_IDS) - covered):
        print(f"self-test: no fixture under {FIXTURE_DIR} proves "
              f"{', '.join(missing)} — need one per rule", file=sys.stderr)
        return 1
    backend_used = ""
    for fx in fixtures:
        findings, backend_used, _ = analyze([fx], backend, None, require_clang)
        errs = check_fixture(fx, findings)
        failures += errs
        status = "ok" if not errs else "FAIL"
        fired = sorted({f.rule for f in findings})
        print(f"self-test[{backend_used}]: {fx.name}: {status} "
              f"(fired: {', '.join(fired) or 'none'})")

    # Baseline honesty checks need no fixtures.
    bl = Baseline([Suppression("exhaustive-switch", "src/x.cpp", "Kind", "ok")],
                  "<mem>")
    if not bl.validate():
        failures.append("baseline: justification-free suppression accepted")
    else:
        print("self-test: baseline rejects missing justification: ok")
    bl2 = Baseline([Suppression("worker-purity", "src/y.cpp", "never",
                                "a perfectly reasonable justification")],
                   "<mem>")
    bl2.filter([])
    if not bl2.stale():
        failures.append("baseline: stale suppression not reported")
    else:
        print("self-test: baseline reports stale suppressions: ok")

    for f in failures:
        print(f"self-test: {f}", file=sys.stderr)
    print(f"self-test[{backend_used}]: "
          f"{'PASS' if not failures else f'{len(failures)} failure(s)'}")
    return 1 if failures else 0
