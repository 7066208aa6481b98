#!/usr/bin/env python3
"""Repository invariant linter — the rules the compiler cannot enforce.

Rules (scoped to src/ and examples/ unless noted):

  raw-mutex       No raw std::mutex / std::lock_guard / std::unique_lock /
                  std::scoped_lock outside src/common/sync.hpp. Lock state
                  must use the annotated cq::common::Mutex / LockGuard so
                  Clang's thread-safety analysis sees every acquisition.
                  (tests/ may use raw primitives to *construct* race
                  scenarios; the library may not.)

  raw-thread      No raw std::thread / std::jthread outside src/common/
                  (the sanctioned homes: thread_pool for evaluation lanes,
                  introspect_server for its acceptor). Engine concurrency
                  goes through cq::common::ThreadPool, whose lanes the
                  dispatcher sizes and joins deterministically; ad-hoc
                  threads dodge the determinism contract and the pool's
                  queue-depth gauge. (tests/ may spawn threads to construct
                  race scenarios; the library may not.)

  pragma-once     Every header (src/, tests/, examples/, bench/) starts its
                  include-guard life with #pragma once.

  iostream        Library code (src/) and fuzz harnesses (fuzz/) neither
                  include <iostream> nor write to std::cout/cerr/clog —
                  library code logs through cq::log (common/logging.hpp,
                  whose implementation file is the single sanctioned
                  exception); fuzz harnesses print via <cstdio> so libFuzzer
                  output interleaves sanely. Examples and tests are
                  programs and may print.

  fuzz-corpus     Every fuzz target fuzz/fuzz_<name>.cpp ships a non-empty
                  seed corpus fuzz/corpus/<name>/ and is registered in
                  fuzz/CMakeLists.txt (CQ_FUZZ_TARGETS drives both the
                  libFuzzer binaries and the fuzz_replay_<name> ctest
                  cases — an unregistered target never replays in CI).

  swallowed-exception
                  No `catch (...)` in library code (src/) that neither
                  rethrows, captures via std::current_exception, logs
                  through cq::log, nor carries a comment saying *why* the
                  swallow is safe. A silent catch-all turns every future
                  bug into a no-symptom bug; the sanctioned swallows
                  (tracing must never take the engine down) all say so.

  unnamed-mutex   Every cq::common::Mutex declared in library or example
                  code carries a site name (and, for engine-lifetime locks,
                  a LockRank): `Mutex mu_{"site", LockRank::kX};`. An
                  unnamed mutex is invisible to lock-contention profiling
                  (/profile), the lock-order checker and the /lockgraph
                  export — docs/lock-hierarchy.md is the rank manifest,
                  scripts/check_lock_order.py the deeper cross-check.
                  (tests/ may declare anonymous scaffolding mutexes.)

Usage:
  scripts/lint_invariants.py             lint the tree; exit 0 clean, 1 dirty
  scripts/lint_invariants.py --self-test seed violations, assert detection
"""

from __future__ import annotations

import re
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

RAW_MUTEX_RE = re.compile(
    r"std::(mutex|recursive_mutex|shared_mutex|timed_mutex|lock_guard|"
    r"unique_lock|scoped_lock|shared_lock)\b"
)
RAW_THREAD_RE = re.compile(r"std::(thread|jthread)\b")
# A Mutex declaration with no initializer (`;`) or an empty one (`{}`):
# references, parameters and the class definition itself don't match.
UNNAMED_MUTEX_RE = re.compile(
    r"\b(?:cq::)?(?:common::)?Mutex\s+\w+\s*(?:;|\{\s*\})"
)
IOSTREAM_RE = re.compile(r"#include\s*<iostream>|std::(cout|cerr|clog)\b")
COMMENT_RE = re.compile(r"^\s*(//|\*|/\*)")

RAW_MUTEX_ALLOWED = {"src/common/sync.hpp"}
RAW_THREAD_ALLOWED_PREFIX = "src/common/"
IOSTREAM_ALLOWED = {"src/common/logging.cpp"}

CATCH_ALL_RE = re.compile(r"\bcatch\s*\(\s*\.\.\.\s*\)")
#: Anything that makes a catch-all honest: rethrow, capture, log, or an
#: explanatory comment inside the handler block.
CATCH_OK_RE = re.compile(
    r"\bthrow\b|\bcurrent_exception\b|\blog\s*[:(]|\bCQ_LOG\b|//|/\*"
)


def find_swallowed_catches(text: str) -> list[int]:
    """1-based line numbers of `catch (...)` handlers in `text` that
    neither rethrow, capture, log, nor explain themselves."""
    hits: list[int] = []
    for m in CATCH_ALL_RE.finditer(text):
        open_idx = text.find("{", m.end())
        if open_idx < 0:
            continue
        depth, i = 1, open_idx + 1
        while i < len(text) and depth:
            if text[i] == "{":
                depth += 1
            elif text[i] == "}":
                depth -= 1
            i += 1
        body = text[open_idx + 1 : i - 1]
        if not CATCH_OK_RE.search(body):
            hits.append(text.count("\n", 0, m.start()) + 1)
    return hits


def strip_line_comment(line: str) -> str:
    """Cut a trailing // comment (good enough: no multiline strings here)."""
    idx = line.find("//")
    return line if idx < 0 else line[:idx]


def lint_tree(repo: Path) -> list[str]:
    errors: list[str] = []

    def rel(p: Path) -> str:
        return p.relative_to(repo).as_posix()

    def iter_files(*roots: str, suffixes: tuple[str, ...]) -> list[Path]:
        out: list[Path] = []
        for root in roots:
            base = repo / root
            if base.is_dir():
                out.extend(
                    p for p in sorted(base.rglob("*")) if p.suffix in suffixes
                )
        return out

    # raw-mutex, raw-thread and unnamed-mutex: src/, examples/ and fuzz/.
    for path in iter_files("src", "examples", "fuzz", suffixes=(".hpp", ".cpp", ".h")):
        rp = rel(path)
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if COMMENT_RE.match(line):
                continue
            code = strip_line_comment(line)
            if rp not in RAW_MUTEX_ALLOWED and (m := RAW_MUTEX_RE.search(code)):
                errors.append(
                    f"{rp}:{lineno}: raw-mutex: std::{m.group(1)} outside "
                    "src/common/sync.hpp — use cq::common::Mutex/LockGuard"
                )
            if not rp.startswith(RAW_THREAD_ALLOWED_PREFIX) and (
                m := RAW_THREAD_RE.search(code)
            ):
                errors.append(
                    f"{rp}:{lineno}: raw-thread: std::{m.group(1)} outside "
                    "src/common — use cq::common::ThreadPool"
                )
            if rp not in RAW_MUTEX_ALLOWED and UNNAMED_MUTEX_RE.search(code):
                errors.append(
                    f"{rp}:{lineno}: unnamed-mutex: Mutex without a site name — "
                    "declare it `Mutex mu_{\"site\", LockRank::k...};` so "
                    "lockprof, the lock-order checker and /lockgraph see it"
                )

    # pragma-once: every header anywhere we compile from.
    for path in iter_files("src", "tests", "examples", "bench", "fuzz",
                           suffixes=(".hpp", ".h")):
        text = path.read_text()
        if "#pragma once" not in text:
            errors.append(f"{rel(path)}:1: pragma-once: header lacks #pragma once")

    # iostream: library code and fuzz harnesses (cstdio only there).
    for path in iter_files("src", "fuzz", suffixes=(".hpp", ".cpp", ".h")):
        rp = rel(path)
        if rp in IOSTREAM_ALLOWED:
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if COMMENT_RE.match(line):
                continue
            if IOSTREAM_RE.search(strip_line_comment(line)):
                errors.append(
                    f"{rp}:{lineno}: iostream: library code writes to iostreams — "
                    "log through cq::log (common/logging.hpp)"
                )

    # swallowed-exception: catch-alls in library code must rethrow, capture,
    # log, or explain themselves.
    for path in iter_files("src", suffixes=(".hpp", ".cpp", ".h")):
        rp = rel(path)
        for lineno in find_swallowed_catches(path.read_text()):
            errors.append(
                f"{rp}:{lineno}: swallowed-exception: `catch (...)` neither "
                "rethrows, captures via std::current_exception, logs via "
                "cq::log, nor carries a comment saying why the swallow is safe"
            )

    # fuzz-corpus: each fuzz target needs seeds and a replay registration.
    fuzz_dir = repo / "fuzz"
    if fuzz_dir.is_dir():
        cmake_file = fuzz_dir / "CMakeLists.txt"
        cmake_text = cmake_file.read_text() if cmake_file.is_file() else ""
        for path in sorted(fuzz_dir.glob("fuzz_*.cpp")):
            name = path.stem[len("fuzz_"):]
            corpus = fuzz_dir / "corpus" / name
            if not corpus.is_dir() or not any(
                p for p in corpus.iterdir() if not p.name.startswith(".")
            ):
                errors.append(
                    f"{rel(path)}:1: fuzz-corpus: target '{name}' has no non-empty "
                    f"seed corpus fuzz/corpus/{name}/"
                )
            if not re.search(rf"\b{re.escape(name)}\b", cmake_text):
                errors.append(
                    f"{rel(path)}:1: fuzz-corpus: target '{name}' not registered in "
                    "fuzz/CMakeLists.txt (add it to CQ_FUZZ_TARGETS so the "
                    "fuzz_replay ctest case exists)"
                )

    return errors


def self_test() -> int:
    """Seed one violation per rule into a scratch tree; every rule must fire."""
    cases = {
        "raw-mutex": ("src/bad_mutex.cpp", "static std::mutex mu;\n"),
        "raw-thread": ("src/bad_thread.cpp", "void f() { std::thread t; t.join(); }\n"),
        "pragma-once": ("src/bad_header.hpp", "struct NoGuard {};\n"),
        "iostream": ("src/bad_print.cpp", "#include <iostream>\n"),
        "fuzz-corpus": ("fuzz/fuzz_orphan.cpp", "int orphan_target();\n"),
        "unnamed-mutex": ("src/bad_anon_mutex.cpp", "struct S { common::Mutex mu_; };\n"),
        "swallowed-exception": (
            "src/bad_catch.cpp",
            "void f() { try { g(); } catch (...) { count += 1; } }\n",
        ),
    }
    failures = 0
    for rule, (relpath, content) in cases.items():
        with tempfile.TemporaryDirectory() as tmp:
            scratch = Path(tmp)
            target = scratch / relpath
            target.parent.mkdir(parents=True, exist_ok=True)
            if rule != "pragma-once" and target.suffix == ".hpp":
                content = "#pragma once\n" + content
            target.write_text(content)
            hits = [e for e in lint_tree(scratch) if f" {rule}:" in e]
            if hits:
                print(f"self-test: {rule}: detected ({hits[0]})")
            else:
                print(f"self-test: {rule}: NOT DETECTED", file=sys.stderr)
                failures += 1
    # A clean scratch tree must produce no findings.
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp)
        (clean / "src").mkdir()
        (clean / "src" / "ok.hpp").write_text("#pragma once\nstruct Ok {};\n")
        leftovers = lint_tree(clean)
        if leftovers:
            print(f"self-test: clean tree flagged: {leftovers}", file=sys.stderr)
            failures += 1
        else:
            print("self-test: clean tree: no findings")
    return 1 if failures else 0


def main(argv: list[str]) -> int:
    if "--self-test" in argv:
        return self_test()
    errors = lint_tree(REPO)
    for e in errors:
        print(e, file=sys.stderr)
    if errors:
        print(f"lint_invariants: {len(errors)} violation(s)", file=sys.stderr)
        return 1
    print("lint_invariants: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
