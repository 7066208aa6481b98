#!/usr/bin/env python3
"""Line-coverage report + gate for the CQ engine's core directories.

Two acquisition modes, because the repo builds under two toolchains:

  gcov   GCC builds configured with -DCQ_COVERAGE=ON (the `coverage`
         preset): walks the build tree for .gcda arc files and asks
         `gcov --json-format --stdout` for per-line counts.

  llvm   clang builds (the `fuzz` preset in CI) compiled with
         -fprofile-instr-generate -fcoverage-mapping: merges .profraw
         files with llvm-profdata and reads `llvm-cov export` JSON for
         the given binaries.

The gate compares line coverage of the directory groups in
scripts/coverage_baseline.json ("floors") and fails when any group drops
below its floor. `--record` re-measures and rewrites the baseline with a
safety margin so toolchain variance between the two modes does not flap
the gate.

Usage:
  scripts/check_coverage.py --build-dir build-cov                # gcov gate
  scripts/check_coverage.py --build-dir build-fuzz --mode llvm \
      --binary build-fuzz/fuzz/fuzz_sql_parser ...              # llvm gate
  scripts/check_coverage.py --build-dir build-cov --record      # new baseline
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
BASELINE = REPO / "scripts" / "coverage_baseline.json"

# Directory groups the gate protects (repo-relative prefixes).
#: Directory prefixes — or single files — whose line coverage is floored.
#: src/delta guards the pin/GC contract; src/algebra the join and select
#: operators every DRA term runs; lock_order.cpp the deadlock checker the
#: whole lock discipline leans on.
GROUPS = ("src/query", "src/cq", "src/delta", "src/algebra",
          "src/common/lock_order.cpp")

# Floor = recorded coverage minus this margin (percentage points): absorbs
# gcov-vs-llvm-cov accounting differences and minor refactors.
MARGIN = 5.0


def run(cmd: list[str], **kw) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, capture_output=True, text=True, check=False, **kw)


def norm_source(path_str: str, build_dir: Path) -> Path | None:
    """Resolve a compiler-reported source path; None when outside the repo."""
    p = Path(path_str)
    if not p.is_absolute():
        p = (build_dir / p).resolve()
    try:
        p = p.resolve()
        p.relative_to(REPO)
    except (OSError, ValueError):
        return None
    return p


def collect_gcov(build_dir: Path) -> dict[Path, dict[int, int]]:
    """Per-source line counts from every .gcda under the build tree."""
    gcov = shutil.which("gcov")
    if gcov is None:
        sys.exit("error: gcov not found (gcov mode needs the GCC toolchain)")
    lines: dict[Path, dict[int, int]] = {}
    gcda = sorted(build_dir.rglob("*.gcda"))
    if not gcda:
        sys.exit(f"error: no .gcda files under {build_dir} — configure with "
                 "-DCQ_COVERAGE=ON (the 'coverage' preset) and run the tests first")
    for arc in gcda:
        proc = run([gcov, "--json-format", "--stdout", str(arc)], cwd=arc.parent)
        if proc.returncode != 0:
            continue
        for chunk in proc.stdout.splitlines():
            chunk = chunk.strip()
            if not chunk.startswith("{"):
                continue
            try:
                doc = json.loads(chunk)
            except json.JSONDecodeError:
                continue
            for f in doc.get("files", []):
                src = norm_source(f.get("file", ""), build_dir)
                if src is None:
                    continue
                per_line = lines.setdefault(src, {})
                for ln in f.get("lines", []):
                    n = ln.get("line_number")
                    c = ln.get("count", 0)
                    if n is not None:
                        per_line[n] = max(per_line.get(n, 0), int(c))
    return lines


def collect_llvm(build_dir: Path, binaries: list[str]) -> dict[Path, dict[int, int]]:
    """Per-source line counts from llvm-cov export over .profraw profiles."""
    profdata_tool = shutil.which("llvm-profdata")
    cov_tool = shutil.which("llvm-cov")
    if profdata_tool is None or cov_tool is None:
        sys.exit("error: llvm-profdata/llvm-cov not found (llvm mode)")
    raw = sorted(build_dir.rglob("*.profraw"))
    if not raw:
        sys.exit(f"error: no .profraw files under {build_dir} — run the "
                 "instrumented binaries with LLVM_PROFILE_FILE set first")
    if not binaries:
        sys.exit("error: llvm mode needs at least one --binary")
    merged = build_dir / "coverage.profdata"
    proc = run([profdata_tool, "merge", "-sparse", "-o", str(merged)]
               + [str(p) for p in raw])
    if proc.returncode != 0:
        sys.exit(f"error: llvm-profdata merge failed:\n{proc.stderr}")
    cmd = [cov_tool, "export", "-instr-profile", str(merged), binaries[0]]
    for extra in binaries[1:]:
        cmd += ["-object", extra]
    proc = run(cmd)
    if proc.returncode != 0:
        sys.exit(f"error: llvm-cov export failed:\n{proc.stderr}")
    doc = json.loads(proc.stdout)
    lines: dict[Path, dict[int, int]] = {}
    for datum in doc.get("data", []):
        for f in datum.get("files", []):
            src = norm_source(f.get("filename", ""), build_dir)
            if src is None:
                continue
            per_line = lines.setdefault(src, {})
            # Segments: [line, col, count, has_count, is_region_entry, ...]
            for seg in f.get("segments", []):
                line, _col, count, has_count = seg[0], seg[1], seg[2], seg[3]
                if has_count:
                    per_line[line] = max(per_line.get(line, 0), int(count))
    return lines


def summarize(lines: dict[Path, dict[int, int]]) -> dict[str, tuple[int, int]]:
    """(covered, total) instrumented lines per directory group."""
    totals = {g: [0, 0] for g in GROUPS}
    for src, per_line in lines.items():
        rel = src.relative_to(REPO).as_posix()
        group = next(
            (g for g in GROUPS if rel == g or rel.startswith(g + "/")), None)
        if group is None:
            continue
        totals[group][1] += len(per_line)
        totals[group][0] += sum(1 for c in per_line.values() if c > 0)
    return {g: (c, t) for g, (c, t) in totals.items()}


def pct(covered: int, total: int) -> float:
    return 100.0 * covered / total if total else 0.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", default="build-cov", type=Path)
    ap.add_argument("--mode", choices=("auto", "gcov", "llvm"), default="auto")
    ap.add_argument("--binary", action="append", default=[],
                    help="instrumented binary for llvm-cov export (repeatable)")
    ap.add_argument("--baseline", default=BASELINE, type=Path)
    ap.add_argument("--record", action="store_true",
                    help="rewrite the baseline from this measurement")
    args = ap.parse_args()

    build_dir = args.build_dir if args.build_dir.is_absolute() else REPO / args.build_dir
    mode = args.mode
    if mode == "auto":
        mode = "llvm" if any(build_dir.rglob("*.profraw")) else "gcov"

    lines = (collect_llvm(build_dir, args.binary) if mode == "llvm"
             else collect_gcov(build_dir))
    summary = summarize(lines)

    print(f"line coverage ({mode} mode, {build_dir.name}):")
    for group, (covered, total) in summary.items():
        print(f"  {group:10s} {pct(covered, total):6.2f}%  ({covered}/{total} lines)")

    if args.record:
        baseline = {
            "comment": "line-coverage floors for scripts/check_coverage.py; "
                       f"recorded minus a {MARGIN}-point margin. Re-record with "
                       "--record after intentional coverage changes.",
            "mode": mode,
            "recorded": {g: round(pct(c, t), 2) for g, (c, t) in summary.items()},
            "floors": {g: max(0.0, round(pct(c, t) - MARGIN, 1))
                       for g, (c, t) in summary.items()},
        }
        args.baseline.write_text(json.dumps(baseline, indent=2) + "\n")
        print(f"baseline recorded to {args.baseline}")
        return 0

    if not args.baseline.exists():
        sys.exit(f"error: {args.baseline} missing — run with --record first")
    floors = json.loads(args.baseline.read_text())["floors"]
    failed = False
    for group, floor in floors.items():
        covered, total = summary.get(group, (0, 0))
        actual = pct(covered, total)
        verdict = "ok" if actual >= floor else "BELOW FLOOR"
        print(f"  gate {group:10s} floor {floor:5.1f}%  actual {actual:6.2f}%  {verdict}")
        if actual < floor:
            failed = True
    if failed:
        print("coverage gate FAILED — add tests/corpus seeds or (if the drop is "
              "intentional) re-record the baseline with --record", file=sys.stderr)
        return 1
    print("coverage gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
