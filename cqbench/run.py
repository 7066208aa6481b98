#!/usr/bin/env python3
"""Build and run the repository benchmark (see cqbench/README.md).

    python3 cqbench/run.py --workload fanout_complete --seed 1 --seconds 10 --trace 0

Before the first run in a checkout this configures and builds a Release
`cqbench` binary from the engine sources into .bench_build/ at the
repository root (later runs only re-check the build). The last line of
standard output is the result JSON object. A traced run (--trace 1) also
writes its spans as a chrome://tracing file into .bench_build/out/.

Any further options (--lanes, --scale) are passed to the binary
unchanged; selfcheck.py uses them.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "cqbench")
WORKLOADS = ("fanout_complete", "writers_disjoint", "mediator_refresh")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"cqbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then bring the binary up to date. Output goes to a log."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "cqbench", "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            try:
                result = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                        cwd=ROOT, timeout=840)
            except (OSError, subprocess.TimeoutExpired) as err:
                fail(f"build step {cmd[:2]} failed: {err}")
            if result.returncode != 0:
                # A failed configure must not leave a cache that skips it next time.
                if "-S" in cmd:
                    cache = os.path.join(BUILD, "CMakeCache.txt")
                    if os.path.exists(cache):
                        os.remove(cache)
                fail(f"build failed (exit {result.returncode}); see {log_path}")


def source_id():
    """The git commit when there is one, else a digest of the source tree."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "cqbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = parser.parse_known_args()

    build()
    out_dir = os.path.join(BUILD, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir, "--git-sha", source_id()] + extra
    try:
        result = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", code=124)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
