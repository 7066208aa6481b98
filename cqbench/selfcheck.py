#!/usr/bin/env python3
"""Tiny-scale self-check of the benchmark.

    python3 cqbench/selfcheck.py

Runs every workload at a tiny table scale for about a second, with tracing
off and on, through run.py (which builds the binary if needed), and fails
unless:
  * the result line holds every metric BENCHMARK.json names for that mode,
    with its unit, and nothing else;
  * every world's oracle agrees and no operation failed;
  * the traced run prints its layer check, and on fanout_complete and
    mediator_refresh the predicted layer dominates (writers_disjoint's
    prediction is known not to hold; see README.md);
  * fanout_complete and mediator_refresh replay exactly: the same seed
    twice gives identical deterministic counters and notification digest,
    and fanout_complete gives the same at 1 and 4 evaluation lanes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = ["--scale", "0.05"]
EXPECTED_TO_HOLD = ("fanout_complete", "mediator_refresh")


def run(workload, trace, seed=3, seconds=1, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    cmd += TINY + list(extra)
    result = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if result.returncode != 0:
        sys.exit(f"FAIL {workload} trace={trace}: exit {result.returncode}\n{result.stderr}")
    lines = [json.loads(line) for line in result.stdout.splitlines() if line.strip()]
    return lines[:-1], lines[-1]


def notes_of(notes, key):
    return [n[key] for n in notes if key in n]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []

    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            notes, result = run(workload, trace)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(n for n in got if n in expected[trace] and
                               got[n] != expected[trace][n])
                failures.append(f"{workload} trace={trace}: metrics missing {missing}, "
                                f"unexpected {extra}, wrong unit {wrong}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                failures.append(f"{workload} trace={trace}: correct={result['correct']} "
                                f"attempted={result['attempted']} failed={result['failed']}")
            oracles = notes_of(notes, "oracle")
            if not oracles or any(o["mismatches"] or o["sequence_gaps"] for o in oracles):
                failures.append(f"{workload} trace={trace}: oracle disagrees: {oracles}")
            checks = notes_of(notes, "layer_check")
            if trace == 1 and not checks:
                failures.append(f"{workload}: traced run printed no layer check")
            elif trace == 1 and workload in EXPECTED_TO_HOLD and not checks[0]["holds"]:
                failures.append(f"{workload}: predicted layer does not dominate: {checks[0]}")
            print(f"ok   {workload} trace={trace}")

    # Long enough for the first world to pass its determinism prefix.
    def determinism(workload, extra=()):
        return notes_of(run(workload, 0, seed=11, seconds=4, extra=extra)[0], "determinism")

    for workload in ("fanout_complete", "mediator_refresh"):
        first = determinism(workload)
        second = determinism(workload)
        if not first or first != second:
            failures.append(f"{workload}: same seed did not replay: {first} vs {second}")
        else:
            print(f"ok   {workload} replays (digest {first[0]['digest']})")

    one = determinism("fanout_complete", ["--lanes", "1"])
    four = determinism("fanout_complete", ["--lanes", "4"])
    if not one or one != four:
        failures.append(f"fanout_complete: 1-lane and 4-lane runs differ: {one} vs {four}")
    else:
        print("ok   fanout_complete counters and digest identical at 1 and 4 lanes")

    for failure in failures:
        print("FAIL " + failure)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
