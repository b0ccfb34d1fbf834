"""Self-test of the benchmark: a tiny run of every workload, traced and not.

    python3 perfbench/selftest.py

Checks that each run prints every metric BENCHMARK.json names, with its unit,
as the last line of stdout; that wordproblem, structure and search fail no
query; that cli fails exactly its known malformed inputs; and that two traced
runs with the same seed report the same counts.  Exits non-zero on the first
problem.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
SECONDS = "1"
REPEAT_COUNTS = ("structure", "cli")


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", SECONDS, "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"FAIL {workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def check(condition: bool, message: str) -> None:
    if not condition:
        sys.exit(f"FAIL {message}")


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    for wl in (w["name"] for w in spec["workloads"]):
        known = meta[wl]["known_failures"]
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            where = f"{wl} trace {trace}"
            got = run(wl, trace)
            check(set(got) == {"correct", "attempted", "failed", "metrics"},
                  f"{where}: result keys {sorted(got)}")
            want = {m["name"]: m["unit"] for m in spec[group]}
            units = {name: m["unit"] for name, m in got["metrics"].items()}
            check(units == want, f"{where}: metrics {units} != {want}")
            check(got["correct"] is True, f"{where}: not correct")
            check(got["attempted"] >= 1, f"{where}: nothing attempted")
            # each round holds one query of every known-failing kind
            rounds = got["attempted"] // meta[wl]["queries_per_round"]
            expected_failed = rounds * len(known)
            check(got["failed"] == expected_failed,
                  f"{where}: {got['failed']} failed, expected {expected_failed}")
            if trace == 1 and wl in REPEAT_COUNTS:
                again = run(wl, trace)
                for m in spec[group]:
                    if m["unit"] == "count":
                        a = got["metrics"][m["name"]]["value"]
                        b = again["metrics"][m["name"]]["value"]
                        check(a == b, f"{where}: {m['name']} {a} then {b}")
            print(f"ok {where}: {got['attempted']} queries, {got['failed']} failed")


if __name__ == "__main__":
    main()
