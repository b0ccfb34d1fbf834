"""raagkit benchmark: one closed-loop client, one workload per run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is imported from ``src/`` of the same checkout; nothing needs
building.  The run sets up (import, fixed inputs, warm-up), then sends whole
rounds of queries, each only after the previous one returned, until at least
``--seconds`` of query time has passed.  Every result is checked after its
timed call.  The last line of stdout is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
a fixed number of rounds runs untraced and then traced (see ``tracing.py``);
the metrics are the per-layer ones, the spans go to ``perfbench/out/``.

``correct`` is false when any query fails other than the known failures that
``workloads.json`` lists for the workload; ``failed`` counts both.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5
PROBE_REPEATS = 5
TAIL_BEYOND = 10


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time as JSON and exit")
    return ap.parse_args(argv)


def load_program():
    """Import raagkit from this checkout's src/, and only from there."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import raagkit
    if os.path.dirname(os.path.abspath(raagkit.__file__)) != os.path.join(SRC, "raagkit"):
        sys.exit(f"error: raagkit imported from {raagkit.__file__}, not {SRC}")


def pin_hash_seed():
    """Re-execute under PYTHONHASHSEED=0, so iteration over sets and dicts of
    strings, and with it every count, repeats from run to run."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)


def setup(args, inprocess_cli=False):
    """Import, fixed inputs and warm-up; returns the workload object."""
    load_program()
    from workloads import WORKLOADS
    cls = WORKLOADS.get(args.workload)
    if cls is None:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    os.makedirs(OUT, exist_ok=True)
    wl = cls(args.seed, ROOT, inprocess_cli=inprocess_cli)
    run_queries(wl.warmup())
    return wl


def run_queries(queries, tracer=None, first_id=0):
    """Run queries one after another; returns latencies and failed kinds."""
    latencies, failures = [], []
    for i, q in enumerate(queries):
        if tracer is not None:
            tracer.query = first_id + i
            tracer.active = True
        t0 = time.perf_counter()
        try:
            result = q.call()
            error = None
        except Exception as exc:  # a raising query is a failed query
            result, error = None, exc
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        latencies.append(dt)
        try:
            ok = error is None and bool(q.check(result))
        except Exception:  # a result the check cannot read is wrong
            ok = False
        if not ok:
            failures.append(q.kind)
    return latencies, failures


def run_rounds(wl, rounds, tracer=None):
    latencies, failures = [], []
    for r in rounds:
        lat, fail = run_queries(wl.round(r), tracer, len(latencies))
        latencies += lat
        failures += fail
    return latencies, failures


def measure(wl, seconds):
    """Whole rounds until the query time reaches ``seconds``.  Peak RSS is
    read after the first round: every round repeats the same work on fresh
    instances, and a peak that grew with the number of rounds would grow
    whenever the program got faster."""
    latencies, failures = [], []
    r = 0
    peak_kb = None
    while sum(latencies) < seconds or not latencies:
        lat, fail = run_rounds(wl, [r])
        latencies += lat
        failures += fail
        if peak_kb is None:
            peak_kb = wl.peak_rss_kb()
        r += 1
    return latencies, failures, peak_kb


def tail(latencies):
    """The highest percentile with at least TAIL_BEYOND samples beyond it,
    with that percentile; the maximum when there are too few samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def child_setup_seconds(args):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        sys.exit(f"error: set-up run failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def process_ms(code):
    """Median wall time of ``python -c code`` in ms, over PROBE_REPEATS runs."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def known_failures(workload):
    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as fh:
        return set(json.load(fh)[workload]["known_failures"])


def report(lines, correct, attempted, failed, metrics, units):
    for line in lines:
        print(line)
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


def run_line(args):
    return (f"workload {args.workload} seed {args.seed} trace {args.trace} "
            f"python {platform.python_version()} nproc {len(os.sched_getaffinity(0))}")


def record_run(args, metrics, attempted, failed):
    """Append the run, with the Python version and CPU count, to runs.jsonl."""
    entry = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "python": platform.python_version(),
             "nproc": len(os.sched_getaffinity(0)), "attempted": attempted, "failed": failed,
             "metrics": metrics}
    with open(os.path.join(OUT, "runs.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry) + "\n")


def end_to_end(args):
    wl = setup(args)
    setup_times = [time.perf_counter() - START]
    setup_times += [child_setup_seconds(args) for _ in range(SETUP_REPEATS - 1)]
    try:
        wall0 = time.perf_counter()
        latencies, failures, peak_kb = measure(wl, args.seconds)
        wall = time.perf_counter() - wall0
    finally:
        wl.close()
    attempted, failed = len(latencies), len(failures)
    tail_s, tail_pct = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "throughput_qps": attempted / sum(latencies),
        "p50_ms": statistics.median(latencies) * 1e3,
        "tail_ms": tail_s * 1e3,
        "peak_rss_mb": peak_kb / 1024,
        "success_rate": (attempted - failed) / attempted,
    }
    unexpected = sorted(set(failures) - known_failures(args.workload))
    lines = [
        run_line(args),
        f"queries {attempted} in {sum(latencies):.3f} s of query time "
        f"({wall:.3f} s with checks)",
        f"tail_ms is p{tail_pct:.2f} of {attempted} samples",
        f"error_rate {failed / attempted:.6g} ratio ({failed} of {attempted})",
    ]
    if failures:
        lines.append("failed kinds: " + ", ".join(
            f"{k} x{failures.count(k)}" for k in sorted(set(failures))))
    record_run(args, metrics, attempted, failed)
    return lines, not unexpected, attempted, failed, metrics


def traced(args):
    wl = setup(args, inprocess_cli=args.workload == "cli")
    from tracing import Tracer
    tracer = Tracer()
    n = wl.trace_rounds
    try:
        plain, plain_fail = run_rounds(wl, range(n, 2 * n))
        tracer.install()
        try:
            lat, fail = run_rounds(wl, range(n), tracer)
        finally:
            tracer.uninstall()
    finally:
        wl.close()
    metrics = tracer.layer_metrics()
    metrics["cli.interpreter_ms"] = process_ms("pass")
    metrics["cli.import_ms"] = process_ms("import raagkit.cli") - metrics["cli.interpreter_ms"]
    metrics["tracing.overhead"] = (len(lat) / sum(lat)) / (len(plain) / sum(plain))
    spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.tsv.gz")
    spans = tracer.write_spans(spans_path)
    failures = plain_fail + fail
    attempted, failed = len(plain) + len(lat), len(failures)
    unexpected = sorted(set(failures) - known_failures(args.workload))
    lines = [
        run_line(args),
        f"rounds {n} untraced then {n} traced, {len(lat)} traced queries",
        f"spans {spans} written to {os.path.relpath(spans_path, ROOT)}",
    ]
    record_run(args, metrics, attempted, failed)
    return lines, not unexpected, attempted, failed, metrics


def units_for(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "raagkit", "__init__.py")):
        sys.exit(f"error: no raagkit sources under {SRC}")
    pin_hash_seed()
    if args.setup_only:
        wl = setup(args)
        seconds = time.perf_counter() - START
        wl.close()
        print(json.dumps({"setup_s": seconds}))
        return
    units = units_for(args.trace)
    lines, correct, attempted, failed, metrics = (traced if args.trace else end_to_end)(args)
    missing = set(units) - set(metrics)
    if missing:
        sys.exit(f"error: metrics not measured: {sorted(missing)}")
    report(lines, correct, attempted, failed,
           {name: metrics[name] for name in units}, units)


if __name__ == "__main__":
    main()
