"""Benchmark of the shiftgroups library: seeded request workloads.

    python3 perfbench/run.py --workload {cocycle,chain,group} --seed N --seconds T --trace {0,1}

Workloads are closed loops of one caller in one process: each request is
what one command-line call does (load files, compute, format), and the
next starts when the previous returns.  See ``perfbench/README.md`` for
the workloads, the metrics and how they relate to the library's layers.

With ``--trace 0`` the run sets up the inputs three times in fresh
processes (``setup_s`` is the median), then makes about ``--seconds``
seconds' worth of requests at the reference speed in another fresh
process and prints the end-to-end metrics.  With ``--trace 1`` it runs the first 100
requests untraced and then traced, and prints the per-layer metrics.
The last line of output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from child import MIN_REQUESTS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench-work")
OUT = os.path.join(ROOT, ".perfbench-out")
WORKLOADS = ("cocycle", "chain", "group")

SETUP_RUNS = 3
# Requests per second at the reference speed when these rates were set.
# A run makes ``--seconds`` times this many requests, rounded up to whole
# cycles of the workload's mix, so every run of a workload makes the same
# requests; a faster library takes less time over them.
REQUEST_RATE = {"cocycle": 65, "chain": 45, "group": 125}
DEADLINE_S = 170


class BenchmarkError(Exception):
    pass


def _child(deadline: float, *args) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError("time budget used up")
    try:
        done = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), *args],
                              stdout=subprocess.PIPE, timeout=remaining, text=True)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"child {args[0]} exceeded the time budget")
    if done.returncode != 0:
        raise BenchmarkError(f"child {args[0]} exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _setup(workload: str, seed: int, requests: int, runs: int, deadline: float,
           work: str) -> tuple[str, list]:
    """Set up ``runs`` times in fresh processes; the last run also writes
    the rest of the run's inputs."""
    setups = []
    for r in range(runs):
        directory = os.path.join(work, f"inputs{r}")
        last = r == runs - 1
        setups.append(_child(deadline, "gen", "--workload", workload, "--seed", str(seed),
                             "--requests", str(requests if last else 0), "--dir", directory))
        if not last:
            shutil.rmtree(directory)
    return directory, setups


def _report(lines: list, result: dict) -> None:
    for line in lines:
        print(line)
    print(json.dumps(result))


def run(workload: str, seed: int, seconds: int, trace: bool) -> int:
    deadline = time.monotonic() + DEADLINE_S
    work = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
    try:
        if trace:
            directory, _ = _setup(workload, seed, MIN_REQUESTS, 1, deadline, work)
            os.makedirs(OUT, exist_ok=True)
            span_file = os.path.join(OUT, f"spans-{workload}-{seed}.tsv")
            m = _child(deadline, "measure", "--workload", workload, "--seed", str(seed),
                       "--dir", directory, "--trace", span_file)
            return _finish_traced(workload, seed, m, span_file)
        requests = max(MIN_REQUESTS, math.ceil(seconds * REQUEST_RATE[workload]))
        directory, setups = _setup(workload, seed, requests, SETUP_RUNS, deadline, work)
        m = _child(deadline, "measure", "--workload", workload, "--seed", str(seed),
                   "--dir", directory)
        return _finish(workload, seed, m, setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _failures(m: dict) -> list:
    return [f"  failed request {index} ({op}): {error}" for index, op, error in m["failures"]]


def _finish(workload, seed, m, setups) -> int:
    n, failed = m["attempted"], m["failed"]
    setup_s = statistics.median(s["setup_s"] for s in setups)
    setup_raw = statistics.median(s["setup_raw_s"] for s in setups)
    metrics = {
        "ops_per_s": (n / m["timed_s"], "1/s", f"raw {n / m['timed_raw_s']:.2f}"),
        "latency_p50_ms": (1000 * m["latency_p50_s"], "ms",
                           f"raw {1000 * m['latency_p50_raw_s']:.3f}"),
        "latency_p90_ms": (1000 * m["latency_p90_s"], "ms",
                           f"raw {1000 * m['latency_p90_raw_s']:.3f}; "
                           f"n={n}, {m['beyond_p90']} beyond"),
        "peak_rss_mb": (m["peak_rss_mb"], "MB", "ru_maxrss of the measuring process"),
        "setup_s": (setup_s, "s", f"raw {setup_raw:.3f}, of which import "
                    f"{statistics.median(s['import_raw_s'] for s in setups):.3f}; "
                    f"median of {len(setups)}"),
    }
    lines = [f"perfbench {workload} seed={seed}: {n} requests, "
             f"{m['timed_raw_s']:.2f} s of request time ({m['timed_s']:.2f} s at the "
             f"reference speed), wall {m['wall_s']:.1f} s"]
    for name, (value, unit, note) in metrics.items():
        lines.append(f"  {name:<15} {value:12.4f} {unit:<4} ({note})")
    lines.append(f"  {'failed_ratio':<15} {failed / n:12.4f}      ({failed}/{n} requests)")
    lines.append(f"  {'digest':<15} sha256:{m['digest']} (first 100 outputs)")
    lines.append("  times are scaled to the reference speed; see perfbench/steady.py")
    lines += _failures(m)
    result = {"correct": failed == 0, "attempted": n, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit, _) in metrics.items()}}
    _report(lines, result)
    return 0


def _finish_traced(workload, seed, m, span_file) -> int:
    n, failed = m["attempted"], m["failed"]
    metrics = m["metrics"]
    lines = [f"perfbench {workload} seed={seed} traced: {n} requests, "
             f"spans in {os.path.relpath(span_file, ROOT)}",
             f"  tracing overhead {metrics['trace.overhead_ratio'][0]:.2f}x "
             f"({metrics['trace.traced_s'][0]:.3f} s traced, "
             f"{metrics['trace.untraced_s'][0]:.3f} s untraced)",
             f"  digest sha256:{m['digest']} (first 100 outputs)"]
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:<45} {value:14.6g} {unit}")
    lines += _failures(m)
    result = {"correct": failed == 0, "attempted": n, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    _report(lines, result)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "shiftgroups", "__init__.py")):
        print("perfbench: no library sources at src/shiftgroups", file=sys.stderr)
        return 2
    # On SIGTERM, unwind: subprocess.run then kills and reaps the running
    # child, and ``run`` removes the generated inputs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
