"""Child processes of the benchmark: input generation and the measured loop.

    python3 perfbench/child.py gen --workload W --seed S --dir D [--requests N]
    python3 perfbench/child.py measure --workload W --seed S --dir D [--trace PATH]

``gen`` times one set-up: import, base matrices and the inputs of the
first ``workloads.SETUP_REQUESTS`` requests.  With ``--requests N`` it goes
on to the inputs of at least ``N`` requests, in whole cycles of the
workload's mix, writes the manifest and checks every written chain.
``measure`` runs the requests in a closed loop and checks every answer.
Generation and measurement run in separate processes, so the measured
library only ever sees the written files.  Each prints one JSON object
on stdout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import steady  # noqa: E402

# A run makes at least this many requests, so that ten lie beyond the 90th
# percentile.  The output digest and the traced run cover the first this
# many requests.
MIN_REQUESTS = 100


def _gen(args) -> dict:
    """Time one set-up; with ``--requests``, go on to write and check all
    the inputs of the run."""
    slices = [steady.time_slice()]
    start = time.perf_counter()
    import workloads  # imports the library
    os.makedirs(args.dir, exist_ok=True)
    matrix_names = workloads.write_matrices(args.dir)
    intervals = [time.perf_counter() - start]
    slices.append(steady.time_slice())
    timed = workloads.SETUP_REQUESTS[args.workload]
    cycle = workloads.CYCLES[args.workload]
    requests = -(-args.requests // cycle) * cycle
    entries, chains = [], []
    for index in range(max(timed, requests)):
        start = time.perf_counter()
        entry, generated = workloads.generate(args.workload, args.seed, index, args.dir,
                                              matrix_names)
        intervals.append(time.perf_counter() - start)
        slices.append(steady.time_slice())
        entries.append(entry)
        if generated is not None and index < requests:
            chains.append((entry, generated))
    factors = steady.scale_factors(slices[: timed + 2], timed + 1)
    if requests:
        workloads.write_manifest(args.dir, args.workload, args.seed, entries[:requests])
        for entry, generated in chains:
            workloads.verify_chain(args.dir, entry, generated)
    return {"setup_s": sum(t * f for t, f in zip(intervals, factors)),
            "setup_raw_s": sum(intervals[: timed + 1]), "import_raw_s": intervals[0]}


def _timed_pass(workload, entries, directory, run_request, check=None, expect=None):
    """Run requests in order, with a calibration slice around each.
    Returns raw latencies, slices, the first ``MIN_REQUESTS`` output texts
    and failures."""
    latencies, slices, texts, failures = [], [steady.time_slice()], [], []
    for entry in entries:
        start = time.perf_counter()
        try:
            text, state = run_request(workload, entry, directory)
            error = None
        except Exception as exc:  # a failed request is counted, not fatal
            text, state, error = None, None, f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - start)
        slices.append(steady.time_slice())
        if len(texts) < MIN_REQUESTS:  # kept for the digest only
            texts.append(text)
        if error is None and check is not None:
            try:
                if not check(workload, entry, state):
                    error = "oracle rejected the answer"
            except Exception as exc:
                error = f"oracle raised {type(exc).__name__}: {exc}"
        if error is None and expect is not None and text != expect[len(latencies) - 1]:
            error = "output differs from the traced pass"
        if error is not None:
            failures.append((entry["index"], entry["op"], error))
    return latencies, slices, texts, failures


def _digest(texts) -> str:
    sha = hashlib.sha256()
    for text in texts:
        sha.update((text if text is not None else "<failed>").encode("utf-8"))
        sha.update(b"\0")
    return sha.hexdigest()


def _measure(args) -> dict:
    import workloads
    manifest = workloads.read_manifest(args.dir)
    entries = manifest["requests"]
    for _ in range(200):  # let the clock and the interpreter settle
        steady.time_slice()
    gc.collect()
    if args.trace:
        return _measure_traced(args, workloads, entries[:MIN_REQUESTS])

    start_wall = time.perf_counter()
    latencies, slices, texts, failures = _timed_pass(
        args.workload, entries, args.dir, workloads.run_request, workloads.check)
    factors = steady.scale_factors(slices, len(latencies))
    scaled = [t * f for t, f in zip(latencies, factors)]
    deciles = statistics.quantiles(scaled, n=10, method="inclusive")
    raw_deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "attempted": len(latencies),
        "failed": len(failures),
        "failures": failures[:10],
        "timed_raw_s": sum(latencies),
        "timed_s": sum(scaled),
        "wall_s": time.perf_counter() - start_wall,
        "latency_p50_s": deciles[4],
        "latency_p90_s": deciles[8],
        "latency_p50_raw_s": raw_deciles[4],
        "latency_p90_raw_s": raw_deciles[8],
        "beyond_p90": sum(1 for t in scaled if t > deciles[8]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": _digest(texts),
    }


def _measure_traced(args, workloads, entries) -> dict:
    """Run the requests traced, then again untraced with their oracles.

    The traced pass goes first, so its counts are those of a fresh
    process; the untraced pass gives the time the tracing overhead is
    measured against.
    """
    import spans
    tracer = spans.Tracer()

    def traced_request(workload, entry, directory):
        tracer.request = entry["index"]
        return workloads.run_request(workload, entry, directory)

    patches = spans.install(tracer)
    try:
        traced, slices, texts, failures = _timed_pass(
            args.workload, entries, args.dir, traced_request)
    finally:
        spans.uninstall(patches)
    factors = steady.scale_factors(slices, len(traced))
    traced_s = sum(t * f for t, f in zip(traced, factors))
    untraced, slices, _, untraced_failures = _timed_pass(
        args.workload, entries, args.dir, workloads.run_request, workloads.check,
        expect=texts)
    untraced_s = sum(t * f for t, f in zip(untraced, steady.scale_factors(slices, len(untraced))))
    spans.write_spans(tracer, args.trace)
    metrics = {name: list(value) for name, value in
               tracer.metrics(statistics.median(factors)).items()}
    values = (len(traced), len(tracer.spans), untraced_s, traced_s, traced_s / untraced_s)
    for (name, unit), value in zip(spans.TRACE_METRICS, values):
        metrics[name] = [value, unit]
    failures += untraced_failures
    return {"attempted": len(traced), "failed": len(failures), "failures": failures[:10],
            "metrics": metrics, "digest": _digest(texts)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="role", required=True)
    for role in ("gen", "measure"):
        p = sub.add_parser(role)
        p.add_argument("--workload", required=True)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--dir", required=True)
        if role == "gen":
            p.add_argument("--requests", type=int, default=0)
        else:
            p.add_argument("--trace", default=None, help="write spans to this file")
    args = parser.parse_args(argv)
    result = _gen(args) if args.role == "gen" else _measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
