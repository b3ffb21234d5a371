"""One fresh benchmark process: set up a workload, then run timed or traced
passes over its query list.

Started by ``run.py`` with PYTHONPATH pointing at ``src``. Prints ``ready``
once set-up (import, input generation and validation, warm-up) is done, and
one JSON line with its measurements when it ends.

    python3 bench/worker.py --workload decide --seed 1 --mode timed --passes 2
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import platform
import resource
import sys
from time import perf_counter

import numpy as np

import athermal
import athermal.majorization
import tracer as tracing
import workloads


def run_pass(queries, run_attr="run", tracer=None):
    """Run every query once; return (value, error) pairs, latencies, wall."""
    results, latencies = [], []
    t_pass = perf_counter()
    for i, q in enumerate(queries):
        fn = getattr(q, run_attr)
        if tracer is not None:
            tracer.query_id = i
        t0 = perf_counter()
        try:
            value, error = fn(), None
        except Exception as exc:  # a failing query is counted, never fatal
            value, error = None, f"{type(exc).__name__}: {exc}"
        latencies.append(perf_counter() - t0)
        results.append((value, error))
    return results, latencies, perf_counter() - t_pass


def check_pass(queries, results, tally) -> None:
    """Judge each result outside the timed region and tally it by slice as
    [attempted, failed, failed with the query's documented defect]."""
    for q, (value, error) in zip(queries, results):
        ok = error is None
        if ok:
            try:
                ok = bool(q.check(value))
            except Exception:  # a check that cannot run counts as a failure
                ok = False
        known = False
        if not ok and error is None and q.known_defect is not None:
            try:
                known = bool(q.known_defect(value))
            except Exception:  # an unexplained failure stays unexpected
                known = False
        attempted, failed, failed_known = tally.setdefault(q.slice, [0, 0, 0])
        tally[q.slice] = [attempted + 1, failed + (not ok), failed_known + known]


def input_hash(workload) -> str:
    digest = hashlib.sha256()
    for q in workload.queries:
        digest.update(repr((q.kind, q.size, q.slice, q.raw)).encode())
    return digest.hexdigest()


def peak_rss_mb() -> float:
    """Peak resident memory of this process or of its largest child."""
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kb / 1024.0


def setup(name: str, seed: int):
    workload = workloads.build(name, seed)
    for q in workload.queries:
        q.validate()
    run_pass(workload.warmup)
    return workload


def timed(workload, passes: int) -> dict:
    latencies, walls, tally = [], [], {}
    for _ in range(passes):
        gc.collect()
        results, lat, wall = run_pass(workload.queries)
        check_pass(workload.queries, results, tally)
        latencies.extend(lat)
        walls.append(wall)
    return {"latencies_s": latencies, "pass_walls_s": walls,
            "queries_per_pass": len(workload.queries), "tally": tally}


def traced(workload, share: float, spans_path: str) -> dict:
    """Untraced and traced passes in pairs; per-layer numbers per pass."""
    tracer = tracing.Tracer()
    extra = ((workloads, "new_gibbs_context", tracing.GIBBS_CONTEXT),)
    compute_elbows = athermal.majorization.compute_elbows
    spawns = workload.queries[0].spawn is not None
    summaries, tally = [], {}
    walls = {"plain": [], "traced": [], "spawned": []}
    t_begin = perf_counter()
    while not summaries or perf_counter() - t_begin < share:
        if spawns:
            gc.collect()
            results, _, wall = run_pass(workload.queries, "spawn")
            check_pass(workload.queries, results, tally)
            walls["spawned"].append(wall)
        gc.collect()
        _, _, wall = run_pass(workload.queries)
        walls["plain"].append(wall)
        gc.collect()
        tracer.reset_counts()
        first = tracer.mark()
        tracer.install(extra)
        try:
            results, _, wall = run_pass(workload.queries, tracer=tracer)
        finally:
            tracer.uninstall()
        check_pass(workload.queries, results, tally)
        walls["traced"].append(wall)
        summaries.append(tracer.summarize(first, compute_elbows))
    tracer.write(spans_path)
    return {"summaries": summaries, "tally": tally,
            "queries_per_pass": len(workload.queries),
            **{f"{k}_walls_s": v for k, v in walls.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("timed", "trace"), required=True)
    parser.add_argument("--passes", type=int, default=1,
                        help="timed mode: passes this process runs")
    parser.add_argument("--seconds", type=float, default=1.0,
                        help="trace mode: seconds of passes this process runs")
    parser.add_argument("--spans", help="trace mode: gzip JSON-lines span file")
    args = parser.parse_args()

    workload = setup(args.workload, args.seed)
    print("ready", flush=True)
    try:
        if args.mode == "timed":
            out = timed(workload, args.passes)
        else:
            out = traced(workload, args.seconds, args.spans)
    finally:
        workload.cleanup()
    out.update({
        "peak_rss_mb": peak_rss_mb(),
        "input_sha256": input_hash(workload),
        "classes": workload.classes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    })
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
