"""Benchmark of the athermal library: one seeded workload per run.

    python3 bench/run.py --workload decide --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. Each workload is a closed loop with a
single client: one query at a time, in one process. With ``--trace 0`` the
run starts SETUPS fresh worker processes one after another; the set-up time
of each is measured from its start to its ``ready`` line, and each then runs
a fixed number of whole passes over the query list, together about
``--seconds`` long. The end-to-end metrics pool all those passes (see
``end_to_end``). With ``--trace 1`` one worker runs
untraced and traced passes in pairs and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records provenance and per-slice failure counts.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SOURCE = ROOT / "src" / "athermal"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("decide", "solve", "qubit-scan", "cli")
SETUPS = 5  # fresh processes per timed run; setup_s is their median
# Timed passes per second of --seconds, fixed per workload so that every
# query gets the same number of draws however fast the code is. At the seed
# commit, on a 2-CPU host, a run's passes take about --seconds.
PASSES_PER_SECOND = {"decide": 0.5, "solve": 0.5, "qubit-scan": 3.0, "cli": 2.0}
WORKER_TIMEOUT_S = 150
MASS_SCALE_SLICE = "mass_scale"

END_TO_END_UNITS = {
    "throughput_qps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, mode: str, *extra: str) -> tuple[float, dict]:
    """Start one worker; return its set-up seconds and its result."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker failed with exit code {proc.returncode}")
    return setup_s, json.loads(rest.splitlines()[-1])


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def end_to_end(setups: list[float], results: list[dict]) -> tuple[dict, dict]:
    """Figures pooled over every pass of every worker.

    The host's speed swings by up to a third from one second to the next
    while CPU time stays equal to wall time, so the swings come from outside
    the process. Pooled over a whole run they average out: on the same raw
    runs, pooled figures spread between seeds about half as much as each
    query's best time over the passes. Every query is drawn the same number
    of times however fast the code is (PASSES_PER_SECOND).
    """
    per_pass = results[0]["queries_per_pass"]
    walls = [w for r in results for w in r["pass_walls_s"]]
    latencies = sorted(t * 1e3 for r in results for t in r["latencies_s"])
    values = {
        "throughput_qps": per_pass * len(walls) / sum(walls),
        "latency_p50_ms": statistics.median(latencies),
        "latency_p90_ms": statistics.quantiles(latencies, n=10)[8],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }
    spread = {
        "latency_samples": len(latencies),
        "samples_beyond_p90": sum(t > values["latency_p90_ms"] for t in latencies),
        "passes": len(walls),
        "pass_qps_quartiles": quartiles([per_pass / w for w in walls]),
        "setup_s_quartiles": quartiles(setups),
    }
    return values, spread


def per_layer(result: dict) -> dict:
    """Per-pass medians of each layer metric over the traced passes; the
    derived times compare the fastest pass of each kind, whose difference
    the host's swings disturb least."""
    summaries = result["summaries"]
    values = {k: statistics.median(s[k] for s in summaries) for k in summaries[0]}
    plain = min(result["plain_walls_s"])
    spawned = result["spawned_walls_s"]
    values["cli.startup_s"] = ((min(spawned) - plain) / result["queries_per_pass"]
                               if spawned else 0.0)
    values["trace.overhead_s"] = min(result["traced_walls_s"]) - plain
    return values


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "_per_" in name or "error_rate" in name:
        return "ratio"
    return "count"


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SOURCE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SOURCE / "__init__.py").is_file():
        print(f"error: no athermal sources under {SOURCE}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    compileall.compile_dir(str(SOURCE), quiet=1)  # the "build": bytecode once

    if args.trace:
        spans = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl.gz"
        _, result = run_worker(args, "trace", "--seconds", repr(args.seconds),
                               "--spans", str(spans))
        results = [result]
        metrics = per_layer(result)
        spread = {"traced_passes": len(result["summaries"])}
    else:
        passes = max(1, round(PASSES_PER_SECOND[args.workload] * args.seconds / SETUPS))
        setups, results = [], []
        for _ in range(SETUPS):
            setup_s, result = run_worker(args, "timed", "--passes", str(passes))
            setups.append(setup_s)
            results.append(result)
        metrics, spread = end_to_end(setups, results)

    hashes = {r["input_sha256"] for r in results}
    tally: dict[str, list[int]] = {}
    for r in results:
        for name, counts in r["tally"].items():
            tally[name] = [a + b for a, b in zip(tally.get(name, [0, 0, 0]), counts)]
    attempted = sum(a for a, _, _ in tally.values())
    failed = sum(f for _, f, _ in tally.values())
    # Only failures that return a query's documented wrong verdict are
    # excused; every other failure makes the run incorrect.
    unexpected = sum(f - k for _, f, k in tally.values())
    if args.trace:
        metrics["error_rate"] = failed / attempted
        a, f, _ = tally.get(MASS_SCALE_SLICE, [0, 0, 0])
        metrics["decide.mass_scale.error_rate"] = f / a if a else 0.0
        units = {k: layer_unit(k) for k in metrics}
    else:
        units = END_TO_END_UNITS

    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "source_sha256": source_sha256(),
        "python": results[0]["python"], "numpy": results[0]["numpy"],
        "nproc": os.cpu_count(), "input_sha256": sorted(hashes),
        "classes": results[0]["classes"],
        "slices": {k: {"attempted": a, "failed": f, "failed_known_defect": kd}
                   for k, (a, f, kd) in tally.items()},
        "spread": spread,
    }, sort_keys=True))
    print(json.dumps({
        "correct": unexpected == 0 and len(hashes) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
