"""weylkit benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the benchmark imports weylkit
from ./src).  Every pass of a workload runs in a fresh single-threaded
worker process (perfbench/worker.py), one after another, so each pass
pays the cold caches a `weylkit` command pays.

--trace 0 runs passes until --seconds have elapsed (at least one), with a
set-up-only worker after each and more at the end up to SETUP_SAMPLES,
and reports the end-to-end metrics: medians over the passes, the median
over the set-up-only workers, and latency percentiles over every answer
timed.  Times are in reference seconds, which do not follow the speed
changes of a shared machine (refclock.py, STARTUP_PROBE); the run_info
line also gives the raw wall-clock medians.  --trace 1 runs one untraced
pass and two traced passes and reports the per-layer metrics; the two
traced passes must give identical call counts.

Every answer is compared with the golden copies in perfbench/golden/.
Information about the run goes to standard output first; the last line
is the JSON result.  The exit code is 0 only if every answer matched.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layertrace import TARGETS
from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 15
# Set-up time is scaled by the start-up of an interpreter importing
# standard-library modules about as large as weylkit, timed right before
# and after each set-up sample: process start-up follows the machine's
# speed changes differently from compute (refclock.py).  The probe took
# REFERENCE_STARTUP_S on a 2-vCPU x86-64 VM, Python 3.11, in its fast
# periods; that only sets the scale.
STARTUP_PROBE = ("import argparse, dataclasses, decimal, email.parser,"
                 " fractions, json, random, statistics, unittest")
REFERENCE_STARTUP_S = 0.08
DEADLINE_S = 170
CHECK_IDS = tuple(f"C{i}" for i in range(1, 12))
ERROR_KEYS = ("lattices.sharp", "linalg.mat_inv", "pgl2.fixed_point_count")


class WorkerFailed(Exception):
    pass


def run_process(cmd, what, deadline):
    """Run cmd to completion with weylkit importable; returns its
    standard output."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{what} passed the {DEADLINE_S} s deadline")
    if proc.returncode != 0:
        raise WorkerFailed(f"{what} exited {proc.returncode}:"
                           f" {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def spawn(workload, seed, index, mode, deadline):
    """Run one worker to completion; returns its result with raw_setup_s,
    its set-up time in wall-clock seconds."""
    started = time.monotonic()
    out = run_process(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--index", str(index), "--mode", mode],
        f"{mode} worker", deadline)
    if not out.strip():
        raise WorkerFailed(f"{mode} worker printed no result")
    result = json.loads(out.splitlines()[-1])
    result["raw_setup_s"] = result["ready"] - started
    return result


def startup_probe_s(deadline):
    """Wall-clock seconds of one run of STARTUP_PROBE."""
    started = time.monotonic()
    run_process([sys.executable, "-c", STARTUP_PROBE], "start-up probe",
                deadline)
    return time.monotonic() - started


def setup_sample(workload, seed, index, deadline):
    """A set-up-only worker; returns its result with setup_s, its set-up
    time scaled by start-up probes run just before and just after it."""
    before = startup_probe_s(deadline)
    result = spawn(workload, seed, index, "setup", deadline)
    probe = (before + startup_probe_s(deadline)) / 2
    result["setup_s"] = result["raw_setup_s"] * REFERENCE_STARTUP_S / probe
    return result


def p90(values):
    """Nearest-rank 90th percentile, lowered until at least ten samples
    lie beyond it; the median when even that would fall below it."""
    ordered = sorted(values)
    rank = min(math.ceil(0.9 * len(ordered)), len(ordered) - 10)
    if rank < math.ceil(len(ordered) / 2):
        return statistics.median(ordered)
    return ordered[rank - 1]


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, seed, seconds, deadline):
    passes, setups = [], []
    start = time.monotonic()
    while not passes or time.monotonic() - start < seconds:
        passes.append(spawn(workload, seed, len(passes), "pass", deadline))
        setups.append(setup_sample(workload, seed, len(passes), deadline))
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample(workload, seed, len(passes), deadline))
    latencies = [x for r in passes for x in r["latencies_ms"]]
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    metrics = {
        "setup_s": metric(statistics.median(
            r["setup_s"] for r in setups), "s"),
        "wall_s": metric(statistics.median(r["wall_s"] for r in passes), "s"),
        "peak_rss_mb": metric(statistics.median(
            r["peak_rss_mb"] for r in passes), "MiB"),
        "ok_frac": metric((attempted - failed) / attempted, "ratio"),
        "answer_p50_ms": metric(statistics.median(latencies), "ms"),
        "answer_p90_ms": metric(p90(latencies), "ms"),
    }
    info = {"passes": len(passes), "setup_samples": len(setups),
            "answer_samples": len(latencies),
            "raw_setup_s": statistics.median(
                r["raw_setup_s"] for r in setups),
            "raw_wall_s": statistics.median(r["raw_wall_s"] for r in passes)}
    return passes, metrics, info


def per_layer(workload, seed, deadline):
    base = spawn(workload, seed, 0, "pass", deadline)
    traced = [spawn(workload, seed, 0, "traced", deadline) for _ in range(2)]
    first, second = (r["trace"] for r in traced)
    repeat = {"attempted": 1, "failed": 0, "notes": []}
    if first["calls"] != second["calls"]:
        repeat.update(failed=1, notes=["traced call counts differ"])

    def self_s(key):
        return statistics.median(t["trace"]["self_s"].get(key, 0.0)
                                 for t in traced)

    metrics = {}
    for module, paths in TARGETS.items():
        for key in (f"{module}.{path}" for path in paths):
            metrics[f"{key}.calls"] = metric(first["calls"].get(key, 0),
                                             "count")
            metrics[f"{key}.self_s"] = metric(self_s(key), "s")
    for module, paths in TARGETS.items():
        metrics[f"{module}.self_s"] = metric(
            sum(self_s(f"{module}.{path}") for path in paths), "s")
    metrics["cli.main.self_s"] = metric(self_s("cli.main"), "s")
    for check_id in CHECK_IDS:
        metrics[f"checks.{check_id}.s"] = metric(statistics.median(
            t["trace"]["total_s"].get(f"checks.{check_id}", 0.0)
            for t in traced), "s")
    for key in ERROR_KEYS:
        metrics[f"{key}.errors"] = metric(first["errors"].get(key, 0), "count")
    canonical_calls = first["calls"].get("lattices.canonical", 0)
    metrics["lattices.points_per_canonical"] = metric(
        first["points"] / canonical_calls if canonical_calls else 0.0, "ratio")
    metrics["trace_overhead_s"] = metric(
        statistics.median(t["wall_s"] for t in traced) - base["wall_s"], "s")
    info = {"traced_calls_repeat": not repeat["failed"]}
    return [base, *traced, repeat], metrics, info


def run_info(workload, seed, seconds, trace):
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "weylkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "python": sys.version.split()[0],
            "nproc": os.cpu_count(), "commit": commit,
            "src_sha256": digest.hexdigest()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "weylkit" / "__init__.py").is_file():
        print(f"error: no weylkit sources under {SRC}; run from the root of"
              " a weylkit checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    info = run_info(args.workload, args.seed, args.seconds, args.trace)
    try:
        if args.trace:
            results, metrics, extra = per_layer(
                args.workload, args.seed, deadline)
        else:
            results, metrics, extra = end_to_end(
                args.workload, args.seed, args.seconds, deadline)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for note in {n for r in results for n in r["notes"]}:
        print(f"mismatch: {note}", file=sys.stderr)
    info.update(extra)
    print(json.dumps({"run_info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
