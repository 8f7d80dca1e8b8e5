"""Shows that the benchmark's answer gate can fail.

    python3 perfbench/check_gate.py

Copies the benchmark and the weylkit sources into a temporary directory,
corrupts one golden value there, and runs the benchmark on that copy:
the run must report failed > 0 and ok_frac < 1 and exit nonzero.  It also
runs the benchmark in a directory without the weylkit sources, where it
must exit nonzero without printing a result.  Exits 0 when every case
behaves so.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IGNORE = shutil.ignore_patterns("__pycache__")

# (workload, golden file, text to replace, replacement)
CORRUPTIONS = (
    ("scalar_rings", "scalar_rings.json",
     '"fixed_point_count": 2', '"fixed_point_count": 3'),
    ("verify", "verify.tsv",
     "15 induced modules", "16 induced modules"),
)


def copy_checkout(dest, with_sources):
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(ROOT / "perfbench", dest / "perfbench", ignore=IGNORE)
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src", ignore=IGNORE)


def run_benchmark(checkout, workload):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=180)


def corrupted_golden_fails(workload, golden, old, new):
    with tempfile.TemporaryDirectory() as tmp:
        checkout = Path(tmp)
        copy_checkout(checkout, with_sources=True)
        path = checkout / "perfbench" / "golden" / golden
        text = path.read_text()
        if old not in text:
            return f"{golden} does not contain {old!r}"
        path.write_text(text.replace(old, new, 1))
        proc = run_benchmark(checkout, workload)
    if not proc.stdout.strip():
        return f"{workload}: no result, exit {proc.returncode}: {proc.stderr}"
    result = json.loads(proc.stdout.splitlines()[-1])
    ok_frac = result["metrics"]["ok_frac"]["value"]
    if proc.returncode == 0 or result["failed"] == 0 or result["correct"] \
            or ok_frac >= 1:
        return (f"{workload}: exit {proc.returncode}, failed"
                f" {result['failed']}, ok_frac {ok_frac}")
    return None


def bare_directory_fails():
    with tempfile.TemporaryDirectory() as tmp:
        copy_checkout(Path(tmp), with_sources=False)
        proc = run_benchmark(Path(tmp), "verify")
    if proc.returncode == 0 or proc.stdout.strip():
        return f"bare directory: exit {proc.returncode}, output {proc.stdout!r}"
    return None


def main():
    problems = [corrupted_golden_fails(*case) for case in CORRUPTIONS]
    problems.append(bare_directory_fails())
    problems = [p for p in problems if p]
    for problem in problems:
        print(f"gate did not fail: {problem}", file=sys.stderr)
    if not problems:
        print(f"gate fails as expected on {len(CORRUPTIONS)} corrupted"
              " golden copies and a directory without sources")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
