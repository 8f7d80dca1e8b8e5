"""One pass of a benchmark workload, run by perfbench/run.py in a fresh
single-threaded process.

Set-up (interpreter start, `import weylkit`, input generation) ends just
before the first timed call; the worker reports that instant on the
monotonic clock so the parent can time set-up from the moment it started
the process.  Everything after set-up is timed in reference seconds by a
RefClock (refclock.py).  The pass itself is a closed loop with one caller:
each request starts when the previous answer has returned, and every
answer is compared with the golden copy in perfbench/golden/.

Modes:
  setup   set up, report, exit (extra set-up samples)
  pass    set up and run one untraced pass
  traced  as pass, with the per-function wrappers of layertrace installed

The last line of standard output is one JSON object.
"""

import argparse
import contextlib
import io
import json
import random
import resource
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path
from time import perf_counter

from refclock import RefClock

GOLDEN = Path(__file__).resolve().parent / "golden"
WORKLOADS = ("verify", "lattice_enum", "scalar_rings")
LATTICE_PRIME = 3
PGL2_FIELDS = (2, 3, 5)
PGL2_PER_FIELD = 60
GRID_DENOMINATOR = 10
WITT_ORACLES = ((11, 2), (3, 3))


class Answers:
    """Counts answers compared with their golden value."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, what, got, want):
        self.attempted += 1
        if got != want:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(f"{what}: got {got!r}, want {want!r}")

    def check_text(self, what, got, want):
        """Line-by-line comparison that also catches a changed final
        newline; each differing, missing or extra line is one failure."""
        got_lines = got.splitlines(keepends=True)
        want_lines = want.splitlines(keepends=True)
        for i in range(max(len(got_lines), len(want_lines))):
            self.check(f"{what} line {i + 1}",
                       got_lines[i] if i < len(got_lines) else None,
                       want_lines[i] if i < len(want_lines) else None)


def cli_command(workload):
    """(argv, golden report) of a CLI workload."""
    if workload == "verify":
        return ["verify"], (GOLDEN / "verify.tsv").read_text()
    return (["witt", "--enum", "--p", str(LATTICE_PRIME), "--n", "1"],
            (GOLDEN / f"witt_enum_p{LATTICE_PRIME}_n1.tsv").read_text())


def pgl2_elements(seed, index):
    """Odd-coset elements for pass `index` of a run with this seed:
    PGL2_PER_FIELD for each field size, in shuffled order.  Each pass
    draws new elements, so a run's latency percentiles do not hang on 180
    draws, and the shuffle spreads each field size over the whole pass, so
    they do not hang on the machine's speed during a fraction of a second."""
    from weylkit import pgl2

    rng = random.Random(f"{seed}/{index}")
    elements = [(q, pgl2.random_i2(q, rng, degree=8))
                for q in PGL2_FIELDS for _ in range(PGL2_PER_FIELD)]
    rng.shuffle(elements)
    return elements


def run_cli(command, answers, latencies, clock):
    from weylkit import cli

    argv, golden = command
    out = io.StringIO()
    start = clock.now()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    latencies.append(clock.now() - start)
    what = " ".join(argv)
    answers.check(f"{what} exit code", code, 0)
    answers.check_text(what, out.getvalue(), golden)


def run_scalar_rings(elements, expected, answers, latencies, clock):
    from weylkit import alcove, pgl2, reps, witt
    from weylkit.cartan import cartan_datum

    for q, m in elements:
        answers.check(f"discriminant_valuation q={q}",
                      pgl2.discriminant_valuation(m),
                      expected["discriminant_valuation"])
        start = clock.now()
        count = pgl2.fixed_point_count(m, prec=8)
        latencies.append(clock.now() - start)
        answers.check(f"fixed_point_count q={q}", count,
                      expected["fixed_point_count"])

    datum = cartan_datum("A1")
    geo = alcove.geometry(datum, ())
    built = 0
    for d in alcove.sample_grid(datum, (), GRID_DENOMINATOR):
        cell = alcove.cell_of(d)
        letters = [k for k in geo.jcheck if k not in set(cell.S)]
        t = alcove.p_J(datum, (), d)
        for rho in reps.lift_characters(geo, letters):
            rep = reps.build_irreducible(datum, (), cell.S, d, rho)
            answers.check(f"character_norm at {d.coords}",
                          reps.character_norm(rep, t.order).render(),
                          expected["character_norm"])
            built += 1
    answers.check("induced modules", built, expected["induced_modules"])

    for p, m in WITT_ORACLES:
        answers.check(f"oracle_check({p},{m})", witt.oracle_check(p, m),
                      expected["oracle_check"])


def install_trace(clock):
    """Wrap the traced layers, the CLI entry point and each registry
    check; count certified lattice points per enumeration."""
    from weylkit import checks, cli, lattices
    from layertrace import LayerTrace

    trace = LayerTrace(clock.now)
    trace.install()
    cli.main = trace.wrap("cli.main", cli.main)
    checks.REGISTRY = tuple(
        replace(c, run=trace.wrap(f"checks.{c.check_id}", c.run))
        for c in checks.REGISTRY)
    traced_enumerate = lattices.enumerate_X_n
    trace.points = 0

    def enumerate_X_n(*args, **kwargs):
        points, direct = traced_enumerate(*args, **kwargs)
        trace.points += len(points)
        return points, direct

    lattices.enumerate_X_n = enumerate_X_n
    return trace


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, required=True,
                        help="number of the pass within the run")
    parser.add_argument("--mode", choices=("setup", "pass", "traced"),
                        required=True)
    args = parser.parse_args(argv)

    import weylkit.cli  # noqa: F401  (set-up includes the full import)

    if args.workload == "scalar_rings":
        inputs = pgl2_elements(args.seed, args.index)
        expected = json.loads((GOLDEN / "scalar_rings.json").read_text())
    else:
        inputs = cli_command(args.workload)
    ready = time.monotonic()
    clock = RefClock()
    trace = install_trace(clock) if args.mode == "traced" else None

    answers = Answers()
    latencies = []
    clock.start()
    start, raw_start = clock.now(), perf_counter()
    if args.mode != "setup":
        try:
            if args.workload == "scalar_rings":
                run_scalar_rings(inputs, expected, answers, latencies, clock)
            else:
                run_cli(inputs, answers, latencies, clock)
        except Exception:
            answers.check("pass", traceback.format_exc(limit=3), "no exception")
    wall, raw_wall = clock.now() - start, perf_counter() - raw_start
    clock.stop()

    result = {
        "ready": ready,
        "wall_s": wall,
        "raw_wall_s": raw_wall,
        "ticks": clock.ticks,
        "latencies_ms": [1000 * x for x in latencies],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": answers.attempted,
        "failed": answers.failed,
        "notes": answers.notes,
    }
    if trace is not None:
        result["trace"] = {
            "calls": trace.calls, "self_s": trace.self_s,
            "total_s": trace.total_s, "errors": trace.errors,
            "points": trace.points,
        }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
