"""Command-line entry point.

Configuration files use a plain line grammar: one "key value" pair per
line, '#' comments, blank lines ignored.  Duplicate keys follow a
last-wins rule (a warning is recorded); unknown keys are rejected with
the offending line number.  Reports are TSV with the fixed columns
check_id, anchor, status, witness and are byte-identical across runs
with the same configuration.
"""

import argparse
import sys
from dataclasses import dataclass, replace

from . import alcove, checks, fourier, lattices, laurent, pgl2, reps, weyl, witt
from .cartan import cartan_datum
from .errors import (
    ConfigError,
    NodeSubsetError,
    PreconditionError,
    UnsupportedLabelError,
    WeylkitError,
)
from .laurent import is_prime


@dataclass(frozen=True)
class SuiteConfig:
    suites: tuple = checks.SUITES
    q: int = 2
    p: int = 3
    n: int = 1
    prec: int = 8
    denominator: int = 6
    order_cap: int = 24
    out: str = ""


_INT_KEYS = {"q", "p", "n", "prec", "denominator", "order_cap"}
_STR_KEYS = {"out"}


def parse_config(text):
    """Returns (SuiteConfig, warnings)."""
    values = {}
    warnings = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if key == "suite":
            chosen = tuple(rest.split())
            unknown = [s for s in chosen if s not in checks.SUITES]
            if unknown:
                raise ConfigError(f"unknown suite {unknown[0]!r}", line=lineno)
            value = chosen
            key = "suites"
        elif key in _INT_KEYS:
            try:
                value = int(rest)
            except ValueError:
                raise ConfigError(f"{key} needs an integer", line=lineno)
        elif key in _STR_KEYS:
            value = rest
        else:
            raise ConfigError(f"unknown key {key!r}", line=lineno)
        if key in values:
            warnings.append(f"line {lineno}: duplicate key {key},"
                            " last value wins")
        values[key] = value
    config = replace(SuiteConfig(), **values)
    _validate(config)
    return config, warnings


def _validate(config):
    if not pgl2._is_prime_power(config.q):
        raise ConfigError(f"q={config.q} is not a prime power")
    for key in ("prec", "denominator", "order_cap"):
        value = getattr(config, key)
        if value < 1:
            raise ConfigError(f"{key}={value} is not positive")


def _load_config(path):
    if path is None:
        return SuiteConfig(), []
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc.strerror}")
    return parse_config(text)


def _emit(rows, header, config, out_stream):
    lines = ["\t".join(header)]
    lines += ["\t".join(str(x) for x in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if config.out:
        try:
            with open(config.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write report to {config.out!r}:"
                              f" {exc.strerror}")
    out_stream.write(text)


def _datum(label):
    try:
        return cartan_datum(label)
    except UnsupportedLabelError as exc:
        raise ConfigError(str(exc))


def _nodes(datum, text):
    """The --j node subset: integer node indices 0..n of the datum."""
    try:
        J = tuple(int(x) for x in text.split())
    except ValueError:
        raise ConfigError(f"--j needs integer node indices, got {text!r}")
    for j in J:
        if not 0 <= j <= datum.n:
            raise ConfigError(f"--j node {j} is out of range 0..{datum.n}")
    return J


def _cmd_verify(args, config, out):
    suites = tuple(args.suite) if args.suite else config.suites
    rows = checks.run_checks(config, suites=suites)
    _emit(rows, ("check_id", "anchor", "status", "witness"), config, out)
    return 0 if all(r[2] == "PASS" for r in rows) else 1


def _cmd_weyl(args, config, out):
    datum = _datum(args.type)
    J = _nodes(datum, args.j)
    gens = weyl.quotient_generators(datum, J)
    matrix = weyl.quotient_coxeter_matrix(gens, order_cap=config.order_cap)
    rows = [("coxeter_row", i,
             " ".join("inf" if str(x) == "inf" else str(x) for x in row), "")
            for i, row in enumerate(matrix)]
    for k, w in gens:
        rows.append(("generator", k, weyl.word_str(w), "ok"))
    _emit(rows, ("kind", "index", "value", "note"), config, out)
    return 0


def _cmd_cells(args, config, out):
    datum = _datum(args.type)
    J = _nodes(datum, args.j)
    grid = alcove.sample_grid(datum, J, config.denominator)
    rows = []
    for d in grid:
        cell = alcove.cell_of(d)
        t = alcove.p_J(datum, J, d)
        rows.append((
            " ".join(str(c[0]) for c in d.coords),
            "{" + ",".join(str(s) for s in cell.S) + "}",
            t.order,
            " ".join(str(v) for v in t.values),
        ))
    _emit(rows, ("point", "cell", "torus_order", "torus_coords"), config, out)
    return 0


def _cmd_reps(args, config, out):
    datum = _datum(args.type)
    J = _nodes(datum, args.j)
    rows = [(" ".join(str(c[0]) for c in d.coords),
             index,
             rep.dimension,
             reps.character_norm(rep, t.order).render())
            for d, _, t, index, rep
            in reps.grid_modules(datum, J, config.denominator)]
    _emit(rows, ("point", "character", "dimension", "norm"), config, out)
    return 0


def _cmd_fourier(args, config, out):
    if args.group not in fourier.GROUPS:
        raise ConfigError(f"unknown group {args.group!r};"
                          f" choices: {sorted(fourier.GROUPS)}")
    gamma = fourier.GROUPS[args.group]()
    pairs = fourier.m_set(gamma)
    matrix = fourier.pairing_matrix(gamma)
    rows = []
    for p, row in zip(pairs, matrix):
        rows.append((f"({p.x},{p.sigma})",
                     "\t".join(c.render() for c in row)))
    _emit(rows, ("pair", "row"), config, out)
    return 0


def _cmd_pgl2(args, config, out):
    q = config.q if args.q is None else args.q
    if not is_prime(q):
        raise ConfigError(f"q={q} is not a prime")
    try:
        matrix = laurent.parse_matrix(args.matrix, q)
    except PreconditionError as exc:
        raise ConfigError(f"bad matrix {args.matrix!r}: {exc}")
    if laurent.mat_det(matrix) == 0:
        raise ConfigError(f"matrix {args.matrix!r} is singular (det = 0),"
                          " not an element of PGL_2")
    cls = pgl2.iwahori_class(matrix)
    if args.op in ("disc", "count") and cls != "I2":
        raise ConfigError(f"op {args.op} needs an odd-coset (I2) matrix;"
                          f" {args.matrix!r} is {cls}")
    rows = []
    if args.op in ("class", "all"):
        rows.append(("class", cls))
    if args.op in ("disc", "all") and cls == "I2":
        rows.append(("discriminant_valuation",
                     pgl2.discriminant_valuation(matrix)))
    if args.op in ("count", "all") and cls == "I2":
        rows.append(("fixed_point_count", pgl2.fixed_point_count(matrix)))
    _emit(rows, ("result", "value"), config, out)
    return 0


def _cmd_witt(args, config, out):
    if args.enum and args.m is not None:
        raise ConfigError("--m sets the Witt oracle's length; --enum"
                          " does not read it")
    if not args.enum and args.n is not None:
        raise ConfigError("--n sets the lattice radius of --enum;"
                          " the Witt oracle does not read it")
    rows = []
    p = config.p if args.p is None else args.p
    if args.enum:
        n = config.n if args.n is None else args.n
        if p == 2 or not is_prime(p):
            raise ConfigError(f"p={p} is not an odd prime")
        if n < 0:
            raise ConfigError(f"n={n} is negative")
        points, direct = lattices.enumerate_X_n(p, n)
        rows.append(("count", len(points)))
        rows.append(("direct_count", direct))
        for z in points:
            rows.append(("point", ";".join(
                ",".join(str(x) for x in row) for row in z.basis)))
    else:
        m = 2 if args.m is None else args.m
        if not is_prime(p):
            raise ConfigError(f"p={p} is not a prime")
        if m < 1:
            raise ConfigError(f"m={m} is not positive")
        rows.append(("oracle", "PASS" if witt.oracle_check(p, m) else "FAIL"))
        rows.append(("one", witt.witt_one(p, m).render()))
        rows.append(("p_image", witt.from_integer(p, p, m).render()))
    _emit(rows, ("result", "value"), config, out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="weylkit", description="exact verification suites")
    parser.add_argument("--config", help="configuration file")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the check registry")
    p_verify.add_argument("--suite", action="append",
                          choices=checks.SUITES)
    p_verify.set_defaults(func=_cmd_verify)

    p_weyl = sub.add_parser("weyl", help="quotient Coxeter data")
    p_weyl.add_argument("--type", default="C2")
    p_weyl.add_argument("--j", default="")
    p_weyl.set_defaults(func=_cmd_weyl)

    p_cells = sub.add_parser("cells", help="grid points, cells, torus data")
    p_cells.add_argument("--type", default="A1")
    p_cells.add_argument("--j", default="")
    p_cells.set_defaults(func=_cmd_cells)

    p_reps = sub.add_parser("reps", help="induced modules over the grid")
    p_reps.add_argument("--type", default="A1")
    p_reps.add_argument("--j", default="")
    p_reps.set_defaults(func=_cmd_reps)

    p_fourier = sub.add_parser("fourier", help="pairing matrices")
    p_fourier.add_argument("--group", default="z2")
    p_fourier.set_defaults(func=_cmd_fourier)

    p_pgl2 = sub.add_parser("pgl2", help="Iwahori class and counts")
    p_pgl2.add_argument("--q", type=int)
    p_pgl2.add_argument("--matrix", default="0,1;e,0")
    p_pgl2.add_argument("--op", default="all",
                        choices=("class", "disc", "count", "all"))
    p_pgl2.set_defaults(func=_cmd_pgl2)

    p_witt = sub.add_parser("witt", help="Witt arithmetic and lattices")
    p_witt.add_argument("--p", type=int)
    p_witt.add_argument("--m", type=int)
    p_witt.add_argument("--n", type=int)
    p_witt.add_argument("--enum", action="store_true",
                        help="enumerate certified lattice points")
    p_witt.set_defaults(func=_cmd_witt)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config, warnings = _load_config(args.config)
        for warning in warnings:
            print(f"warning: {warning}", file=sys.stderr)
        return args.func(args, config, sys.stdout)
    except (ConfigError, NodeSubsetError) as exc:
        # NodeSubsetError: the library cannot use the --j node subset.
        line = getattr(exc, "line", None)
        location = f" (line {line})" if line else ""
        print(f"usage error: {exc}{location}", file=sys.stderr)
        return 2
    except WeylkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
