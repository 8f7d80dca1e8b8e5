"""Command-line entry point.

Every input is a flag of its command; there is no configuration file.
Reports are TSV with a fixed header per command and are byte-identical
across runs with the same flags.  Exit codes: 0 ok, 1 check failure or
library error, 2 a flag or flag value the command cannot use.

`main` builds the parser of the one command its first argument names
(`_COMMANDS` maps each name to its help and the builder of its flags), since
building all seven cost several times a small command's own work
(`witt --enum --p 3 --n 1`).  Its usage line still names all seven, so
an error such as `witt --bogus` prints what the full parser prints.  Any
other argv (help, no argument, an unknown command) builds all seven.
No parser expands a prefix of a flag (allow_abbrev=False): `witt --e`
is an unknown flag, not `--enum`.
"""

import argparse
import sys

from . import alcove, checks, fourier, lattices, laurent, pgl2, reps, weyl, witt
from .cartan import cartan_datum
from .errors import (
    ConfigError,
    NodeSubsetError,
    PreconditionError,
    UnsupportedLabelError,
    UnsupportedRegimeError,
    WeylkitError,
)


def _emit(rows, header):
    lines = ["\t".join(header)]
    lines += ["\t".join(str(x) for x in row) for row in rows]
    sys.stdout.write("\n".join(lines) + "\n")


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


def _denominator(args):
    """The --denominator of the rational grid of `cells` and `reps`."""
    if args.denominator < 1:
        raise ConfigError(f"denominator={args.denominator} is not positive")
    return args.denominator


def _cmd_verify(args):
    rows = checks.run_checks(suites=args.suite)
    _emit(rows, ("check_id", "anchor", "status", "witness"))
    return 0 if all(r[2] == "PASS" for r in rows) else 1


def _cmd_weyl(args):
    datum = _datum(args.type)
    J = _nodes(datum, args.j)
    gens = weyl.quotient_generators(datum, J)
    matrix = weyl.quotient_coxeter_matrix(gens)
    rows = [("coxeter_row", i, " ".join(str(x) for x in row), "")
            for i, row in enumerate(matrix)]
    for k, w in gens:
        rows.append(("generator", k, weyl.word_str(w), "ok"))
    _emit(rows, ("kind", "index", "value", "note"))
    return 0


def _cmd_cells(args):
    datum = _datum(args.type)
    J = _nodes(datum, args.j)
    rows = [(" ".join(str(c) for c in d.coords),
             "{" + ",".join(str(s) for s in cell.S) + "}",
             t.order,
             " ".join(str(v) for v in t.values))
            for d, cell, t
            in alcove.grid_points(datum, J, _denominator(args))]
    _emit(rows, ("point", "cell", "torus_order", "torus_coords"))
    return 0


def _cmd_reps(args):
    datum = _datum(args.type)
    J = _nodes(datum, args.j)
    rows = [(" ".join(str(c) for c in d.coords),
             index,
             rep.dimension,
             reps.character_norm(rep, t.order).render())
            for d, _, t, index, rep
            in reps.grid_modules(datum, J, _denominator(args))]
    _emit(rows, ("point", "character", "dimension", "norm"))
    return 0


def _cmd_fourier(args):
    if args.group not in fourier.GROUPS:
        raise ConfigError(f"unknown group {args.group!r};"
                          f" choices: {sorted(fourier.GROUPS)}")
    gamma = fourier.GROUPS[args.group]()
    pairs = fourier.m_set(gamma)
    matrix = fourier.pairing_matrix(gamma, pairs)
    rows = []
    for p, row in zip(pairs, matrix):
        rows.append((f"({p.x},{p.sigma})",
                     "\t".join(c.render() for c in row)))
    _emit(rows, ("pair", "row"))
    return 0


def _cmd_pgl2(args):
    try:
        matrix = laurent.parse_matrix(args.matrix, args.q)
    except UnsupportedRegimeError:
        raise ConfigError(f"q={args.q} is not a prime")
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
    _emit(rows, ("result", "value"))
    return 0


def _cmd_witt(args):
    if args.enum and args.m is not None:
        raise ConfigError("--m sets the Witt oracle's length; --enum"
                          " does not read it")
    if not args.enum and args.n is not None:
        raise ConfigError("--n sets the lattice radius of --enum;"
                          " the Witt oracle does not read it")
    rows = []
    p = args.p
    if args.enum:
        n = 1 if args.n is None else args.n
        if p == 2:
            raise ConfigError(f"p={p} is not an odd prime")
        if n < 0:
            raise ConfigError(f"n={n} is negative")
        try:
            points, direct = lattices.enumerate_X_n(p, n)
        except UnsupportedRegimeError:
            raise ConfigError(f"p={p} is not an odd prime")
        rows.append(("count", len(points)))
        rows.append(("direct_count", direct))
        for z in points:
            rows.append(("point", ";".join(
                ",".join(str(x) for x in row) for row in z.basis)))
    else:
        m = 2 if args.m is None else args.m
        try:
            passed = witt.oracle_check(p, m)
        except UnsupportedRegimeError:
            raise ConfigError(f"p={p} is not a prime")
        except PreconditionError:
            raise ConfigError(f"m={m} is not positive")
        rows.append(("oracle", "PASS" if passed else "FAIL"))
        rows.append(("one", witt.witt_one(p, m).render()))
        rows.append(("p_image", witt.from_integer(p, p, m).render()))
    _emit(rows, ("result", "value"))
    return 0


def _add_verify(p):
    p.add_argument("--suite", action="append", choices=checks.SUITES)
    p.set_defaults(func=_cmd_verify)


def _add_weyl(p):
    p.add_argument("--type", default="C2")
    p.add_argument("--j", default="")
    p.set_defaults(func=_cmd_weyl)


def _add_cells(p):
    p.add_argument("--type", default="A1")
    p.add_argument("--j", default="")
    p.add_argument("--denominator", type=int, default=6)
    p.set_defaults(func=_cmd_cells)


def _add_reps(p):
    p.add_argument("--type", default="A1")
    p.add_argument("--j", default="")
    p.add_argument("--denominator", type=int, default=6)
    p.set_defaults(func=_cmd_reps)


def _add_fourier(p):
    p.add_argument("--group", default="z2")
    p.set_defaults(func=_cmd_fourier)


def _add_pgl2(p):
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--matrix", default="0,1;e,0")
    p.add_argument("--op", default="all",
                   choices=("class", "disc", "count", "all"))
    p.set_defaults(func=_cmd_pgl2)


def _add_witt(p):
    p.add_argument("--p", type=int, default=3)
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--enum", action="store_true",
                   help="enumerate certified lattice points")
    p.set_defaults(func=_cmd_witt)


# Each command's name, its help and the builder that adds its flags to
# its subparser, in the order the usage line and the help list them.
_COMMANDS = {
    "verify": ("run the check registry", _add_verify),
    "weyl": ("quotient Coxeter data", _add_weyl),
    "cells": ("grid points, cells, torus data", _add_cells),
    "reps": ("induced modules over the grid", _add_reps),
    "fourier": ("pairing matrices", _add_fourier),
    "pgl2": ("Iwahori class and counts", _add_pgl2),
    "witt": ("Witt arithmetic and lattices", _add_witt),
}


def build_parser(command=None):
    """The parser of every command, or, for a command name, the parser
    of that one command, whose usage line still names all seven."""
    parser = argparse.ArgumentParser(
        prog="weylkit", description="exact verification suites",
        allow_abbrev=False)
    if command in _COMMANDS:
        # unset, argparse derives the metavar from the choices, here one;
        # the full build leaves it unset, since a metavar also renames
        # the argument in "argument command: invalid choice"
        sub = parser.add_subparsers(
            dest="command", required=True,
            metavar="{" + ",".join(_COMMANDS) + "}")
        names = (command,)
    else:
        sub = parser.add_subparsers(dest="command", required=True)
        names = _COMMANDS
    for name in names:
        help_text, add = _COMMANDS[name]
        add(sub.add_parser(name, help=help_text, allow_abbrev=False))
    return parser


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, NodeSubsetError) as exc:
        # NodeSubsetError: the library cannot use the --j node subset.
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except WeylkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
