"""The verification check registry.

Each check is a named, deterministic computation with a fixed budget
and no input: C2 and C3 walk the rational grid to the module constant
GRID_DENOMINATOR.  The same registry backs the command-line `verify`
subcommand and the acceptance test suite.  A check returns a witness
string on success and raises on failure.
"""

import math
import random
from dataclasses import dataclass

from . import (
    alcove,
    costandard,
    fourier,
    laurent,
    lattices,
    pgl2,
    reps,
    weyl,
    witt,
)
from .cartan import cartan_datum
from .cyclotomic import Cyc
from .errors import TableRejectionError, WeylkitError

GRID_DENOMINATOR = 6


@dataclass(frozen=True)
class Check:
    check_id: str
    anchor: str
    suite: str
    run: object  # () -> witness string


def _c1_quotient_coxeter():
    inf = math.inf
    target = ((1, inf), (inf, 1))
    c2, a1 = cartan_datum("C2"), cartan_datum("A1")
    got_c2 = weyl.quotient_coxeter_matrix(weyl.quotient_generators(c2, (1,)))
    got_a1 = weyl.quotient_coxeter_matrix(weyl.quotient_generators(a1, ()))
    if got_c2 != target or got_a1 != target:
        raise WeylkitError(f"quotient matrices {got_c2}, {got_a1}")
    return "C2/{1} and A1/{} both give the rank-2 infinite-bond matrix"


def _c2_stabilizer_lift():
    datum = cartan_datum("A1")
    grid = alcove.grid_points(datum, (), GRID_DENOMINATOR)
    for d, cell, t in grid:
        if not alcove.torus_stabilizer(datum, (), t, cell.S):
            raise WeylkitError(f"lift check failed at {d.coords}")
    return f"lift check passed at {len(grid)} grid points"


def _c3_mackey_norm():
    built = 0
    modules = reps.grid_modules(cartan_datum("A1"), (), GRID_DENOMINATOR)
    for d, _, t, _, rep in modules:
        norm = reps.character_norm(rep, t.order)
        if not (norm == Cyc.rational(1)):
            raise WeylkitError(
                f"norm {norm.render()} != 1 at {d.coords}")
        built += 1
    return f"{built} induced modules, all character norms exactly 1"


def _c4_costandard():
    costandard.validate_costandard(costandard.BUILTIN_A1)
    try:
        costandard.validate_costandard(costandard.SWAPPED_A1)
    except TableRejectionError as exc:
        return f"builtin accepted; swapped rejected (layer {exc.layer})"
    raise WeylkitError("swapped table was accepted")


def _c5_fourier():
    z2 = fourier.group_z2()
    pairs = fourier.m_set(z2)
    display_order = [("1", 0), ("r", 0), ("1", 1), ("r", 1)]
    perm = [display_order.index((p.x, p.sigma)) for p in pairs]
    display = fourier.b2_component_matrix()
    expected = tuple(tuple(display[perm[i]][perm[j]] for j in range(4))
                     for i in range(4))
    got = fourier.pairing_matrix(z2, pairs)
    for i in range(4):
        for j in range(4):
            if not (got[i][j] == expected[i][j]):
                raise WeylkitError(f"entry ({i},{j}) differs")
    s3 = fourier.group_s3()
    square = fourier.matrix_square(
        fourier.pairing_matrix(s3, fourier.m_set(s3)))
    for i, row in enumerate(square):
        for j, entry in enumerate(row):
            if not (entry == (1 if i == j else 0)):
                raise WeylkitError("S3 matrix does not square to identity")
    return "Z/2 matrix matches the displayed half-sums; S3 matrix squares to 1"


def _c6_discriminant():
    rng = random.Random(20260823)
    for q in (2, 3, 5):
        for _ in range(100):
            m = pgl2.random_i2(q, rng, degree=8)
            v = pgl2.discriminant_valuation(m)
            if v != 1:
                raise WeylkitError(f"valuation {v} at q={q}")
    return "300 random odd-coset matrices, all discriminant valuations 1"


def _c7_fixed_points():
    rng = random.Random(20260824)
    for q in (2, 3):
        g = laurent.parse_matrix("0,1;e,0", q)
        counts = [pgl2.fixed_point_count(g)]
        for _ in range(20):
            conjugate = pgl2.random_i1_conjugate(g, rng)
            counts.append(pgl2.fixed_point_count(conjugate))
        if any(c != 2 for c in counts):
            raise WeylkitError(f"counts {counts} at q={q}")
    return "42 elements, every fixed-point count is 2"


def _c8_recurrence():
    dim, basis = pgl2.recurrence_solution_space()
    if dim != 2:
        raise WeylkitError(f"solution dimension {dim}")
    for n in (6, 10):
        generated, coinv = pgl2.module_generation_check(n)
        if not generated or coinv != 0:
            raise WeylkitError(f"window {n}: generated={generated},"
                               f" coinvariants={coinv}")
    return "dim 2; values 4/6/10; {2: 2}; coinvariants vanish at N=6,10"


def _c9_witt_oracle():
    for p in (3, 5):
        if not witt.oracle_check(p, 2):
            raise WeylkitError(f"oracle mismatch at p={p}")
    return "W_2(F_3) and W_2(F_5) match Z/9 and Z/25 exhaustively"


def _c10_lattice_bijections():
    p, n = 3, 1
    points, direct = lattices.enumerate_X_n(p, n)
    if len(points) != direct:
        raise WeylkitError(f"{len(points)} != {direct}")
    scanned, _ = lattices.scan_points(p, n)
    if [z.basis for z in scanned] != [z.basis for z in points]:
        raise WeylkitError("the candidate scan and the tree walk disagree"
                           f" ({len(scanned)} and {len(points)} points)")
    for z in lattices.candidates(p, n):
        if (lattices.d_invariant(z)
                + lattices.d_invariant(lattices.sharp(z))) != 6 * n:
            raise WeylkitError("d-duality failed")
    return (f"|certified points| = |direct lattices| = {direct};"
            " d-duality holds")


def _c11_borel_fiber():
    for q in (3, 5):
        count = lattices.borel_fiber_count(q)
        if count != q + 1:
            raise WeylkitError(f"count {count} at q={q}")
    return "counts 4 and 6 at q=3,5"


REGISTRY = (
    Check("C1", "quotient-coxeter", "coxeter", _c1_quotient_coxeter),
    Check("C2", "stabilizer-lift", "alcove", _c2_stabilizer_lift),
    Check("C3", "mackey-norm", "reps", _c3_mackey_norm),
    Check("C4", "costandard-filtration", "springer", _c4_costandard),
    Check("C5", "fourier-matrix", "fourier", _c5_fourier),
    Check("C6", "discriminant-parity", "pgl2", _c6_discriminant),
    Check("C7", "two-fixed-points", "pgl2", _c7_fixed_points),
    Check("C8", "recurrence-values", "pgl2", _c8_recurrence),
    Check("C9", "witt-oracle", "witt", _c9_witt_oracle),
    Check("C10", "lattice-bijections", "witt", _c10_lattice_bijections),
    Check("C11", "borel-fiber", "witt", _c11_borel_fiber),
)

SUITES = tuple(sorted({c.suite for c in REGISTRY}))


def run_checks(suites=None):
    """Run the checks of the given suites (all when None); returns rows
    (check_id, anchor, status, witness) in REGISTRY order.  Any exception a check raises
    ends in a FAIL row; one that is not a WeylkitError is reported as an
    internal error naming its class."""
    rows = []
    for check in REGISTRY:
        if suites is not None and check.suite not in suites:
            continue
        try:
            witness = check.run()
            rows.append((check.check_id, check.anchor, "PASS", witness))
        except WeylkitError as exc:
            rows.append((check.check_id, check.anchor, "FAIL", str(exc)))
        except Exception as exc:
            rows.append((check.check_id, check.anchor, "FAIL",
                         f"internal error {type(exc).__name__}: {exc}"))
    return rows
