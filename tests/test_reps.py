import dataclasses
import itertools
from fractions import Fraction
from math import gcd

import pytest

from weylkit import alcove, linalg, reps
from weylkit.cartan import cartan_datum
from weylkit.cyclotomic import Cyc
from weylkit.errors import (
    BudgetError,
    InternalConsistencyError,
    PreconditionError,
)
from reference_routes import (
    character_values,
    coset_tables,
    norm_sum,
    order_by_fractions,
    p_J_by_fractions,
    torus_act_by_fractions,
)


A1 = cartan_datum("A1")


def _point(a):
    a = Fraction(a)
    return alcove.level_one_point(A1, (a, 1 - a))


def test_lift_characters_count():
    geo = alcove.geometry(A1, ())
    # interior point: no letters left, only the trivial character
    assert len(reps.lift_characters(geo, [])) == 1
    # vertex point: one letter, two sign characters
    assert len(reps.lift_characters(geo, [0])) == 2


def test_interior_point_dimension():
    d = _point(Fraction(1, 2))
    cell = alcove.cell_of(d)
    geo = alcove.geometry(A1, ())
    (rho,) = reps.lift_characters(geo, [])
    rep = reps.build_irreducible(A1, (), cell.S, d, rho)
    assert rep.dimension == 2


def test_vertex_point_dimension():
    d = _point(1)
    cell = alcove.cell_of(d)
    geo = alcove.geometry(A1, ())
    for rho in reps.lift_characters(geo, [1]):
        rep = reps.build_irreducible(A1, (), cell.S, d, rho)
        assert rep.dimension == 1


def test_character_norms_are_one():
    geo = alcove.geometry(A1, ())
    for a in (Fraction(1, 2), Fraction(1, 3), Fraction(1)):
        d = _point(a)
        cell = alcove.cell_of(d)
        letters = [k for k in geo.jcheck if k not in set(cell.S)]
        t = alcove.p_J(A1, (), d)
        for rho in reps.lift_characters(geo, letters):
            rep = reps.build_irreducible(A1, (), cell.S, d, rho)
            assert reps.character_norm(rep, t.order) == Cyc.rational(1)


def test_cell_mismatch_rejected():
    # S must be the cell label of d
    d = _point(1)  # vertex: lies in the cell {0}, not the interior
    geo = alcove.geometry(A1, ())
    (rho,) = reps.lift_characters(geo, [])
    with pytest.raises(PreconditionError):
        reps.build_irreducible(A1, (), (0, 1), d, rho)


def _dense(monomial):
    """The Cyc matrix of a monomial (perm, scalars): column c holds
    scalars[c] in row perm[c]."""
    perm, scalars = monomial
    zero = Cyc.rational(0)
    return tuple(tuple(scalars[c] if perm[c] == r else zero
                       for c in range(len(perm)))
                 for r in range(len(perm)))


def _trace(mat):
    return sum((mat[i][i] for i in range(len(mat))), Cyc.rational(0))


def test_distinct_characters_give_distinct_modules():
    d = _point(1)
    cell = alcove.cell_of(d)
    geo = alcove.geometry(A1, ())
    rhos = reps.lift_characters(geo, [1])
    built = [reps.build_irreducible(A1, (), cell.S, d, rho) for rho in rhos]
    assert len(built) == 2
    # the two sign characters give modules that differ on the finite part
    images = [_dense(rep.finite_image(i)) for rep in built for i in (0, 1)]
    traces = [_trace(m).render() for m in images]
    assert len(set(traces)) >= 2


# -- rank 2 and an independent route to the characters --------------------

A2 = cartan_datum("A2")

# Hand-built points of the A2 simplex (J empty) and the dimensions of
# their induced modules, one per lift character.
A2_POINTS = (
    ((Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)), [6]),
    ((Fraction(1, 2), Fraction(1, 2), 0), [3, 3]),
    ((1, 0, 0), [1, 1]),
    ((Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)), [6]),
)


def _a2_modules(coords):
    geo = alcove.geometry(A2, ())
    d = alcove.level_one_point(A2, coords)
    cell = alcove.cell_of(d)
    letters = [k for k in geo.jcheck if k not in set(cell.S)]
    t = alcove.p_J(A2, (), d)
    return t, [reps.build_irreducible(A2, (), cell.S, d, rho)
               for rho in reps.lift_characters(geo, letters)]


def _reference_characters(rep, t_order):
    """chi(x, w_i) in the order of `reps._trace_rows`, by the direct
    route: the finite image as a product of dense generator matrices over
    its word, the lattice image by repeated multiplication of the basis
    vectors' diagonals exp(2 pi i points[c]_j), the whole matrix
    diag(x) F_i and its trace."""
    dim = rep.dimension
    rank = rep.geometry.dim
    diagonals = [[Cyc.zeta(p.values[j].denominator, p.values[j].numerator)
                  for p in rep.points] for j in range(rank)]
    finite = []
    for word in rep.geometry.quotient_words:
        mat = _dense((tuple(range(dim)), (Cyc.rational(1),) * dim))
        for k in word:
            mat = linalg.mat_mul(mat, _dense(rep.finite_images[k]))
        finite.append(mat)
    out = []
    for x in itertools.product(range(max(1, t_order)), repeat=rank):
        diag = [Cyc.rational(1)] * dim
        for j, power in enumerate(x):
            for _ in range(power):
                diag = [z * w for z, w in zip(diag, diagonals[j])]
        for fin in finite:
            image = [[diag[r] * fin[r][c] for c in range(dim)]
                     for r in range(dim)]
            out.append(_trace(image))
    return out


def test_a2_points_give_the_expected_modules_with_norm_one():
    for coords, dims in A2_POINTS:
        t, built = _a2_modules(coords)
        assert [rep.dimension for rep in built] == dims
        for rep in built:
            assert reps.character_norm(rep, t.order) == Cyc.rational(1)


def test_character_values_match_the_direct_route():
    modules = [(rep, t.order)
               for _, _, t, _, rep in reps.grid_modules(A1, (), 10)]
    assert len(modules) == 35
    for coords, _ in A2_POINTS:
        t, built = _a2_modules(coords)
        modules += [(rep, t.order) for rep in built]
    for rep, order in modules:
        want = _reference_characters(rep, order)
        assert _trace_row_values(rep, order) == want
        assert list(character_values(rep, order)) == want


def _trace_row_values(rep, t_order):
    """Each trace row of `reps._trace_rows` as the Cyc sum of its terms
    f zeta_M^k."""
    M = max(1, t_order)
    values = []
    for terms in reps._trace_rows(rep, M):
        row = [0] * M
        for k, f in terms:
            row[k] += f
        values.append(Cyc(M, row))
    return values


C2 = cartan_datum("C2")


def test_module_points_are_the_orbit_of_t():
    # the first coset is H itself; each coset r_c H carries the point
    # r_c . t, and distinct cosets carry distinct points
    modules = [(t, rep)
               for datum, J, denominator in ((A1, (), 10), (C2, (0,), 6))
               for _, _, t, _, rep in reps.grid_modules(datum, J, denominator)]
    for coords, _ in A2_POINTS:
        t, built = _a2_modules(coords)
        modules += [(t, rep) for rep in built]
    for t, rep in modules:
        geo = rep.geometry
        assert rep.points[0] == t
        assert len(set(rep.points)) == len(rep.points) == rep.dimension
        assert set(rep.points) == set(geo.orbit(t))


def test_character_values_need_a_multiple_of_the_points_order():
    d = _point(Fraction(1, 3))
    cell = alcove.cell_of(d)
    (rho,) = reps.lift_characters(alcove.geometry(A1, ()), [])
    rep = reps.build_irreducible(A1, (), cell.S, d, rho)
    assert {p.order for p in rep.points} == {3}
    for t_order in (1, 2, 4):
        with pytest.raises(PreconditionError, match=f"divide {t_order}"):
            reps.character_norm(rep, t_order)
    # a multiple of the order reads the same module over a larger quotient
    assert reps.character_norm(rep, 6) == Cyc.rational(1)


def _norm_by_operators(rep, t_order):
    """<chi, chi> as the sum of chi * conj(chi) through the Cyc operators:
    a conjugate, a product and a reduction per character value."""
    values = list(character_values(rep, t_order))
    total = Cyc.rational(0)
    for chi in values:
        total = total + chi * chi.conjugate()
    return total / len(values)


_GRIDS = [
    (A1, (), 6), (A1, (), 10), (A1, (), 12),
    (cartan_datum("C2"), (0,), 6),
    (cartan_datum("G2"), (1,), 6),
    (cartan_datum("B3"), (0, 1), 6),
]


@pytest.mark.parametrize("datum, J, denominator", _GRIDS)
def test_character_norm_is_the_sum_of_products_with_conjugates(
        datum, J, denominator):
    for _, _, t, _, rep in reps.grid_modules(datum, J, denominator):
        got = reps.character_norm(rep, t.order)
        want = _norm_by_operators(rep, t.order)
        assert (got.m, got.nums, got.den) == (want.m, want.nums, want.den)
        assert got == 1


def _grid_and_a2_points():
    """(datum, J, d) for each point of the grids of _GRIDS and each
    point of A2_POINTS."""
    points = [(datum, J, d) for datum, J, denominator in _GRIDS
              for d in alcove.sample_grid(datum, J, denominator)]
    return points + [(A2, (), alcove.level_one_point(A2, coords))
                     for coords, _ in A2_POINTS]


def test_the_integer_torus_route_matches_the_fraction_route():
    # p_J, the order, the values and each orbit point against one
    # Fraction per coordinate taken mod 1, the order the lcm of their
    # denominators
    tables = {}
    for datum, J, d in _grid_and_a2_points():
        key = (datum.label, J)
        if key not in tables:
            tables[key] = coset_tables(datum, J)
        t = alcove.p_J(datum, J, d)
        values = p_J_by_fractions(datum, J, d)
        assert t.values == values
        assert t.order == order_by_fractions(values)
        assert all(type(n) is int and 0 <= n < t.order for n in t.nums)
        assert gcd(t.order, *t.nums) == 1
        for i, point in enumerate(alcove.geometry(datum, J).orbit(t)):
            moved = torus_act_by_fractions(tables[key], i, values)
            assert point.values == moved
            assert point.order == order_by_fractions(moved) == t.order


def test_character_norm_is_the_norm_sum_of_the_character_values():
    # one reduction per module against one reduced Cyc per value, summed
    # on their numerators and reduced once
    modules = [(t, rep) for datum, J, denominator in _GRIDS
               for _, _, t, _, rep in reps.grid_modules(datum, J,
                                                        denominator)]
    for coords, _ in A2_POINTS:
        t, built = _a2_modules(coords)
        modules += [(t, rep) for rep in built]
    for t, rep in modules:
        values = list(character_values(rep, t.order))
        want = norm_sum(values) / len(values)
        got = reps.character_norm(rep, t.order)
        assert (got.m, got.nums, got.den) == (want.m, want.nums, want.den)


def test_character_values_refuse_a_scalar_that_is_not_a_sign():
    # the vertex point's stabilizer has one letter, so rho has one value;
    # only the ints 1 and -1 pass, and a bool counts as its int
    d = _point(1)
    cell = alcove.cell_of(d)
    geo = alcove.geometry(A1, ())
    t = alcove.p_J(A1, (), d)
    (k,) = [k for k in geo.jcheck if k not in set(cell.S)]
    for bad in (Cyc.zeta(3), Cyc.rational(-1), Fraction(1), 1.0, 2, 0,
                None):
        with pytest.raises(PreconditionError, match="is not 1 or -1"):
            reps._induced(geo, cell.S, t, {k: bad})
    assert _module_data(reps._induced(geo, cell.S, t, {k: True})) \
        == _module_data(reps._induced(geo, cell.S, t, {k: 1}))


def test_grid_modules_follow_the_grid_and_the_lift_characters():
    geo = alcove.geometry(A1, ())
    want = []
    for d in alcove.sample_grid(A1, (), 6):
        cell = alcove.cell_of(d)
        letters = [k for k in geo.jcheck if k not in set(cell.S)]
        want += [(d.coords, cell.S, i)
                 for i, _ in enumerate(reps.lift_characters(geo, letters))]
    got = [(d.coords, cell.S, index)
           for d, cell, _, index, _ in reps.grid_modules(A1, (), 6)]
    assert got == want


def _module_data(rep):
    return rep.dimension, rep.points, rep.finite_images


def test_build_irreducible_and_grid_modules_share_one_core():
    # build_irreducible forms d's torus point itself; grid_modules hands
    # the walk's torus point to the same core
    geo = alcove.geometry(A1, ())
    modules = list(reps.grid_modules(A1, (), 6))
    assert len({d for d, *_ in modules}) == 13
    for d, cell, _, index, rep in modules:
        letters = [k for k in geo.jcheck if k not in set(cell.S)]
        rho = reps.lift_characters(geo, letters)[index]
        assert _module_data(reps.build_irreducible(A1, (), cell.S, d, rho)) \
            == _module_data(rep)
    geo = alcove.geometry(A2, ())
    for coords, _ in A2_POINTS:
        d = alcove.level_one_point(A2, coords)
        cell = alcove.cell_of(d)
        t = alcove.p_J(A2, (), d)
        letters = [k for k in geo.jcheck if k not in set(cell.S)]
        for rho in reps.lift_characters(geo, letters):
            assert _module_data(reps.build_irreducible(A2, (), cell.S, d,
                                                       rho)) \
                == _module_data(reps._induced(geo, cell.S, t, rho))


def test_grid_modules_weigh_their_work_before_the_grid(monkeypatch):
    # candidates p/k weighted by k: d (d + 1) (d + 2) / 3, which is 3,080
    # at d = 20, 19,760 at d = 38, 21,320 at d = 39 and 343,400 at d = 100
    def no_grid(datum, J, denominator):
        raise AssertionError("the grid was sampled")

    monkeypatch.setattr(alcove, "sample_grid", no_grid)
    for denominator, work in ((39, 21320), (100, 343400)):
        with pytest.raises(BudgetError, match=f"weigh {work} .* budget of"
                                              " 20000"):
            next(reps.grid_modules(A1, (), denominator))
    with pytest.raises(AssertionError, match="sampled"):
        next(reps.grid_modules(A1, (), 38))
    monkeypatch.setattr(alcove, "GRID_WORK_BUDGET", 3079)
    with pytest.raises(BudgetError, match="weigh 3080"):
        next(reps.grid_modules(A1, (), 20))


def test_verify_relations_rejects_corrupted_images():
    # The interior point has a trivial stabilizer: every generator moves
    # every one of the 6 cosets, so each corruption breaks a relation.
    _, (rep,) = _a2_modules((Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)))
    reps._verify_relations(rep)
    k = min(rep.finite_images)
    perm, scalars = rep.finite_images[k]
    assert all(perm[c] != c for c in range(rep.dimension))
    flipped = (-scalars[0],) + scalars[1:]
    other = next(c for c in range(rep.dimension) if c not in (0, perm[0]))
    swapped = list(perm)
    swapped[0], swapped[other] = swapped[other], swapped[0]
    for bad in ((perm, flipped), (tuple(swapped), scalars)):
        broken = dataclasses.replace(
            rep, finite_images={**rep.finite_images, k: bad})
        with pytest.raises(InternalConsistencyError):
            reps._verify_relations(broken)
    # points moved off their cosets break the relation
    shifted = dataclasses.replace(rep, points=rep.points[1:] + rep.points[:1])
    with pytest.raises(InternalConsistencyError, match="conjugation"):
        reps._verify_relations(shifted)
