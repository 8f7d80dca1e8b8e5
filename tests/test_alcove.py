import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from weylkit import alcove, linalg, reps, weyl
from weylkit.cartan import cartan_datum
from weylkit.errors import (
    BudgetError,
    NodeSubsetError,
    PreconditionError,
    StructuralError,
)
from reference_routes import coset_tables


A1 = cartan_datum("A1")
A2 = cartan_datum("A2")


def test_level_constraint_enforced():
    with pytest.raises(StructuralError):
        alcove.level_one_point(A1, (1, 1))
    x = alcove.level_one_point(A1, (Fraction(1, 3), Fraction(2, 3)))
    assert x.coords == (Fraction(1, 3), Fraction(2, 3))


def test_cell_labels():
    interior = alcove.level_one_point(A1, (Fraction(1, 2), Fraction(1, 2)))
    assert alcove.cell_of(interior).S == (0, 1)
    vertex = alcove.level_one_point(A1, (0, 1))
    assert alcove.cell_of(vertex).S == (1,)
    outside = alcove.level_one_point(A1, (-1, 2))
    assert alcove.cell_of(outside) is None


def test_sample_grid_count_and_disjointness():
    grid = alcove.sample_grid(A1, (), 6)
    assert len(grid) == 13
    # each grid point lies in exactly one cell: labels partition by support
    for d in grid:
        cell = alcove.cell_of(d)
        assert cell is not None
        assert set(cell.S) == {i for i, c in enumerate(d.coords) if c != 0}


def test_sample_grid_rejects_higher_rank():
    with pytest.raises(PreconditionError):
        alcove.sample_grid(A2, (), 4)


def test_sample_grid_refuses_before_building_geometry(monkeypatch):
    def no_geometry(datum, J):
        raise AssertionError("coset geometry built")

    monkeypatch.setattr(alcove, "geometry", no_geometry)
    F4 = cartan_datum("F4")
    with pytest.raises(NodeSubsetError, match="rank-1 configuration"):
        alcove.sample_grid(F4, (), 4)
    with pytest.raises(NodeSubsetError, match="proper node subset"):
        alcove.sample_grid(F4, range(5), 4)
    with pytest.raises(PreconditionError, match="out of range"):
        alcove.sample_grid(F4, (0, 1, 9), 4)
    with pytest.raises(NodeSubsetError, match="rank-1 configuration"):
        next(reps.grid_modules(F4, (), 4))
    # the node-subset refusal comes before the grid work budget
    with pytest.raises(NodeSubsetError, match="rank-1 configuration"):
        next(reps.grid_modules(F4, (), 100))


def test_the_grid_budget_counts_candidates_before_any_point(monkeypatch):
    # denominator d visits d (d + 3) / 2 candidates p/k: 230 at d = 20,
    # 252 at d = 21 and 321,200 at d = 800
    def no_point(datum, coords):
        raise AssertionError("a grid point was formed")

    with monkeypatch.context() as patch:
        patch.setattr(alcove, "level_one_point", no_point)
        with pytest.raises(BudgetError, match="321200 candidate points"):
            alcove.sample_grid(A1, (), 800)
        patch.setattr(alcove, "GRID_WORK_BUDGET", 230)
        with pytest.raises(BudgetError, match="budget of 230"):
            alcove.sample_grid(A1, (), 21)
    monkeypatch.setattr(alcove, "GRID_WORK_BUDGET", 230)
    assert len(alcove.sample_grid(A1, (), 20)) == 129


def _first_module(datum, J, denominator):
    return next(reps.grid_modules(datum, J, denominator))


@pytest.mark.parametrize("walk", [alcove.sample_grid, alcove.grid_points,
                                  _first_module])
@pytest.mark.parametrize("denominator, what", [
    (0, "0 is not positive"),
    (-2, "-2 is not positive"),
    (-3, "-3 is not positive"),
    (2.5, "2.5 is not an int"),
    (None, "None is not an int"),
])
def test_a_grid_denominator_must_be_a_positive_int(monkeypatch, walk,
                                                   denominator, what):
    # after the node-subset refusals and before the budget, which here
    # refuses any grid at all
    with pytest.raises(NodeSubsetError):
        walk(A1, (0,), denominator)
    monkeypatch.setattr(alcove, "GRID_WORK_BUDGET", -1)
    with pytest.raises(PreconditionError, match=f"^grid denominator {what}$"):
        walk(A1, (), denominator)


def test_unusable_node_subsets_raise_node_subset_error():
    with pytest.raises(NodeSubsetError, match="rank-1 configuration"):
        alcove.sample_grid(A1, (0,), 4)
    with pytest.raises(NodeSubsetError, match="proper node subset"):
        alcove.geometry(A1, (0, 1))
    with pytest.raises(NodeSubsetError, match="minimal-coset generator"):
        alcove.geometry(A2, (0,))


def test_p_j_identity_at_base_vertex():
    d = alcove.level_one_point(A1, (1, 0))
    t = alcove.p_J(A1, (), d)
    assert t.values == (0,)
    assert t.order == 1


def test_p_j_half_point_order():
    d = alcove.level_one_point(A1, (Fraction(1, 2), Fraction(1, 2)))
    t = alcove.p_J(A1, (), d)
    assert t.order == 4


def test_p_j_rejects_points_outside_cells():
    d = alcove.level_one_point(A1, (-1, 2))
    with pytest.raises(PreconditionError):
        alcove.p_J(A1, (), d)


@given(st.integers(1, 12), st.integers(0, 12))
@settings(max_examples=50, deadline=None)
def test_torus_order_divides_denominator_lcm(q, p):
    p = p % (q + 1)
    a = Fraction(p, q)
    d = alcove.level_one_point(A1, (a, 1 - a))
    if alcove.cell_of(d) is None:
        return
    t = alcove.p_J(A1, (), d)
    # the point has denominator q, and the torus point order divides 2q
    assert (2 * q) % t.order == 0


def test_stabilizer_lift_on_grid():
    for d, cell, t in alcove.grid_points(A1, (), 4):
        assert alcove.torus_stabilizer(A1, (), t, cell.S) is True


def test_stabilizer_without_lift_check():
    d = alcove.level_one_point(A1, (1, 0))
    t = alcove.p_J(A1, (), d)
    orbit = alcove.geometry(A1, ()).orbit(t)
    assert [i for i, point in enumerate(orbit) if point == t] == [0, 1]


@pytest.mark.parametrize("label,J", [("A1", ()), ("C2", (0,))])
def test_grid_points_are_the_grid_with_its_cells_and_torus_points(label, J):
    datum = cartan_datum(label)
    grid = alcove.sample_grid(datum, J, 6)
    assert alcove.grid_points(datum, J, 6) == [
        (d, alcove.cell_of(d), alcove.p_J(datum, J, d)) for d in grid]


def test_one_torus_point_per_grid_point(monkeypatch):
    # C2 and C3 each walk the grid once; no module built from the walk
    # forms its torus point again
    from weylkit import checks

    calls = []
    p_j = alcove.p_J
    monkeypatch.setattr(alcove, "p_J",
                        lambda *args: calls.append(args) or p_j(*args))
    rows = checks.run_checks(suites=("alcove", "reps"))
    assert [r[2] for r in rows] == ["PASS", "PASS"]
    assert len(calls) == 2 * len(alcove.sample_grid(A1, (), 6)) == 26


def test_one_cell_per_grid_point(monkeypatch):
    # p_J checks its precondition from d's coordinates, so the walk's
    # cell_of is the only one
    from weylkit import checks

    calls = []
    cell_of = alcove.cell_of
    monkeypatch.setattr(alcove, "cell_of",
                        lambda d: calls.append(d) or cell_of(d))
    rows = checks.run_checks(suites=("alcove", "reps"))
    assert [r[2] for r in rows] == ["PASS", "PASS"]
    assert len(calls) == 2 * len(alcove.sample_grid(A1, (), 6)) == 26


def test_p_j_precondition_is_the_cell_condition():
    # d lies in a cell C_S with S inside Jc exactly when p_J accepts it
    C2 = cartan_datum("C2")
    half, third = Fraction(1, 2), Fraction(1, 3)
    for coords in ((1, 0, 0), (0, half, 0), (0, 0, 1), (half, 0, half),
                   (third, third, 0), (2, -1, 1), (-1, 1, 0)):
        d = alcove.level_one_point(C2, coords)
        cell = alcove.cell_of(d)
        for J in ((), (0,), (1,), (2,), (0, 2)):
            ok = cell is not None and not set(cell.S) & set(J)
            if ok:
                alcove.p_J(C2, J, d)
            else:
                with pytest.raises(PreconditionError):
                    alcove.p_J(C2, J, d)


def _lift_of_word(geo, word):
    """The product of the full ss_k along a quotient word."""
    gens = dict(geo.generators)
    w = weyl.identity(geo.datum)
    for k in word:
        w = w * gens[k]
    return w


def _keys(geo):
    """Each quotient element's key, r_i v, in index order."""
    keys = {i: key for key, i in geo.quotient_index.items()}
    return [keys[i] for i in range(len(keys))]


@pytest.mark.parametrize("label", ["A1", "A2", "C2", "G2"])
def test_quotient_tables_match_the_matrices(label):
    # Products and inverses against the reference's restriction
    # matrices, each key against the block of the full lift along its
    # word, and quotient_left found again by the generators' blocks on
    # the keys.
    geo = alcove.geometry(cartan_datum(label), ())
    elements = coset_tables(geo.datum, ())["quotient"]
    index = {r: i for i, r in enumerate(elements)}
    size = len(elements)
    assert size == len(geo.quotient_words)
    keys = _keys(geo)
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            assert geo.quotient_product(i, j) == index[linalg.mat_mul(a, b)]
        assert geo.quotient_product(i, geo.quotient_inverse[i]) == 0
        assert geo.quotient_product(geo.quotient_inverse[i], i) == 0
        lift = _lift_of_word(geo, geo.quotient_words[i])
        assert keys[i] == linalg.mat_vec(geo.block(lift.mat),
                                         geo.key_vector)
    for k, g in geo.generator_blocks.items():
        assert g == geo.block(dict(geo.generators)[k].mat)
        for i, key in enumerate(keys):
            assert geo.quotient_index[linalg.mat_vec(g, key)] \
                == geo.quotient_left[k][i]


@pytest.mark.parametrize("label, size", [
    ("A1", 2), ("A2", 6), ("A3", 24), ("A4", 120), ("B3", 48), ("C2", 8),
    ("G2", 12), ("D4", 192), ("F4", 1152)])
def test_the_quotient_of_the_empty_j_is_the_finite_weyl_group(label, size):
    # For J = () the quotient is W0, so a key vector with a nontrivial
    # stabilizer would merge elements and fall short of |W0|
    geo = alcove.CosetGeometry(cartan_datum(label), ())
    assert len(geo.quotient_words) == len(geo.quotient_index) == size


@pytest.mark.parametrize("label, J", [("D4", (0, 1)), ("D5", (0, 1, 2))])
def test_the_key_separates_quotients_a_key_of_equal_digits_merges(label, J):
    # with every B^j replaced by 1 the key vector is fixed by a
    # nontrivial element of each of these quotients, which then has only
    # 4 elements; B = 2 m^2 + 1 keeps them apart, as the reference does
    datum = cartan_datum(label)
    geo = alcove.CosetGeometry(datum, J)
    assert geo.quotient_left == coset_tables(datum, J)["quotient_left"]


def test_rows_that_no_generator_action_preserves_are_refused():
    # rows spanning a full-rank sublattice of L' that some r_k moves
    geo = alcove.CosetGeometry(A2, ())
    (a, b), (c, d) = geo._hermite
    with pytest.raises(StructuralError, match="does not preserve L'"):
        geo._build_lattice({(a, b), (2 * c, 2 * d)})
    # 2L', which every r_k preserves, passes
    geo._build_lattice({(2 * a, 2 * b), (2 * c, 2 * d)})
    assert geo._hermite == ((2 * a, 2 * b), (2 * c, 2 * d))


# Every geometry that builds over these types: 26 of them, 6 with a base
# node of mark 2 (B3/{0, 1}, C2/{0} and four of C3's).
_REFERENCE_LABELS = ("A1", "A2", "A3", "B3", "C2", "C3", "G2")
# And the 23 rank-1 geometries of these types, 11 with a base node of
# mark 2 and F4/{0, 1, 2} with one of mark 4: the scale n_k0 of the keys
# and of the lattice coordinates is largest there.
_RANK_ONE_LABELS = ("B4", "C4", "F4")


def _reference_geometries():
    """(datum, J) for every geometry the reference comparison builds."""
    for label in _REFERENCE_LABELS + _RANK_ONE_LABELS:
        datum = cartan_datum(label)
        nodes = range(datum.n + 1)
        sizes = (range(datum.n) if label in _REFERENCE_LABELS
                 else (datum.n - 1,))
        for J in itertools.chain.from_iterable(
                itertools.combinations(nodes, r) for r in sizes):
            yield datum, J


def _torus_points(dim):
    """A few nonzero torus points of several orders."""
    return [alcove.TorusPoint(order, tuple((step * c + 1) % order
                                           for c in range(dim)))
            for order, step in ((2, 1), (5, 2), (12, 5))]


def test_blocks_and_the_cocycle_match_full_lifts_and_schreier_products():
    # The library's search, lattice and orbits against full Weyl lifts,
    # u-basis restrictions, Schreier elements multiplied out and the
    # rational Hermite form (reference_routes.coset_tables).  Each key
    # is the key vector under the reference's restriction, the lattice
    # coordinates of the unit vectors are the columns of the inverse of
    # the reference's L'-basis matrix, and each orbit point is the
    # reference's integer action on t, reduced modulo t's order.
    built, marks = 0, []
    for datum, J in _reference_geometries():
        try:
            geo = alcove.CosetGeometry(datum, J)
        except NodeSubsetError:
            continue
        ref = coset_tables(datum, J)
        n0 = geo.marks[0]
        v = geo.key_vector[1:]
        assert [key[1:] for key in _keys(geo)] == [
            linalg.mat_vec(r, v) for r in ref["quotient"]], (datum.label, J)
        assert geo.quotient_left == ref["quotient_left"], (datum.label, J)
        assert geo.quotient_inverse == ref["quotient_inverse"], \
            (datum.label, J)
        units = [tuple(Fraction(int(i == c)) for i in range(geo.dim))
                 for c in range(geo.dim)]
        columns = [geo.lattice_coords(u) for u in units]
        assert tuple(zip(*columns)) == (ref["binv"] or ()), (datum.label, J)
        for t in _torus_points(geo.dim):
            assert geo.orbit(t) == [
                alcove.TorusPoint(t.order, tuple(
                    x % t.order for x in linalg.mat_vec(action, t.nums)))
                for action in ref["torus_actions"]], (datum.label, J, t)
        built += 1
        marks.append(n0)
    assert (built, marks.count(2), marks.count(4)) == (49, 17, 1)
