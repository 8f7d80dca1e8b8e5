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
    assert alcove.geometry(A1, ()).stabilizer(t) == (0, 1)


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


def _elements(geo):
    """Each quotient element's key, n_k0 r_i, in index order."""
    keys = {i: key for key, i in geo.quotient_index.items()}
    return [keys[i] for i in range(len(keys))]


@pytest.mark.parametrize("label", ["A1", "A2", "C2", "G2"])
def test_quotient_tables_match_the_matrices(label):
    # Products and inverses against the quotient's own integer matrices,
    # and the integer lattice actions multiply as the elements do.  With
    # J = () the base node is the affine one, of mark 1, so each key is
    # its element r_i and the key of a product is the product of keys.
    geo = alcove.geometry(cartan_datum(label), ())
    assert geo.marks[0] == 1
    elements = _elements(geo)
    size = len(elements)
    assert size == len(geo.quotient_words)
    assert size == {"A1": 2, "A2": 6, "C2": 8, "G2": 12}[label]
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            assert geo.quotient_product(i, j) \
                == geo.quotient_index[linalg.mat_mul(a, b)]
            assert geo.torus_actions[geo.quotient_product(i, j)] \
                == linalg.mat_mul(geo.torus_actions[i], geo.torus_actions[j])
        assert geo.quotient_product(i, geo.quotient_inverse[i]) == 0
        assert geo.quotient_product(geo.quotient_inverse[i], i) == 0
        # the block the search carried restricts to its element, and is
        # the Jc-block of the product of the ss_k along its word
        assert weyl.level_restriction(geo.quotient_blocks[i],
                                      geo.marks) == a
        lift = _lift_of_word(geo, geo.quotient_words[i])
        assert geo.block(lift.mat) == geo.quotient_blocks[i]
    # quotient_left[k][i] is the coset of ss_k lift_i, found again by
    # restricting the product of the blocks and looking it up
    for k, g in geo.generator_blocks.items():
        assert g == geo.block(dict(geo.generators)[k].mat)
        for i, block in enumerate(geo.quotient_blocks):
            assert geo.quotient_index[weyl.level_restriction(
                linalg.mat_mul(g, block), geo.marks)] \
                == geo.quotient_left[k][i]


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


def test_blocks_and_the_cocycle_match_full_lifts_and_schreier_products():
    # The library's integer blocks and Schreier cocycle against full
    # Weyl lifts, u-basis restrictions, Schreier elements multiplied out
    # and the rational Hermite form (reference_routes.coset_tables).
    # The keys are n_k0 times the reference's restrictions, and the
    # lattice coordinates of the unit vectors are the columns of the
    # inverse of the reference's L'-basis matrix.
    # The cocycle's rows are compared too, not only the lattice they
    # span: a cocycle that reads B_t for B_inv(t) spans the same lattice
    # on every geometry here.
    built, marks = 0, []
    for datum, J in _reference_geometries():
        try:
            geo = alcove.CosetGeometry(datum, J)
        except NodeSubsetError:
            continue
        ref = coset_tables(datum, J)
        n0 = geo.marks[0]
        assert _elements(geo) == [
            tuple(tuple(n0 * x for x in row) for row in r)
            for r in ref["quotient"]], (datum.label, J)
        assert geo.quotient_left == ref["quotient_left"], (datum.label, J)
        assert geo.quotient_inverse == ref["quotient_inverse"], \
            (datum.label, J)
        assert geo.torus_actions == ref["torus_actions"], (datum.label, J)
        units = [tuple(Fraction(int(i == c)) for i in range(geo.dim))
                 for c in range(geo.dim)]
        columns = [geo.lattice_coords(u) for u in units]
        assert tuple(zip(*columns)) == (ref["binv"] or ()), (datum.label, J)
        assert geo._schreier_translations() == ref["translations"], \
            (datum.label, J)
        built += 1
        marks.append(n0)
    assert (built, marks.count(2), marks.count(4)) == (49, 17, 1)
