from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from weylkit import linalg, pgl2
from weylkit.errors import PreconditionError
from reference_routes import (
    EchelonBasisByClearing,
    hnf_by_euclid,
    solve_upper,
)

_ints = st.integers(-4, 4)
_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))


def _pivot_count(rows):
    return len(linalg.row_reduce(rows)[1]) if rows else 0


def _combination(coeffs, rows, ncols):
    return tuple(sum(c * row[j] for c, row in zip(coeffs, rows))
                 for j in range(ncols))


@st.composite
def _matrices(draw):
    """(ncols, rows): a few random int or Fraction rows, then zero rows
    and combinations of earlier rows, shuffled, so that rank-deficient
    matrices are common."""
    entries = draw(st.sampled_from((_ints, _fractions)))
    ncols = draw(st.integers(1, 6))
    row = st.tuples(*(entries for _ in range(ncols)))
    rows = draw(st.lists(row, max_size=4))
    for _ in range(draw(st.integers(0, 3))):
        if not rows or draw(st.booleans()):
            rows.append((0,) * ncols)
        else:
            coeffs = draw(st.lists(entries, min_size=len(rows),
                                   max_size=len(rows)))
            rows.append(_combination(coeffs, rows, ncols))
    return ncols, draw(st.permutations(rows))


@given(_matrices())
@settings(max_examples=200, deadline=None)
def test_rank_matches_row_reduce(matrix):
    _, rows = matrix
    assert linalg.rank(rows) == _pivot_count(rows)


@given(_matrices(), st.data())
@settings(max_examples=200, deadline=None)
def test_in_span_matches_row_reduce(matrix, data):
    ncols, rows = matrix
    if rows and data.draw(st.booleans()):
        coeffs = data.draw(st.lists(_fractions, min_size=len(rows),
                                    max_size=len(rows)))
        v = _combination(coeffs, rows, ncols)
        assert linalg.in_span(rows, v)
    else:
        v = data.draw(st.tuples(*(_ints for _ in range(ncols))))
    expected = _pivot_count(list(rows) + [v]) == _pivot_count(rows)
    assert linalg.in_span(rows, v) == expected


@given(_matrices())
@settings(max_examples=100, deadline=None)
def test_add_reports_exactly_the_rank_increases(matrix):
    _, rows = matrix
    basis = linalg.EchelonBasis()
    for k, row in enumerate(rows):
        grew = _pivot_count(rows[:k + 1]) > _pivot_count(rows[:k])
        assert basis.add(row) == grew
        assert basis.contains(row)
        assert len(basis) == _pivot_count(rows[:k + 1])


@given(_matrices(), st.data())
@example((2, [(2, 1), (4, 2), (0, 3)]), None)
@example((3, [(1, 2, 3), (2, 3, 4), (3, 5, 1)]), None)
@settings(max_examples=300, deadline=None)
def test_the_echelon_rows_match_the_clearing_route(matrix, data):
    # an int vector taken as it is, unit steps in place from the pivot and
    # non-unit steps kept primitive store the rows the former route
    # stores, which clears denominators and takes a gcd at every step
    ncols, rows = matrix
    got, want = linalg.EchelonBasis(), EchelonBasisByClearing()
    for row in rows:
        assert got.add(row) == want.add(row)
        assert got._rows == want._rows
        assert len(got) == len(want)
    assert all(type(x) is int for _, row in got._rows for x in row)
    vectors = list(rows)
    if data is not None:
        vectors.append(data.draw(st.tuples(*(st.one_of(_ints, _fractions)
                                             for _ in range(ncols)))))
    for v in vectors:
        assert got.contains(v) == want.contains(v)


def test_the_window_models_store_the_clearing_route_rows(monkeypatch):
    # every basis C8's window models build, at its three windows and at
    # N = 28, the largest WINDOW_WORK_BUDGET admits, replayed through the
    # former route
    bases = []

    class Recording(linalg.EchelonBasis):
        def __init__(self, rows=()):
            self.added = []
            bases.append(self)
            super().__init__(rows)

        def add(self, v):
            self.added.append(v)
            return super().add(v)

    monkeypatch.setattr(linalg, "EchelonBasis", Recording)
    for n in (4, 6, 10, 28):
        assert pgl2.module_generation_check(n) == (True, 0)
        assert pgl2.recurrence_solution_space(n)[0] == 2
    assert len(bases) == 4 * 4
    for basis in bases:
        assert EchelonBasisByClearing(basis.added)._rows == basis._rows


@pytest.mark.parametrize("call,entry", [
    (lambda: linalg.rank([(0.5, 1)]), "0.5"),
    (lambda: linalg.in_span([(1, 2)], (1.0, 2.0)), "1.0"),
    (lambda: linalg.rank([(1, "2")]), "'2'"),
    (lambda: linalg.in_span([(1, 0)], (None, 0)), "None"),
    (lambda: linalg.rank([(Fraction(1, 2), 0.25)]), "0.25"),
])
def test_an_entry_that_is_not_an_int_or_a_fraction_is_refused(call, entry):
    with pytest.raises(PreconditionError) as info:
        call()
    assert str(info.value) == \
        f"vector entry {entry} is not an int or a Fraction"


def test_a_bool_entry_counts_as_its_int():
    assert linalg.rank([(True, False), (False, True)]) == 2
    assert linalg.in_span([(True, True)], (2, 2))
    assert not linalg.in_span([(True, False)], (False, True))
    basis = linalg.EchelonBasis([(True, True, False), (0, 2, True)])
    assert basis._rows == [(0, [1, 1, 0]), (1, [0, 2, 1])]
    assert all(type(x) is int for _, row in basis._rows for x in row)


class _CountedRows(list):
    """A basis's rows that count each time a row is read."""

    reads = 0

    def __iter__(self):
        self.reads += 1
        return super().__iter__()

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


@pytest.mark.parametrize("rows", [
    [(1,)], [(3,)], [(2, 1), (0, 3)], [(1, 2, 3), (2, 3, 4), (3, 5, 1)],
    [(Fraction(1, 2), 0), (0, Fraction(2, 3))],
])
def test_a_full_rank_basis_answers_without_reading_a_row(rows):
    # a pivot row for every column spans Q^w: contains is True and add
    # stores nothing, and the entry-type refusal still comes first
    basis = linalg.EchelonBasis(rows)
    width = len(rows[0])
    assert len(basis) == width
    stored = list(basis._rows)
    basis._rows = _CountedRows(stored)
    for v in [(0,) * width, (7,) * width,
              tuple(Fraction(k + 1, 3) for k in range(width))]:
        assert basis.contains(v)
        assert basis.add(v) is False
    with pytest.raises(PreconditionError):
        basis.contains((0.5,) * width)
    with pytest.raises(PreconditionError):
        basis.add(("1",) * width)
    assert basis._rows.reads == 0
    assert basis._rows == stored


@given(_matrices(), st.data())
@settings(max_examples=200, deadline=None)
def test_a_full_rank_basis_agrees_with_the_clearing_route(matrix, data):
    # the basis completed to full rank by unit rows, then queried: ranks,
    # add and contains as the clearing route, which reduces every vector
    ncols, rows = matrix
    units = [tuple(int(i == c) for i in range(ncols)) for c in range(ncols)]
    got, want = linalg.EchelonBasis(), EchelonBasisByClearing()
    for row in list(rows) + units:
        assert got.add(row) == want.add(row)
        assert len(got) == len(want)
    assert len(got) == ncols
    entries = st.one_of(_ints, _fractions)
    for v in data.draw(st.lists(st.tuples(*(entries for _ in range(ncols))),
                                max_size=4)):
        assert got.contains(v) == want.contains(v) is True
        assert got.add(v) == want.add(v) is False
        assert got._rows == want._rows


def test_zero_vectors_and_empty_spans():
    assert linalg.rank([]) == 0
    assert linalg.rank([(0, 0), (Fraction(0), 0)]) == 0
    assert linalg.in_span([], (0, 0))
    assert not linalg.in_span([], (0, 1))
    assert not linalg.in_span([(0, 0)], (Fraction(1, 3), 0))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_hnf_is_reduced_and_spans_the_input(data):
    # echelon rows with positive pivots, each entry above a pivot in
    # [0, pivot), spanning the input lattice: hnf of its own output and
    # of the input with its rows appended agree
    ncols = data.draw(st.integers(1, 5))
    rows = data.draw(st.lists(st.tuples(*(st.integers(-30, 30)
                                          for _ in range(ncols))),
                              max_size=5))
    h = linalg.hnf(rows)
    pivots = [next(j for j, x in enumerate(row) if x) for row in h]
    assert pivots == sorted(set(pivots))
    for i, (row, c) in enumerate(zip(h, pivots)):
        assert row[c] > 0
        assert all(0 <= h[k][c] < row[c] for k in range(i))
    assert linalg.hnf(h) == h
    assert linalg.hnf(list(h) + list(rows)) == h


@st.composite
def _integer_matrices(draw):
    """Integer rows with negative entries, some columns zero throughout,
    and often a row that is an integer combination of the others."""
    ncols = draw(st.integers(1, 5))
    zero = draw(st.sets(st.integers(0, ncols - 1), max_size=ncols - 1))
    rows = draw(st.lists(st.lists(st.integers(-9, 9), min_size=ncols,
                                  max_size=ncols), max_size=5))
    rows = [[0 if j in zero else x for j, x in enumerate(row)] for row in rows]
    if rows and draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(rows),
                               max_size=len(rows)))
        rows.append(list(_combination(coeffs, rows, ncols)))
    return draw(st.permutations(rows))


@given(_integer_matrices())
@example([])
@example([[0, 0], [0, 0]])
@settings(max_examples=300, deadline=None)
def test_hnf_matches_the_euclid_route(rows):
    # the extended-gcd elimination against the Euclid minimum search: a
    # Hermite basis is unique, so the two must return the same rows
    assert linalg.hnf(rows) == hnf_by_euclid(rows)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_solve_upper_undoes_the_product(data):
    # x H = v for an upper triangular H with a nonzero diagonal
    n = data.draw(st.integers(0, 5))
    nonzero = st.integers(-6, 6).filter(bool)
    h = tuple(tuple(data.draw(nonzero) if j == i else
                    data.draw(_ints) if j > i else 0 for j in range(n))
              for i in range(n))
    x = tuple(data.draw(_fractions) for _ in range(n))
    v = tuple(sum(x[i] * h[i][j] for i in range(n)) for j in range(n))
    assert solve_upper(h, v) == x
