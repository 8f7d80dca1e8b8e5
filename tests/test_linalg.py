from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from weylkit import linalg
from reference_routes import hnf_by_euclid

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
    assert linalg.solve_upper(h, v) == x
