import math

import pytest
from hypothesis import given, settings, strategies as st

from weylkit import laurent
from weylkit.errors import PreconditionError, UnsupportedRegimeError
from weylkit.laurent import LaurentScalar


def scalars(q=3, min_exp=-3, max_exp=4):
    exponents = st.lists(st.integers(min_exp, max_exp), max_size=4)
    coeffs = st.lists(st.integers(1, q - 1), min_size=4, max_size=4)
    def build(exps, cs):
        d = {}
        for e, c in zip(exps, cs):
            d[e] = (d.get(e, 0) + c) % q
        return LaurentScalar(q, d)
    return st.builds(build, exponents, coeffs)


def test_parse_and_render_round_trip():
    x = laurent.parse_scalar("1+2e+e2", 3)
    assert x.render() == "1+2e+e2"
    y = laurent.parse_scalar(x.render(), 3)
    assert y == x


def test_parse_shift_marker():
    # "@v" multiplies the whole polynomial by e^v
    x = laurent.parse_scalar("1+e@2", 3)
    assert x == laurent.parse_scalar("e2+e3", 3)


def test_valuation_of_zero_is_infinite():
    assert LaurentScalar.zero(3).valuation() is math.inf


@given(scalars(), scalars())
@settings(max_examples=80, deadline=None)
def test_valuation_multiplicative(a, b):
    if a == LaurentScalar.zero(3) or b == LaurentScalar.zero(3):
        return
    assert (a * b).valuation() == a.valuation() + b.valuation()


@given(scalars(), scalars())
@settings(max_examples=80, deadline=None)
def test_ultrametric_inequality(a, b):
    s = a + b
    if s == LaurentScalar.zero(3):
        return
    assert s.valuation() >= min(a.valuation(), b.valuation())


@given(scalars(), scalars(), scalars())
@settings(max_examples=50, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(scalars(), scalars())
@settings(max_examples=80, deadline=None)
def test_inverse_round_trip(a, b):
    # (a b) / b = a for every nonzero b; a monomial b is a unit, and
    # dividing by it is multiplying by its inverse
    if b == LaurentScalar.zero(3):
        return
    assert (a * b) / b == a
    if len(b.coeffs) == 1:
        assert b * b.inverse() == LaurentScalar.one(3)
        assert a / b == a * b.inverse()


def test_inverse_of_a_monomial_and_a_non_unit():
    x = laurent.parse_scalar("2e^-3", 5)
    assert x.inverse().coeffs == {3: 3}
    assert x * x.inverse() == 1
    for text in ("1+e", "0"):
        with pytest.raises(PreconditionError):
            laurent.parse_scalar(text, 5).inverse()
    # 1 / (1 + e) = 1 - e + e^2 - ... is a series, not a polynomial
    one, unit = LaurentScalar.one(5), laurent.parse_scalar("1+e", 5)
    with pytest.raises(PreconditionError, match="not a Laurent polynomial"):
        one / unit
    with pytest.raises(PreconditionError, match="divide by zero"):
        one / LaurentScalar.zero(5)


def test_exact_division_of_monomials():
    q = 5
    e2 = LaurentScalar.eps(q, 2)
    e5 = LaurentScalar.eps(q, 5)
    assert e5 / e2 == LaurentScalar.eps(q, 3)


def test_is_prime_matches_a_sieve():
    limit = 500
    sieve = [False, False] + [True] * (limit - 2)
    for k in range(2, limit):
        if sieve[k]:
            for j in range(k * k, limit, k):
                sieve[j] = False
    assert [k for k in range(-3, limit) if laurent.is_prime(k)] == \
        [k for k in range(limit) if sieve[k]]


def test_non_prime_field_is_rejected():
    with pytest.raises(UnsupportedRegimeError):
        LaurentScalar(4, {0: 1})


def _operand(draw, q, max_size):
    coeffs = draw(st.dictionaries(st.integers(-4, 8),
                                  st.integers(-10, 10), max_size=max_size))
    return LaurentScalar(q, coeffs)


@st.composite
def _pairs(draw):
    """(q, a, b), exact zeros included."""
    q = draw(st.sampled_from((2, 3, 5)))
    return q, _operand(draw, q, 5), _operand(draw, q, 5)


def _assert_canonical(x, q, coeffs):
    """x holds exactly the reduced data of coeffs, like a fresh
    LaurentScalar, with no zero coefficient."""
    assert x.q == q
    assert x.coeffs == LaurentScalar(q, coeffs).coeffs
    assert _keeps_invariant(x)


@given(_pairs(), st.integers(-3, 3))
@settings(max_examples=300, deadline=None)
def test_arithmetic_results_match_fresh_scalars(operands, n):
    q, a, b = operands
    total = dict(a.coeffs)
    for e, c in b.coeffs.items():
        total[e] = total.get(e, 0) + c
    _assert_canonical(a + b, q, total)
    _assert_canonical(-a, q, {e: -c for e, c in a.coeffs.items()})
    _assert_canonical(a.shift(n), q, {e + n: c for e, c in a.coeffs.items()})
    product = {}
    for e1, c1 in a.coeffs.items():
        for e2, c2 in b.coeffs.items():
            product[e1 + e2] = product.get(e1 + e2, 0) + c1 * c2
    _assert_canonical(a * b, q, product)


def _keeps_invariant(x):
    return all(0 < c < x.q for c in x.coeffs.values())


@given(_pairs(), st.integers(-3, 3))
@settings(max_examples=300, deadline=None)
def test_one_pass_results_match_the_reducing_route(operands, n):
    # Negation, shift and subtraction build their result in one pass; the
    # route through _new (reduce mod q, drop zeros) gives the same
    # coefficients.
    q, a, b = operands
    def negated(x):
        return laurent._new(q, {e: -c for e, c in x.coeffs.items()})
    pairs = [
        (-a, negated(a)),
        (a.shift(n), laurent._new(q, {e + n: c for e, c in a.coeffs.items()})),
        (a - b, a + negated(b)),
        (3 - a, negated(a) + 3),
    ]
    for got, want in pairs:
        assert got.coeffs == want.coeffs
        assert _keeps_invariant(got)


# -- the fused x0 + t*x1 + t^2*x2 constructor ----------------------------

@st.composite
def _triples(draw):
    """(q, x0, x1, x2), exact zeros included."""
    q = draw(st.sampled_from((2, 3, 5)))
    return q, *(_operand(draw, q, 4) for _ in range(3))


@given(_triples(), st.integers(-2, 6))
@settings(max_examples=400, deadline=None)
def test_quadratic_matches_step_by_step_arithmetic(operands, t):
    _, x0, x1, x2 = operands
    assert laurent.quadratic(t, x0, x1, x2).coeffs \
        == (x0 + x1 * t + (x2 * t) * t).coeffs
    assert laurent.quadratic(t, x0, x1).coeffs == (x0 + x1 * t).coeffs

