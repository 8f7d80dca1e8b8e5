import math

import pytest
from hypothesis import given, settings, strategies as st

from weylkit import laurent
from weylkit.errors import IndeterminateError, UnsupportedRegimeError
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


def test_parse_with_finite_precision():
    x = laurent.parse_scalar("1+e", 2, prec=4)
    assert x.prec == 4
    assert not x.is_exact()


def test_valuation_of_zero_is_infinite():
    assert LaurentScalar.zero(3).valuation() is math.inf


def test_valuation_indeterminate_when_truncated_zero():
    z = LaurentScalar(3, {}, prec=5)
    with pytest.raises(IndeterminateError) as info:
        z.valuation()
    assert info.value.partial == 5


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


@given(scalars())
@settings(max_examples=50, deadline=None)
def test_inverse_round_trip(a):
    if a == LaurentScalar.zero(3):
        return
    inv = a.inverse(prec=6)
    product = a * inv
    one = LaurentScalar.one(3)
    # equal up to the guaranteed precision
    diff = product - one
    assert diff.is_zero_to_prec()


def test_inverse_precision_guard():
    a = laurent.parse_scalar("1+e", 3, prec=3)
    with pytest.raises(IndeterminateError):
        a.inverse(prec=10)


def test_exact_division_of_monomials():
    q = 5
    e2 = LaurentScalar.eps(q, 2)
    e5 = LaurentScalar.eps(q, 5)
    assert e5 / e2 == LaurentScalar.eps(q, 3)


def test_pessimistic_multiplication_precision():
    a = laurent.parse_scalar("e", 3, prec=5)    # valuation 1, precision 5
    b = laurent.parse_scalar("1+e", 3, prec=4)  # valuation 0, precision 4
    c = a * b
    assert c.prec == min(1 + 4, 0 + 5)


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


@st.composite
def _windowed(draw):
    """(q, a, b) with operands at exact or finite precision."""
    q = draw(st.sampled_from((2, 3, 5)))
    def one():
        prec = draw(st.one_of(st.just(math.inf), st.integers(-2, 6)))
        coeffs = draw(st.dictionaries(st.integers(-4, 8),
                                      st.integers(-10, 10), max_size=5))
        return LaurentScalar(q, coeffs, prec)
    return q, one(), one()


def _assert_canonical(x, q, coeffs, prec):
    """x holds exactly the reduced data of coeffs at prec, like a fresh
    LaurentScalar, with no zero or out-of-window coefficient."""
    fresh = LaurentScalar(q, coeffs, prec)
    assert x.q == q
    assert x.prec == prec
    assert x.coeffs == fresh.coeffs
    assert all(0 < c < q and e < prec for e, c in x.coeffs.items())


@given(_windowed(), st.integers(-3, 3))
@settings(max_examples=300, deadline=None)
def test_arithmetic_results_match_fresh_scalars(operands, n):
    q, a, b = operands
    total = dict(a.coeffs)
    for e, c in b.coeffs.items():
        total[e] = total.get(e, 0) + c
    _assert_canonical(a + b, q, total, min(a.prec, b.prec))
    _assert_canonical(-a, q, {e: -c for e, c in a.coeffs.items()}, a.prec)
    _assert_canonical(a.shift(n), q, {e + n: c for e, c in a.coeffs.items()},
                      a.prec if a.is_exact() else a.prec + n)
    product = {}
    for e1, c1 in a.coeffs.items():
        for e2, c2 in b.coeffs.items():
            product[e1 + e2] = product.get(e1 + e2, 0) + c1 * c2
    prec = math.inf
    if a.coeffs or not a.is_exact():
        if b.coeffs or not b.is_exact():
            if not b.is_exact():
                prec = a.val_lower_bound() + b.prec
            if not a.is_exact():
                prec = min(prec, b.val_lower_bound() + a.prec)
    _assert_canonical(a * b, q, product, prec)


def _keeps_invariant(x):
    return all(0 < c < x.q and e < x.prec for e, c in x.coeffs.items())


@given(_windowed(), st.integers(-3, 3),
       st.one_of(st.just(math.inf), st.integers(-4, 9)))
@settings(max_examples=300, deadline=None)
def test_one_pass_results_match_the_reducing_route(operands, n, k):
    # Negation, shift, truncate and subtraction build their result in one
    # pass; the route through _new (reduce mod q, drop zeros and exponents
    # at or beyond prec) gives the same coefficients and precision.
    q, a, b = operands
    def negated(x):
        return laurent._new(q, {e: -c for e, c in x.coeffs.items()}, x.prec)
    shifted_prec = a.prec if a.is_exact() else a.prec + n
    pairs = [
        (-a, negated(a)),
        (a.shift(n), laurent._new(q, {e + n: c for e, c in a.coeffs.items()},
                                  shifted_prec)),
        (a.truncate(k), laurent._new(q, a.coeffs, min(a.prec, k))),
        (a - b, a + negated(b)),
        (3 - a, negated(a) + 3),
    ]
    for got, want in pairs:
        assert _data(got) == _data(want)
        assert _keeps_invariant(got)


# -- the fused x0 + t*x1 + t^2*x2 constructor ----------------------------

@st.composite
def _windowed_triple(draw):
    """(q, x0, x1, x2), each exact or truncated, exact zeros included."""
    q = draw(st.sampled_from((2, 3, 5)))
    def one():
        prec = draw(st.one_of(st.just(math.inf), st.integers(-2, 6)))
        coeffs = draw(st.dictionaries(st.integers(-4, 8),
                                      st.integers(-10, 10), max_size=4))
        return LaurentScalar(q, coeffs, prec)
    return q, one(), one(), one()


def _data(x):
    return x.coeffs, x.prec


@given(_windowed_triple(), st.integers(-2, 6))
@settings(max_examples=400, deadline=None)
def test_quadratic_matches_step_by_step_arithmetic(operands, t):
    _, x0, x1, x2 = operands
    assert _data(laurent.quadratic(t, x0, x1, x2)) \
        == _data(x0 + x1 * t + (x2 * t) * t)
    assert _data(laurent.quadratic(t, x0, x1)) == _data(x0 + x1 * t)


def test_quadratic_at_a_zero_letter_keeps_the_precision_of_x0():
    # x * 0 is an exact zero: the lower precision of x1 and x2 is not
    # brought in, at t = 0 or at any multiple of q
    x0 = laurent.parse_scalar("1+e", 3, prec=6)
    x1 = laurent.parse_scalar("2e", 3, prec=2)
    x2 = LaurentScalar.zero(3, prec=1)
    for t in (0, 3, -3):
        assert _data(laurent.quadratic(t, x0, x1, x2)) == ({0: 1, 1: 1}, 6)
    # a nonzero t brings in the least precision, an exact zero none
    assert _data(laurent.quadratic(1, x0, x1, x2)) == ({0: 1}, 1)
    assert _data(laurent.quadratic(2, x0, x1, LaurentScalar.zero(3))) \
        == ({0: 1, 1: 2}, 2)
    assert _data(laurent.quadratic(2, x0, LaurentScalar.zero(3), x2)) \
        == ({0: 1}, 1)
