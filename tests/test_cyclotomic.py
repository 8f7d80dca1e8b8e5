import operator
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from weylkit import cyclotomic
from weylkit.cyclotomic import Cyc, _cyclotomic_polynomial, _reduce, _table
from weylkit.errors import BudgetError, PreconditionError, WeylkitError
from reference_routes import (
    FractionCyc,
    cyclotomic_by_division,
    norm_sum,
    poly_divmod,
)


def test_cyclotomic_polynomials():
    assert list(_cyclotomic_polynomial(1)) == [-1, 1]
    assert list(_cyclotomic_polynomial(2)) == [1, 1]
    assert list(_cyclotomic_polynomial(4)) == [1, 0, 1]
    assert list(_cyclotomic_polynomial(6)) == [1, -1, 1]
    assert list(_cyclotomic_polynomial(12)) == [1, 0, -1, 0, 1]


def test_phi_matches_long_division_in_ints():
    # Phi_105 is the first with a coefficient outside {-1, 0, 1}: a -2.
    for m in range(1, 111):
        phi = _cyclotomic_polynomial(m)
        assert phi == cyclotomic_by_division(m), m
        assert all(type(c) is int for c in phi), m
    assert -2 in _cyclotomic_polynomial(105)
    assert all(abs(c) <= 1 for m in range(1, 105)
               for c in _cyclotomic_polynomial(m))


def test_root_of_unity_relations():
    i = Cyc.zeta(4)
    assert i * i == Cyc.rational(-1)
    w = Cyc.zeta(3)
    assert w * w * w == Cyc.rational(1)
    assert w * w + w + 1 == Cyc.rational(0)


def test_mixed_conductors():
    # zeta_4 * zeta_3 is a primitive 12th root of unity
    z = Cyc.zeta(4) * Cyc.zeta(3)
    acc = Cyc.rational(1)
    for _ in range(12):
        acc = acc * z
    assert acc == Cyc.rational(1)
    acc6 = Cyc.rational(1)
    for _ in range(6):
        acc6 = acc6 * z
    assert acc6 == Cyc.rational(-1)


def test_conjugation_and_norm():
    z = Cyc.zeta(5) + Cyc.rational(2)
    nz = z * z.conjugate()
    assert nz == nz.conjugate()
    assert (Cyc.zeta(8) * Cyc.zeta(8).conjugate()) == Cyc.rational(1)


def test_division_by_rationals():
    z = Cyc.zeta(3)
    half = z / 2
    assert half + half == z


def test_render_stability():
    assert Cyc.rational(Fraction(3, 2)).render() == "3/2"
    text = (Cyc.zeta(3) + 1).render()
    assert "z3" in text


_elements = st.builds(
    lambda k, r: Cyc.zeta(12, k) * Cyc.rational(Fraction(r[0], r[1])),
    st.integers(0, 11),
    st.tuples(st.integers(-5, 5), st.integers(1, 5)),
)


@given(_elements, _elements, _elements)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + Cyc.rational(0) == a
    assert a * Cyc.rational(1) == a
    assert a - a == Cyc.rational(0)


@given(_elements, _elements)
@settings(max_examples=40, deadline=None)
def test_conjugation_is_a_ring_map(a, b):
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert a.conjugate().conjugate() == a


_coefficients = st.one_of(
    st.integers(-50, 50),
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12)),
)


@given(st.integers(1, 24), st.data())
@settings(max_examples=200, deadline=None)
def test_table_reduce_matches_division_by_phi(m, data):
    coeffs = data.draw(st.lists(_coefficients, max_size=2 * m))
    phi = cyclotomic_by_division(m)
    _, rem = poly_divmod(coeffs, phi)
    deg = len(phi) - 1
    assert _reduce(coeffs, m) == tuple(rem) + (0,) * (deg - len(rem))


def _assert_canonical(z):
    """z stores int numerators over a positive int denominator with no
    common factor, zero over 1."""
    assert all(type(n) is int for n in z.nums)
    assert type(z.den) is int and z.den > 0
    assert gcd(z.den, *z.nums) == 1
    assert len(z.nums) == _table(z.m)[0]


def test_coefficients_stay_integers_without_division():
    z = Cyc.zeta(12, 5) * Cyc.zeta(8, 3) + Cyc.zeta(5).conjugate()
    assert z.den == 1 and all(type(c) is int for c in z.nums)
    assert z.coeffs is z.nums
    assert (Cyc.rational(Fraction(4, 2)).nums,
            Cyc.rational(Fraction(4, 2)).den) == ((2,), 1)
    third = z / 3
    assert (third.nums, third.den) == (z.nums, 3)
    assert third.coeffs == tuple(Fraction(c, 3) for c in z.nums)
    # a common factor of the numerators and the denominator cancels
    assert ((third * 3).nums, (third * 3).den) == (z.nums, 1)
    w = Cyc(4, (Fraction(1, 6), Fraction(-1, 3)))
    assert (w.nums, w.den) == ((1, -2), 6)
    assert ((w * 4).nums, (w * 4).den) == ((2, -4), 3)
    assert ((w - w).nums, (w - w).den) == ((0, 0), 1)
    for value in (z, third, w, w * 4, w - w, w + third, w * third):
        _assert_canonical(value)


def _stored(value):
    """What a result stores: a bool, or its conductor, numerators and
    denominator with the type of each number."""
    if isinstance(value, bool):
        return value
    return (value.m, tuple((type(n), n) for n in value.nums),
            (type(value.den), value.den))


_rationals = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
)
_OPS = (operator.add, operator.sub, operator.mul, operator.eq)


def _rational_operands(m, data):
    """A scalar a of conductor m and a rational r: a is r itself in one
    draw of four, so that == can hold."""
    deg, _ = _table(m)
    r = data.draw(_rationals)
    if data.draw(st.integers(0, 3)) == 0:
        a = Cyc.rational(r).promote(m)
    else:
        a = Cyc(m, data.draw(
            st.lists(_coefficients, min_size=deg, max_size=deg)))
    return a, r


@given(st.integers(1, 24), st.data())
@settings(max_examples=300, deadline=None)
def test_a_rational_operand_acts_as_its_promotion(m, data):
    # Each result is stored exactly as the one-conductor result with the
    # promoted operand: the same ints, canonical, whatever the operand's
    # type (an int, a Fraction or a scalar of conductor 1).
    a, r = _rational_operands(m, data)
    promoted = Cyc.rational(r).promote(m)
    for op in _OPS:
        for operand in (r, Cyc.rational(r)):
            assert _stored(op(a, operand)) == _stored(op(a, promoted))
            assert _stored(op(operand, a)) == _stored(op(promoted, a))
    if r:
        assert _stored(a / r) == _stored(a / promoted)


def _divisor_or_multiple(m):
    """A conductor whose lcm with m is at most 60."""
    return st.sampled_from([k for k in range(1, 61)
                            if m % k == 0 or k % m == 0])


def _both_routes(m, data):
    """One draw of coefficients at conductor m as a Cyc and as the
    Fraction-coefficient reference scalar."""
    deg, _ = _table(m)
    coeffs = data.draw(st.lists(_coefficients, min_size=deg, max_size=deg))
    return Cyc(m, coeffs), FractionCyc(m, coeffs)


def _same_value(z, ref):
    _assert_canonical(z)
    assert z.m == ref.m
    assert z.coeffs == ref.coeffs
    assert z.render() == ref.render()


@given(st.integers(1, 60), st.data())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_the_integer_route_matches_the_fraction_route(m, data):
    a, fa = _both_routes(m, data)
    b, fb = _both_routes(data.draw(_divisor_or_multiple(m)), data)
    r = data.draw(_rationals)
    _same_value(a, fa)
    for op in (operator.add, operator.sub, operator.mul):
        _same_value(op(a, b), op(fa, fb))
        _same_value(op(a, r), op(fa, r))
        _same_value(op(r, b), op(r, fb))
    if r:
        _same_value(a / r, fa / r)
        _same_value(b / Cyc.rational(r), fb / FractionCyc.rational(r))
    assert (a == b) == (fa == fb)
    assert (a == r) == (fa == r)
    assert a == Cyc(m, fa.coeffs) and a - b + b == a
    _same_value(a.conjugate(), fa.conjugate())
    big = m * data.draw(st.integers(1, 60 // m))
    _same_value(a.promote(big), fa.promote(big))
    assert a.promote(big) == a


def _maybe_rational(m, data):
    """_both_routes at conductor m, or, in one draw of two, a rational
    stored at conductor m: coefficient 0 and zeros."""
    if data.draw(st.booleans()):
        return _both_routes(m, data)
    deg, _ = _table(m)
    coeffs = [data.draw(_rationals)] + [0] * (deg - 1)
    return Cyc(m, coeffs), FractionCyc(m, coeffs)


@given(st.integers(1, 60), st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_a_rational_at_any_conductor_multiplies_as_the_fraction_route(
        m, data):
    # Rational and non-rational operands at equal and at different
    # conductors: each product has the reference's conductor and value,
    # stored canonically, either way round.
    a, fa = _maybe_rational(m, data)
    n = data.draw(st.sampled_from((m, data.draw(_divisor_or_multiple(m)))))
    b, fb = _maybe_rational(n, data)
    _same_value(a * b, fa * fb)
    _same_value(b * a, fb * fa)
    _same_value(a * a, fa * fa)


def test_a_rational_factor_at_a_dividing_conductor_is_not_convolved(
        monkeypatch):
    def refuse(coeffs, m):
        raise AssertionError("convolved")

    half = Cyc(6, (Fraction(1, 2), 0))
    z = Cyc.zeta(12) + Cyc.zeta(12, 5) / 3
    monkeypatch.setattr(cyclotomic, "_reduce", refuse)
    for a, b in ((half, Cyc.zeta(6)), (half, z), (half, half), (half, 3)):
        assert _stored(a * b) == _stored(b * a)
    assert (half * z).m == 12 and half * z == z / 2
    with pytest.raises(AssertionError, match="convolved"):
        Cyc.zeta(6) * Cyc.zeta(6)


_scalars = st.builds(
    lambda m, k, r: Cyc.zeta(m, k) * r + Cyc.rational(r) / 3,
    st.integers(1, 12), st.integers(0, 11), _rationals)


@given(st.lists(_scalars, max_size=6))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_norm_sum_is_the_sum_of_products_with_conjugates(values):
    want = sum((z * z.conjugate() for z in values), Cyc.rational(0))
    got = norm_sum(values)
    _assert_canonical(got)
    assert _stored(got) == _stored(want)


def test_a_rational_operand_is_never_promoted(monkeypatch):
    def refuse(self, big):
        raise AssertionError("promoted")

    rationals = (0, 1, -3, Fraction(2, 3), Fraction(4, 2), Cyc.rational(5))
    elements = [Cyc.zeta(m, 1) + Cyc.zeta(m, m - 1) / 2 for m in range(1, 25)]
    monkeypatch.setattr(Cyc, "promote", refuse)
    for a in elements:
        for r in rationals:
            for op in _OPS:
                op(a, r)
                op(r, a)
    total = Cyc.rational(0)
    for m in (5, 5, 5):
        total = total + Cyc.zeta(m) * -1
    assert total == -3 * Cyc.zeta(5)
    with pytest.raises(AssertionError, match="promoted"):
        Cyc.zeta(3) + Cyc.zeta(4)


@pytest.mark.parametrize("value", ["1/2", 0.1, 0.5, 1j, None])
def test_an_inexact_operand_is_refused(value):
    # a str would go through Fraction(str) and a float would bring its
    # binary value; == already refused both
    z = Cyc.zeta(3)
    arithmetic = (operator.add, operator.sub, operator.mul)
    for op in (*arithmetic, operator.truediv):
        with pytest.raises(TypeError):
            op(z, value)
    for op in arithmetic:
        with pytest.raises(TypeError):
            op(value, z)
    with pytest.raises(PreconditionError):
        Cyc(3, (value, 1))
    with pytest.raises(PreconditionError):
        Cyc.rational(value)
    assert z != value


def test_a_bool_is_an_int_operand():
    z = Cyc.zeta(3)
    assert (z + True).coeffs == (1, 1)
    assert (z * False).coeffs == (0, 0)
    assert Cyc(3, (True, False)).coeffs == (1, 0)
    assert all(type(c) is int for c in Cyc.rational(True).coeffs)


@pytest.mark.parametrize("zero", [0, Fraction(0), Cyc.rational(0)])
def test_division_by_zero_is_refused(zero):
    # Fraction(1, 0) would escape as a bare ZeroDivisionError
    with pytest.raises(PreconditionError, match="division by zero"):
        Cyc.zeta(3) / zero


_BIG = 10 ** 399  # 400 digits
_foreign = st.one_of(
    st.integers(-30, 30),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
    st.integers(_BIG, 10 * _BIG - 1).flatmap(lambda n: st.sampled_from(
        (n, -n, Fraction(n, 7), Fraction(3, n)))),
    st.floats(),
    st.complex_numbers(),
    st.text(max_size=3),
    st.booleans(),
    st.none(),
)
# each operator with the scalar's method for it, first operand and second
_BINARY = {
    operator.add: ("__add__", "__radd__"),
    operator.sub: ("__sub__", "__rsub__"),
    operator.mul: ("__mul__", "__rmul__"),
    operator.truediv: ("__truediv__", "__rtruediv__"),
    operator.eq: ("__eq__", "__eq__"),
}


def _contract_outcome(call, declined=None):
    """The outcome of call(): a canonical scalar, a bool from ==, or a
    WeylkitError; or, from a binary operator, a TypeError once declined()
    shows that the scalar's own method returned NotImplemented, so that
    Python raised it."""
    try:
        value = call()
    except WeylkitError:
        return "refused"
    except TypeError:
        if declined is None or not declined():
            raise
        return "unsupported"
    if isinstance(value, bool):
        return "bool"
    assert isinstance(value, Cyc)
    _assert_canonical(value)
    return "scalar"


def _declines(scalar, name, x):
    """True when the scalar has no method `name` or it returns
    NotImplemented for x."""
    method = getattr(scalar, name, None)
    return method is None or method(x) is NotImplemented


@given(st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_the_cyclotomic_surface_keeps_its_contract(data):
    """The surface: Cyc(m, coeffs), Cyc.rational, Cyc.zeta, the operators
    + - * / == either way round, unary -, and conjugate.  Every argument
    is drawn from small and 400-digit ints, Fractions, bools (each is
    the int it is), floats, complex numbers, strs and None, and coeffs
    is a list or tuple of those or one of them alone.  A call gives a
    canonical scalar (int numerators over a positive int denominator) or
    a bool from ==, or raises a WeylkitError; a binary operator may also
    end in the TypeError of two NotImplemented operands.  Nothing else
    escapes.  Conductors stay small or pass 10^12, where the trial
    division gate refuses them."""
    m = data.draw(_foreign)
    k = data.draw(_foreign)
    coeffs = data.draw(st.one_of(_foreign, st.lists(_foreign, max_size=4),
                                 st.lists(_foreign, max_size=4).map(tuple)))
    x = data.draw(_foreign)
    _contract_outcome(lambda: Cyc(m, coeffs))
    _contract_outcome(lambda: Cyc.rational(x))
    _contract_outcome(lambda: Cyc.zeta(m, k))
    scalar = Cyc.zeta(data.draw(st.integers(1, 12)),
                      data.draw(st.integers(0, 11))) / data.draw(
                          st.sampled_from((1, 2, Fraction(-3, 4))))
    for op, (name, reflected) in _BINARY.items():
        _contract_outcome(lambda: op(scalar, x),
                          lambda: _declines(scalar, name, x))
        _contract_outcome(lambda: op(x, scalar),
                          lambda: _declines(scalar, reflected, x))
    for value in (-scalar, scalar.conjugate()):
        assert _contract_outcome(lambda: value) == "scalar"


def test_a_reduction_table_past_its_budget_is_refused_before_it_is_built(
        monkeypatch):
    # m phi(m) entries: 2,736 at 76, the largest conductor a command
    # reaches, 950,400 at 1980 and 4,010,006 at the prime 2003
    for m in (*range(1, 77), 1980):
        _table(m)
    z = Cyc.zeta(3)

    def no_polynomial(m):
        raise AssertionError("the table was built")

    monkeypatch.setattr(cyclotomic, "_table_cache", {})
    monkeypatch.setattr(cyclotomic, "_cyclotomic_polynomial", no_polynomial)
    for m, entries in ((2003, 4010006), (10 ** 6, 4 * 10 ** 11)):
        with pytest.raises(BudgetError, match=f"conductor {m} of {entries}"
                                              " entries .* budget of 1000000"):
            Cyc.zeta(m)
    with pytest.raises(BudgetError, match="conductor 6009 of 24060036"):
        z.promote(3 * 2003)
    # a conductor below 1 is refused as one, whatever its size
    with pytest.raises(PreconditionError, match="-10000000 is not positive"):
        Cyc(-10 ** 7, (1,))
    monkeypatch.setattr(cyclotomic, "TABLE_ENTRY_BUDGET", 2735)
    with pytest.raises(BudgetError, match="conductor 76 of 2736 entries"):
        Cyc.zeta(76)
    monkeypatch.setattr(cyclotomic, "TABLE_ENTRY_BUDGET", 2736)
    with pytest.raises(AssertionError, match="built"):
        Cyc.zeta(76)
