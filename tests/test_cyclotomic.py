import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from weylkit.cyclotomic import Cyc, _new, _reduce, _table, cyclotomic_polynomial
from weylkit.errors import PreconditionError
from reference_routes import cyclotomic_by_division, poly_divmod


def test_cyclotomic_polynomials():
    assert list(cyclotomic_polynomial(1)) == [-1, 1]
    assert list(cyclotomic_polynomial(2)) == [1, 1]
    assert list(cyclotomic_polynomial(4)) == [1, 0, 1]
    assert list(cyclotomic_polynomial(6)) == [1, -1, 1]
    assert list(cyclotomic_polynomial(12)) == [1, 0, -1, 0, 1]


def test_phi_matches_long_division_in_ints():
    # Phi_105 is the first with a coefficient outside {-1, 0, 1}: a -2.
    for m in range(1, 111):
        phi = cyclotomic_polynomial(m)
        assert phi == cyclotomic_by_division(m), m
        assert all(type(c) is int for c in phi), m
    assert -2 in cyclotomic_polynomial(105)
    assert all(abs(c) <= 1 for m in range(1, 105)
               for c in cyclotomic_polynomial(m))


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


def test_coefficients_stay_integers_without_division():
    z = Cyc.zeta(12, 5) * Cyc.zeta(8, 3) + Cyc.zeta(5).conjugate()
    assert all(type(c) is int for c in z.coeffs)
    assert all(type(c) is int for c in Cyc.rational(Fraction(4, 2)).coeffs)
    assert (z / 3).coeffs == tuple(Fraction(c, 3) for c in z.coeffs)


@given(_coefficients)
def test_to_fraction_returns_a_fraction(x):
    value = (Cyc.rational(x) * Cyc.zeta(4) * Cyc.zeta(4)).to_fraction()
    assert type(value) is Fraction
    assert value == -x


def _one_conductor(op, a, b):
    """op on two scalars of one conductor by the route that promotion
    feeds: + and - coefficient by coefficient, * a convolution reduced
    by the table, == on the coefficient tuples."""
    if op is operator.eq:
        return a.coeffs == b.coeffs
    if op is not operator.mul:
        return _new(a.m, tuple(op(x, y) for x, y in zip(a.coeffs, b.coeffs)))
    product = [0] * (2 * len(a.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        if x:
            for j, y in enumerate(b.coeffs, i):
                if y:
                    product[j] += x * y
    return _new(a.m, _reduce(product, a.m))


def _typed(value):
    """A result with the type of each coefficient, so that 2 and
    Fraction(2, 1) differ."""
    if isinstance(value, bool):
        return value
    return value.m, tuple((type(c), c) for c in value.coeffs)


# Coefficients as arithmetic leaves them: ints, Fractions, and Fractions
# that are integers (Fraction(1, 2) + Fraction(1, 2) stays a Fraction).
_raw_coefficients = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)),
)
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
        a = _new(m, tuple(data.draw(
            st.lists(_raw_coefficients, min_size=deg, max_size=deg))))
    return a, r


@given(st.integers(1, 24), st.data())
@settings(max_examples=300, deadline=None)
def test_a_rational_operand_acts_as_its_promotion(m, data):
    a, r = _rational_operands(m, data)
    promoted = Cyc.rational(r).promote(m)
    for op in _OPS:
        for operand in (r, Cyc.rational(r)):
            assert _typed(op(a, operand)) == _typed(
                _one_conductor(op, a, promoted))
            assert _typed(op(operand, a)) == _typed(
                _one_conductor(op, promoted, a))


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
