from fractions import Fraction

from hypothesis import given, settings, strategies as st

from weylkit.cyclotomic import Cyc, _poly_divmod, _reduce, cyclotomic_polynomial


def test_cyclotomic_polynomials():
    assert list(cyclotomic_polynomial(1)) == [-1, 1]
    assert list(cyclotomic_polynomial(2)) == [1, 1]
    assert list(cyclotomic_polynomial(4)) == [1, 0, 1]
    assert list(cyclotomic_polynomial(6)) == [1, -1, 1]
    assert list(cyclotomic_polynomial(12)) == [1, 0, -1, 0, 1]


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
    phi = cyclotomic_polynomial(m)
    _, rem = _poly_divmod(coeffs, phi)
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
