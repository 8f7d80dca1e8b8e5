import itertools

import pytest
from hypothesis import given, settings, strategies as st

from weylkit import witt
from weylkit.errors import PreconditionError, UnsupportedRegimeError


def test_structure_polynomials_p3_m2_first_components():
    add, mul = witt.structure_polynomials(3, 2)
    # first component of the sum is plain addition of the first coordinates
    assert witt._eval_mod(add[0], (1, 0, 1, 0), 3) == 2
    # first component of the product is the product
    assert witt._eval_mod(mul[0], (2, 0, 2, 0), 3) == 1


def test_ring_identities_small():
    for p, m in ((3, 2), (5, 2), (3, 3)):
        zero = witt.witt_zero(p, m)
        one = witt.witt_one(p, m)
        assert zero + one == one
        assert one * one == one
        assert zero * one == zero


def test_oracle_isomorphism():
    assert witt.oracle_check(3, 2)
    assert witt.oracle_check(5, 2)
    assert witt.oracle_check(3, 3)


def test_from_integer_is_additive():
    p, m = 3, 2
    for a in range(9):
        for b in range(9):
            left = witt.from_integer(a, p, m) + witt.from_integer(b, p, m)
            assert left == witt.from_integer(a + b, p, m)


def test_from_integer_is_multiplicative():
    p, m = 5, 2
    for a in range(25):
        for b in range(0, 25, 3):
            left = witt.from_integer(a, p, m) * witt.from_integer(b, p, m)
            assert left == witt.from_integer(a * b, p, m)


def test_p_image_is_not_p_times_one_componentwise():
    # the image of p is (0, 1, ...) rather than (p mod p, 0, ...)
    x = witt.from_integer(3, 3, 2)
    assert x.components[0] == 0
    assert x.components[1] != 0


def test_parse_round_trip():
    x = witt.parse_witt("(2,1)", 3, 2)
    assert x.components == (2, 1)
    assert witt.parse_witt(x.render(), 3, 2) == x


def test_component_validation():
    with pytest.raises(UnsupportedRegimeError):
        witt.WittScalar(3, 2, (5, 0))
    with pytest.raises(PreconditionError):
        witt.WittScalar(3, 2, (1,))
    # parsing normalizes components into the prime field
    assert witt.parse_witt("(5,0)", 3, 2).components == (2, 0)


@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_random_triples_against_integer_oracle(a, b, c):
    p, m = 3, 2
    wa, wb, wc = (witt.from_integer(x, p, m) for x in (a, b, c))
    assert wa + wb == witt.from_integer(a + b, p, m)
    assert wa * wb == witt.from_integer(a * b, p, m)
    assert wa * (wb + wc) == witt.from_integer(a * (b + c), p, m)


@pytest.mark.parametrize("p,m", [(3, 2), (5, 2)])
def test_compiled_structure_matches_eval_mod_on_every_input(p, m):
    polys = witt.structure_polynomials(p, m)
    compiled = witt._compiled_structure(p, m)
    for values in itertools.product(range(p), repeat=2 * m):
        for poly_list, term_list in zip(polys, compiled):
            for poly, terms in zip(poly_list, term_list):
                assert witt._eval_terms(terms, values, p) == \
                    witt._eval_mod(poly, values, p)


def test_compiled_terms_are_reduced():
    for p, m in ((3, 2), (5, 2), (3, 3)):
        for term_list in witt._compiled_structure(p, m):
            for terms in term_list:
                for coeff, factors in terms:
                    assert 0 < coeff < p
                    assert all(e > 0 for _, e in factors)


def test_non_prime_field_is_rejected():
    with pytest.raises(UnsupportedRegimeError):
        witt.WittScalar(4, 1, (1,))
    with pytest.raises(UnsupportedRegimeError):
        witt.structure_polynomials(9, 2)
