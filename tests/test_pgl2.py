import random

import pytest

from weylkit import laurent, pgl2
from weylkit.errors import PreconditionError


def test_iwahori_classes_of_standard_elements():
    assert pgl2.iwahori_class(laurent.parse_matrix("0,1;e,0", 2)) == "I2"
    assert pgl2.iwahori_class(laurent.parse_matrix("1,0;0,1", 2)) == "I1"
    assert pgl2.iwahori_class(laurent.parse_matrix("1,1;e,1", 2)) == "I1"


def test_discriminant_valuation_is_one_all_characteristics():
    rng = random.Random(7)
    for q in (2, 3, 5):
        for _ in range(25):
            m = pgl2.random_i2(q, rng)
            assert pgl2.discriminant_valuation(m) == 1


def test_random_i1_closed_under_multiplication():
    rng = random.Random(11)
    for q in (2, 3):
        for _ in range(15):
            a = pgl2.random_i1(q, rng)
            b = pgl2.random_i1(q, rng)
            assert pgl2.iwahori_class(laurent.mat_mul(a, b)) == "I1"


def test_conjugation_preserves_class_and_discriminant():
    rng = random.Random(13)
    for q in (2, 3):
        g = laurent.parse_matrix("0,1;e,0", q)
        for _ in range(10):
            h = pgl2.random_i1(q, rng)
            gp = pgl2.conjugate_exact(g, h)
            assert pgl2.iwahori_class(gp) == "I2"
            assert pgl2.discriminant_valuation(gp) == 1


def test_conjugating_element_recovers_witness():
    rng = random.Random(17)
    for q in (2, 3):
        g = laurent.parse_matrix("0,1;e,0", q)
        h = pgl2.random_i1(q, rng)
        gp = pgl2.conjugate_exact(g, h)
        witness = pgl2.conjugating_element(g, gp)
        assert witness is not None
        # an intertwiner in one direction or the other
        wg = laurent.mat_mul(witness, g)
        gpw = laurent.mat_mul(gp, witness)
        gw = laurent.mat_mul(g, witness)
        wgp = laurent.mat_mul(witness, gp)
        def close(A, B):
            return all((A[i][j] - B[i][j]).is_zero_to_prec()
                       or A[i][j] == B[i][j]
                       for i in range(2) for j in range(2))
        assert close(wg, gpw) or close(gw, wgp)


def test_fixed_point_count_base_case():
    for q in (2, 3, 5):
        g = laurent.parse_matrix("0,1;e,0", q)
        assert pgl2.fixed_point_count(g) == 2


def test_fixed_point_count_stable_under_conjugation():
    rng = random.Random(19)
    for q in (2, 3):
        g = laurent.parse_matrix("0,1;e,0", q)
        for _ in range(5):
            h = pgl2.random_i1(q, rng)
            assert pgl2.fixed_point_count(pgl2.conjugate_exact(g, h)) == 2


def test_regular_window_module_traces():
    mod = pgl2.h0_cvr_module(window=4)
    assert mod.trace() == mod.dimension
    assert mod.trace(0) == 0
    assert mod.trace(1) == 0
    assert mod.coinvariant_dimension() == 1


def test_module_generation_and_coinvariants():
    # the values of the former Fraction Gauss-Jordan closure at every N
    for n in range(2, 15):
        assert pgl2.module_generation_check(n) == (True, 0)
    with pytest.raises(PreconditionError):
        pgl2.module_generation_check(1)


def test_recurrence_solution_space():
    dim, basis = pgl2.recurrence_solution_space()
    assert dim == 2
    assert len(basis) == 2


def test_counting_values():
    for q in (2, 3, 5, 7):
        assert pgl2.almost_char_44(q) == 2 * q
        assert pgl2.almost_char_44(q) - pgl2.steinberg_value(q) == 1


def test_prime_power_detector():
    assert pgl2._is_prime_power(2)
    assert pgl2._is_prime_power(9)
    assert pgl2._is_prime_power(8)
    assert not pgl2._is_prime_power(1)
    assert not pgl2._is_prime_power(6)
    assert not pgl2._is_prime_power(12)


def test_a_space_dimension_cases():
    assert pgl2.a_space_dims(case="recurrence") == {2: 2}
    invariants = pgl2.a_space_dims(case="invariants")
    assert invariants == {0: 1}
    regular = pgl2.a_space_dims(case="regular")
    assert list(regular.keys()) == [0]
