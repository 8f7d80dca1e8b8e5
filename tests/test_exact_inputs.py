"""Public constructors refuse an input that is not an int where an int is
meant: each raises PreconditionError naming the input, not a bare
TypeError from deeper in, and builds nothing that renders a float.  Every
entry that takes a prime p or q runs the one prime gate of `errors`, and
the arithmetic operators refuse a foreign operand with NotImplemented."""

import operator
import random
import re
from fractions import Fraction

import pytest

from weylkit import alcove, errors, fourier, lattices, pgl2, weyl
from weylkit.cartan import cartan_datum
from weylkit.cyclotomic import Cyc
from weylkit.errors import (
    BudgetError,
    PreconditionError,
    UnsupportedLabelError,
    UnsupportedRegimeError,
)
from weylkit.laurent import LaurentScalar, parse_matrix
from weylkit.witt import WittScalar, oracle_check


@pytest.mark.parametrize("build, what", [
    (lambda: LaurentScalar(3, {0: 0.5}), "coefficient 0.5"),
    (lambda: LaurentScalar(3, {0: Fraction(1, 2)}), "coefficient"),
    (lambda: LaurentScalar(3, {0.5: 1}), "exponent 0.5"),
    (lambda: LaurentScalar(3.0, {0: 1}), "prime 3.0"),
    (lambda: WittScalar(3, 2, (0.5, 1)), "component 0.5"),
    (lambda: WittScalar(3.0, 2, (1, 1)), "prime 3.0"),
    (lambda: WittScalar(3, 2.0, (1, 1)), "Witt length 2.0"),
    (lambda: oracle_check(3, 2.0), "Witt length 2.0"),
    (lambda: lattices.enumerate_X_n(3.0, 1), "prime 3.0"),
    (lambda: pgl2.random_i2(3, random.Random(1), 2.0), "degree 2.0"),
    (lambda: Cyc.zeta(2.0), "conductor 2.0"),
    (lambda: Cyc.zeta(3, 1.0), "exponent 1.0"),
    (lambda: Cyc(3.0, (1, 0)), "conductor 3.0"),
])
def test_a_non_int_input_is_refused(build, what):
    with pytest.raises(PreconditionError, match=f"^{what}.* is not an int$"):
        build()


@pytest.mark.parametrize("build", [
    lambda value: Cyc(3, value),
    lambda value: WittScalar(3, 2, value),
])
@pytest.mark.parametrize("value", [None, 5, {1: 2}, {0: 1, 1: 1}])
def test_coefficients_that_are_not_a_sequence_are_refused(build, value):
    # None and an int are not iterable, and a dict would give its keys
    with pytest.raises(PreconditionError, match="are not a sequence$"):
        build(value)


def test_a_random_odd_coset_element_has_at_least_one_digit():
    for degree in (0, -1):
        with pytest.raises(PreconditionError, match="is less than 1"):
            pgl2.random_i2(3, random.Random(1), degree)


def test_a_bool_counts_as_its_int():
    assert WittScalar(3, 2, (True, False)) == WittScalar(3, 2, (1, 0))
    assert LaurentScalar(3, {0: True}).render() == "1"


def test_is_prime_matches_a_sieve():
    limit = 500
    sieve = [False, False] + [True] * (limit - 2)
    for k in range(2, limit):
        if sieve[k]:
            for j in range(k * k, limit, k):
                sieve[j] = False
    assert [k for k in range(-3, limit) if errors.is_prime(k)] == \
        [k for k in range(limit) if sieve[k]]


def test_trial_division_stops_at_its_budget():
    # 999999999989 is the largest prime below 10^12; past 10^12 the test
    # refuses before any division
    assert errors.is_prime(999999999989)
    assert not errors.is_prime(10 ** 12)
    assert errors.least_prime_factor(10 ** 12) == 2
    assert errors.least_prime_factor(3 ** 25) == 3
    assert errors.least_prime_factor(999983 ** 2) == 999983
    assert errors.least_prime_factor(999979 * 999983) == 999979
    for k in (10 ** 12 + 1, 1000000007 * 1000000009, 10 ** 399 + 1, 2 ** 60):
        refusal = (f"a {k.bit_length()}-bit integer to decide by trial"
                   " division exceeds the budget of 1000000000000")
        with pytest.raises(BudgetError, match=refusal):
            errors.is_prime(k)
        with pytest.raises(BudgetError, match=refusal):
            errors.least_prime_factor(k)


# Every public entry that takes a prime, as a function of it.
PRIME_ENTRIES = {
    "LaurentScalar": lambda p: LaurentScalar(p, {0: 1}),
    "parse_matrix": lambda p: parse_matrix("0,1;e,0", p),
    "random_i2": lambda p: pgl2.random_i2(p, random.Random(1)),
    "WittScalar": lambda p: WittScalar(p, 2, (1, 1)),
    "oracle_check": lambda p: oracle_check(p, 1),
    "enumerate_X_n": lambda p: lattices.enumerate_X_n(p, 1),
    "scan_points": lambda p: lattices.scan_points(p, 1),
    "tree_points": lambda p: lattices.tree_points(p, 1),
    "borel_fiber_count": lambda p: lattices.borel_fiber_count(p),
    "candidates": lambda p: lattices.candidates(p, 1),
}


@pytest.mark.parametrize("entry", sorted(PRIME_ENTRIES))
@pytest.mark.parametrize("p, error", [
    (9, UnsupportedRegimeError),
    (15, UnsupportedRegimeError),
    (3.0, PreconditionError),
])
def test_every_prime_entry_refuses_a_non_prime(entry, p, error):
    with pytest.raises(error, match="is not prime|is not an int"):
        PRIME_ENTRIES[entry](p)


@pytest.mark.parametrize("walk", [lattices.enumerate_X_n,
                                  lattices.scan_points,
                                  lattices.tree_points,
                                  lattices.candidates])
@pytest.mark.parametrize("n, what", [
    (1.0, "lattice radius 1.0 is not an int"),
    (Fraction(1), "lattice radius Fraction"),
    (-1, "lattice radius n=-1 is negative"),
])
def test_a_bad_lattice_radius_is_refused(walk, n, what):
    with pytest.raises(PreconditionError, match=f"^{what}"):
        walk(3, n)


@pytest.mark.parametrize("other", [0.5, "a", Fraction(1, 2), None])
def test_a_foreign_operand_is_refused(other):
    x = LaurentScalar(3, {0: 1})
    for a, b in ((x, other), (other, x)):
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                op(a, b)
    assert x != other


@pytest.mark.parametrize("other", [1, 0.5, "a", LaurentScalar(3, {0: 1})])
def test_a_witt_scalar_refuses_a_foreign_operand(other):
    w = WittScalar(3, 2, (1, 1))
    for a, b in ((w, other), (other, w)):
        for op in (operator.add, operator.mul):
            with pytest.raises(TypeError):
                op(a, b)
    assert w != other


def test_an_int_operand_is_the_constant_it_names():
    x = LaurentScalar(3, {1: 1})
    assert (x + 4).coeffs == {0: 1, 1: 1}
    assert (4 + x).coeffs == {0: 1, 1: 1}
    assert (x - 1).coeffs == {0: 2, 1: 1}
    assert (1 - x).coeffs == {0: 1, 1: 2}
    assert (x * 2).coeffs == (2 * x).coeffs == {1: 2}
    assert x * True == x and LaurentScalar(3, {0: 2}) == -1
    with pytest.raises(PreconditionError, match="mismatched base fields"):
        x + LaurentScalar(5, {0: 1})


A1 = cartan_datum("A1")


@pytest.mark.parametrize("build, error, what", [
    (lambda: weyl.simple_reflection(A1, 5), PreconditionError,
     "node 5 is out of range 0..1"),
    (lambda: weyl.simple_reflection(A1, -1), PreconditionError,
     "node -1 is out of range 0..1"),
    (lambda: fourier.cyclic_group(0), PreconditionError,
     "group order 0 is not positive"),
    (lambda: fourier.cyclic_group(-1), PreconditionError,
     "group order -1 is not positive"),
    (lambda: alcove.level_one_point(A1, (0.5, 0.5)), PreconditionError,
     "coordinate 0.5 is not an exact rational"),
    (lambda: alcove.level_one_point(A1, ("1/2", "1/2")), PreconditionError,
     "coordinate '1/2' is not an exact rational"),
    (lambda: cartan_datum(None), UnsupportedLabelError,
     "bad type label None"),
    (lambda: pgl2.recurrence_solution_space(0), PreconditionError,
     "window must extend at least one step"),
    (lambda: pgl2.module_generation_check(2.5), PreconditionError,
     "window 2.5 is not an int"),
])
def test_a_library_input_out_of_its_domain_is_refused(build, error, what):
    with pytest.raises(error, match=f"^{what}$"):
        build()


@pytest.mark.parametrize("entry", [
    weyl.min_coset_generators,
    weyl.longest_element,
    alcove.grid_nodes,
    pytest.param(lambda datum, J: alcove.grid_points(datum, J, 6),
                 id="grid_points"),
])
@pytest.mark.parametrize("node", [0.5, "a", None])
def test_a_node_that_is_not_an_int_is_refused(entry, node):
    with pytest.raises(PreconditionError,
                       match=f"^node {re.escape(repr(node))} is not an int$"):
        entry(A1, (node,))


def test_inputs_at_the_edges_of_those_domains_work():
    assert weyl.simple_reflection(A1, 1).word() == (1,)
    assert fourier.cyclic_group(1).elements == ("1",)
    assert weyl.longest_element(A1, (True,)) == weyl.simple_reflection(A1, 1)
    assert alcove.level_one_point(A1, (True, 0)).coords == (1, 0)
    assert pgl2.recurrence_solution_space(1)[0] == 2


@pytest.mark.parametrize("big, error, what", [
    (6.0, PreconditionError, "target conductor 6.0 is not an int"),
    (0, PreconditionError, "target conductor 0 is not a positive multiple"),
    (-6, PreconditionError, "target conductor -6 is not a positive multiple"),
    # a positive multiple whose table trial division refuses to build
    (3 * 10 ** 400, BudgetError, "a 1331-bit integer"),
])
def test_promote_refuses_a_target_before_lifting(big, error, what):
    with pytest.raises(error, match=f"^{what}"):
        Cyc.zeta(3).promote(big)
