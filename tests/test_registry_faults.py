"""Registry fault gate: each fault is a monkeypatch of the library code a
check exercises, never of the check, and the faulted check must FAIL
while every other check PASSes."""

import pytest

from weylkit import checks, witt
from weylkit.cli import SuiteConfig

CONFIG = SuiteConfig()


def _statuses():
    return {r[0]: r[2] for r in checks.run_checks(CONFIG)}


def _only_failing(check_id):
    return {c.check_id: "FAIL" if c.check_id == check_id else "PASS"
            for c in checks.REGISTRY}


def _readout_without_correction(p, m, g):
    """The triangular solve with the sum over earlier components dropped:
    the base-p digits of the ghost."""
    return tuple(g % p ** (k + 1) // p ** k for k in range(m))


def _ghost_with_reversed_exponents(p, m, components):
    """sum_i p^i x_i^(p^i) instead of x_i^(p^(m-1-i))."""
    return sum(p ** i * pow(c, p ** i, p ** m)
               for i, c in enumerate(components)) % p ** m


def _ghost_with_exponents_shifted_up(p, m, components):
    """sum_i p^i x_i^(p^(m-i)) instead of x_i^(p^(m-1-i))."""
    return sum(p ** i * pow(c, p ** (m - i), p ** m)
               for i, c in enumerate(components)) % p ** m


@pytest.mark.parametrize("name,fault", [
    ("_readout", _readout_without_correction),
    ("_ghost", _ghost_with_reversed_exponents),
])
def test_a_witt_fault_fails_c9_only(monkeypatch, name, fault):
    monkeypatch.setattr(witt, name, fault)
    assert _statuses() == _only_failing("C9")


def test_a_wrong_ghost_fails_on_the_images_before_any_pair(monkeypatch):
    # phi through the ghost disagrees with digit extraction through tau,
    # so oracle_check refuses before it adds or multiplies anything
    readouts = []
    readout = witt._readout
    monkeypatch.setattr(witt, "_ghost", _ghost_with_reversed_exponents)
    monkeypatch.setattr(witt, "_readout",
                        lambda *args: readouts.append(args) or readout(*args))
    assert witt.oracle_check(3, 2) is False
    assert readouts == []


@pytest.mark.parametrize("p,m", [(3, 2), (5, 2), (2, 4), (3, 3)])
def test_ghost_exponents_shifted_up_are_an_equivalent_mutant(p, m):
    # a^(p^(j+1)) = a^(p^j) mod p^(j+1), so term i of the ghost is the
    # same mod p^m with either exponent: no check can see this change
    for k in range(p ** m):
        x = witt.from_integer(k, p, m)
        assert _ghost_with_exponents_shifted_up(p, m, x.components) \
            == x.ghost == k
