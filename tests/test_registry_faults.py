"""Registry fault gate: each fault is a monkeypatch of the library code a
check exercises, never of the check, and the faulted check must FAIL
while every other check PASSes.  A fault that every check passes is a
gap, named in BLIND."""

import math

import pytest

from weylkit import checks, laurent, pgl2, witt
from weylkit.cli import SuiteConfig

CONFIG = SuiteConfig()


def _statuses():
    return {r[0]: r[2] for r in checks.run_checks(CONFIG)}


def _all_passing():
    return {c.check_id: "PASS" for c in checks.REGISTRY}


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


# -- C7 and C9 faults, with the gaps they show -------------------------

_PIECES = pgl2._pieces
_ENTRY_PAIRS = pgl2._entry_pairs


def _pieces_with_a_minus_d(C, letter):
    """The letter-1 c-piece -b + t (a - d) + t^2 c instead of
    -b + t (d - a) + t^2 c."""
    if letter != 1:
        return _PIECES(C, letter)
    (a, b), (c, d) = C
    return ((d, c, None), (-c, None, None), (-b, a - d, c), (a, -c, None))


def _entry_pairs_without_x2(piece, q):
    """The pairs of x0 + t x1, dropping the t^2 term."""
    x0, x1, _ = piece
    return _ENTRY_PAIRS((x0, x1, None), q)


def _tau_pairs_with_swapped_shifts(a, b, c, d):
    """c shifted up and b shifted down instead of the reverse."""
    return d, (c[0] + 1, c[1] + 1), (b[0] - 1, b[1] - 1), a


def _readout_with_exponent_one_after_the_first_term(p, m, g):
    """The triangular solve with every term past i = 0 raised to the
    power 1 instead of p^(k-i): wrong only from m = 3, where a term
    i >= 1 first occurs."""
    out = [g % p]
    for k in range(1, m):
        lower = sum(p ** i * pow(s, p ** k if i == 0 else 1, p ** (k + 1))
                    for i, s in enumerate(out))
        out.append((g - lower) % p ** (k + 1) // p ** k)
    return tuple(out)


def _walk_that_backtracks(g):
    """The word tree with both letters below every node, so a word may
    undo its last step."""
    q = g[0][0].q
    frontier = [g]
    while True:
        nodes = [(conj, [(letter, pgl2._pieces(conj, letter))
                         for letter in (0, 1)])
                 for conj in frontier]
        yield nodes
        frontier = [child for _, branches in nodes
                    for _, pieces in branches
                    for child in pgl2._children(pieces, q)]


def _level_keys(text, q, levels=3):
    """The entries of the conjugates on the first levels of the walk."""
    g = laurent.parse_matrix(text, q)
    return [[tuple((tuple(sorted(x.coeffs.items())), x.prec)
                   for row in m for x in row) for m in level]
            for _, level in zip(range(levels), pgl2.conjugate_levels(g))]


# name: (module, attribute, fault, the check it should fail, and a probe
# whose value the fault changes, so it is no equivalent mutant)
FAULTS = {
    "pgl2._walk backtracks": (
        pgl2, "_walk", _walk_that_backtracks, "C7",
        lambda: _level_keys("1+e,1;e2,1", 3)),
    "pgl2._pieces letter-1 c-piece a - d": (
        pgl2, "_pieces", _pieces_with_a_minus_d, "C7",
        lambda: _level_keys("1+e,1;e2,1", 3)),
    "pgl2._entry_pairs drops x2": (
        pgl2, "_entry_pairs", _entry_pairs_without_x2, "C7",
        lambda: pgl2._child_pairs(
            next(pgl2._walk(laurent.parse_matrix("1+e,1;e2,1", 3))), 3)),
    "pgl2._tau_pairs shift signs swapped": (
        pgl2, "_tau_pairs", _tau_pairs_with_swapped_shifts, "C7",
        lambda: pgl2._tau_pairs((0, math.inf), (1, math.inf),
                                (2, math.inf), (3, math.inf))),
    "witt._readout exponent 1 after the first term": (
        witt, "_readout", _readout_with_exponent_one_after_the_first_term,
        "C9", lambda: witt.oracle_check(3, 3)),
}

# The faults every check passes.  C7 counts 2 on each of its 42 exact
# elements, so it sees a walk fault only when the fault puts a child in
# I2, as the backtracking walk does; the _pieces and _entry_pairs faults
# change children outside I2 only, and an exact walk never reads
# _tau_pairs.  C9 runs the oracle only at m = 2.
BLIND = {
    "pgl2._pieces letter-1 c-piece a - d",
    "pgl2._entry_pairs drops x2",
    "pgl2._tau_pairs shift signs swapped",
    "witt._readout exponent 1 after the first term",
}


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_each_fault_changes_what_it_patches(monkeypatch, name):
    module, attribute, fault, _, probe = FAULTS[name]
    want = probe()
    monkeypatch.setattr(module, attribute, fault)
    assert probe() != want


def test_the_blind_set_is_the_faults_every_check_passes(monkeypatch):
    gaps = set()
    for name, (module, attribute, fault, check_id, _) in FAULTS.items():
        with monkeypatch.context() as patch:
            patch.setattr(module, attribute, fault)
            statuses = _statuses()
        if statuses == _all_passing():
            gaps.add(name)
        else:
            assert statuses == _only_failing(check_id), name
    assert gaps == BLIND
