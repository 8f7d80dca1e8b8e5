"""End-to-end acceptance gate: every registered check must pass at its
stated (exact) tolerance; the checks take no input."""

import itertools
from math import gcd

import pytest

from weylkit import checks, lattices, pgl2

from test_lattices import _sharp_by_cofactors

_BY_ID = {c.check_id: c for c in checks.REGISTRY}


@pytest.mark.parametrize("check_id", sorted(_BY_ID, key=lambda s: int(s[1:])))
def test_acceptance(check_id):
    check = _BY_ID[check_id]
    witness = check.run()
    assert isinstance(witness, str) and witness


def test_full_registry_report_is_all_pass():
    rows = checks.run_checks()
    assert [r[0] for r in rows] == [f"C{i}" for i in range(1, 12)]
    failures = [r for r in rows if r[2] != "PASS"]
    assert failures == []


def test_c10_d_duality_fails_for_a_wrong_dual(monkeypatch):
    # keep both route cross-checks green so that the d-duality is reached
    counts = lattices.enumerate_X_n(3, 1)
    monkeypatch.setattr(lattices, "enumerate_X_n", lambda p, n: counts)
    monkeypatch.setattr(lattices, "scan_points", lambda p, n: counts)
    monkeypatch.setattr(lattices, "sharp", lambda z: z)
    rows = checks.run_checks(suites=("witt",))
    assert [r for r in rows if r[0] == "C10"] == [
        ("C10", "lattice-bijections", "FAIL", "d-duality failed")]


def test_c10_fails_for_a_dual_with_swapped_units(monkeypatch):
    # GRAM^-1 with 1/4 and 1/8 swapped: the dual keeps its Hermite
    # diagonal, so d-duality would hold, but its fixed points move
    swapped = ((0, 0, 8), (0, 4, 0), (8, 0, 0))
    monkeypatch.setattr(lattices, "sharp",
                        lambda z: _sharp_by_cofactors(z, swapped))
    rows = checks.run_checks(suites=("witt",))
    assert [r for r in rows if r[0] == "C10"] == [
        ("C10", "lattice-bijections", "FAIL",
         "the two enumeration routes disagree")]


def _coarse_x02_candidates(p, n):
    """The congruence stream with the x02 step coarsened from
    g // gcd(g, c0) to g: at (3, 1) it drops two of the five points from
    both scan routes alike."""
    scale = p ** (2 * n)
    for a in itertools.product(range(2 * n + 1), repeat=3):
        d0, d1, d2 = (p ** e for e in a)
        c0 = scale // d0
        s01 = d1 // gcd(c0, d1)
        s12 = d2 // gcd(scale // d1, d2)
        for x01 in range(0, d1, s01):
            c1 = -c0 * x01 // d1
            g = gcd(c1 * s12, d2)
            period = d2 // g
            inverse = pow(c1 * s12 // g, -1, period)
            for x02 in range(0, d2, g):
                y0 = -c0 * x02 // g * inverse % period
                for x12 in range(s12 * y0, d2, s12 * period):
                    yield (d0, x01, x02), (0, d1, x12), (0, 0, d2)


def test_c10_fails_for_a_candidate_stream_that_drops_lattices(monkeypatch):
    monkeypatch.setattr(lattices, "_hermite_candidates",
                        _coarse_x02_candidates)
    assert lattices.scan_points(3, 1)[1] == 3
    rows = checks.run_checks(suites=("witt",))
    assert [r for r in rows if r[0] == "C10"] == [
        ("C10", "lattice-bijections", "FAIL",
         "the candidate scan and the tree walk disagree (3 and 5 points)")]


def test_c10_fails_for_a_tree_walk_that_drops_a_vertex(monkeypatch):
    walk = lattices.tree_points
    monkeypatch.setattr(lattices, "tree_points",
                        lambda p, n: walk(p, n)[1:])
    rows = checks.run_checks(suites=("witt",))
    assert [r for r in rows if r[0] == "C10"] == [
        ("C10", "lattice-bijections", "FAIL",
         "the candidate scan and the tree walk disagree (5 and 4 points)")]


@pytest.mark.parametrize("result", [(True, 1), (False, 0)])
def test_c8_fails_when_the_window_module_check_fails(monkeypatch, result):
    monkeypatch.setattr(pgl2, "module_generation_check", lambda n: result)
    rows = checks.run_checks(suites=("pgl2",))
    generated, coinv = result
    assert [r for r in rows if r[0] == "C8"] == [
        ("C8", "recurrence-values", "FAIL",
         f"window 6: generated={generated}, coinvariants={coinv}")]
