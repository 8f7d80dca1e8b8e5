from fractions import Fraction

import pytest

from weylkit import fourier
from weylkit.cyclotomic import Cyc
from weylkit.errors import StructuralError
from reference_routes import cyc_characters, cyc_pairing_matrix


def _value(gamma, terms):
    """The Cyc sum c zeta_N^k of a character value's terms {k: c}."""
    row = [0] * gamma.exponent
    for k, c in terms.items():
        row[k] += c
    return Cyc(gamma.exponent, row)


def _squares_to_identity(matrix):
    n = len(matrix)
    for i in range(n):
        for j in range(n):
            entry = sum((matrix[i][k] * matrix[k][j] for k in range(n)),
                        Cyc.rational(0))
            if not (entry == (1 if i == j else 0)):
                return False
    return True


def test_m_set_sizes():
    assert len(fourier.m_set(fourier.group_trivial())) == 1
    assert len(fourier.m_set(fourier.group_z2())) == 4
    assert len(fourier.m_set(fourier.cyclic_group(3))) == 9
    assert len(fourier.m_set(fourier.group_z2xz2())) == 16
    assert len(fourier.m_set(fourier.group_s3())) == 8


def test_all_curated_matrices_are_involutions():
    for name, build in sorted(fourier.GROUPS.items()):
        gamma = build()
        matrix = fourier.pairing_matrix(gamma, fourier.m_set(gamma))
        assert _squares_to_identity(matrix), name


def test_matrices_are_symmetric():
    for build in (fourier.group_z2, fourier.group_z2xz2, fourier.group_s3):
        gamma = build()
        matrix = fourier.pairing_matrix(gamma, fourier.m_set(gamma))
        n = len(matrix)
        for i in range(n):
            for j in range(n):
                assert matrix[i][j] == matrix[j][i]


def test_z2_matrix_entries():
    gamma = fourier.group_z2()
    pairs = fourier.m_set(gamma)
    matrix = fourier.pairing_matrix(gamma, pairs)
    half = Fraction(1, 2)
    for i, p in enumerate(pairs):
        for j, q in enumerate(pairs):
            value = matrix[i][j]
            sign = 1
            if p.x == "r" and q.sigma == 1:
                sign = -sign
            if q.x == "r" and p.sigma == 1:
                sign = -sign
            assert value == Cyc.rational(sign * half)


def test_b2_component_matrix_is_involution():
    m = fourier.b2_component_matrix()
    mm = tuple(
        tuple(sum((m[i][k] * m[k][j] for k in range(4)), Cyc.rational(0))
              for j in range(4))
        for i in range(4))
    for i in range(4):
        for j in range(4):
            assert mm[i][j] == (1 if i == j else 0)


def test_trivial_group_transform_is_identity():
    gamma = fourier.group_trivial()
    matrix = fourier.pairing_matrix(gamma, fourier.m_set(gamma))
    assert matrix == ((Cyc.rational(1),),) or matrix[0][0] == Cyc.rational(1)


def test_characters_orthogonal():
    for build in (fourier.group_z2xz2, fourier.group_s3,
                  lambda: fourier.cyclic_group(3)):
        gamma = build()
        n = len(gamma.elements)
        chars = [{g: _value(gamma, chi[g]) for g in gamma.elements}
                 for chi in gamma.characters(gamma.elements)]
        for i, a in enumerate(chars):
            for j, b in enumerate(chars):
                inner = sum((a[g] * b[g].conjugate()
                             for g in gamma.elements), Cyc.rational(0))
                expected = n if i == j else 0
                assert inner == Cyc.rational(expected)


def test_the_pairing_matrix_matches_the_cyc_product_route():
    # The same characters, in the same order, and every entry equal to
    # the sum of Cyc products with conjugates over Cyc.zeta characters.
    for name, build in sorted(fourier.GROUPS.items()):
        gamma = build()
        pairs = fourier.m_set(gamma)
        labels, expected = cyc_pairing_matrix(gamma)
        assert [(p.x, p.sigma) for p in pairs] == labels, name
        for p in pairs:
            reference = cyc_characters(gamma, gamma.centralizer(p.x))
            assert {a: _value(gamma, terms) for a, terms in p.chi.items()} \
                == reference[p.sigma], (name, p.x, p.sigma)
        got = fourier.pairing_matrix(gamma, pairs)
        for i, row in enumerate(expected):
            for j, value in enumerate(row):
                assert got[i][j] == value, (name, i, j)


def test_centralizer_orders_are_the_centralizers_sizes():
    for name, build in sorted(fourier.GROUPS.items()):
        gamma = build()
        assert gamma.centralizer_order == {
            x: len(gamma.centralizer(x)) for x in gamma.elements}, name


def test_m_set_finds_each_centralizer_once_and_the_pairing_none(
        monkeypatch):
    calls = []
    centralizer = fourier.FiniteGroupTable.centralizer
    monkeypatch.setattr(fourier.FiniteGroupTable, "centralizer",
                        lambda self, x: calls.append(x)
                        or centralizer(self, x))
    s3 = fourier.group_s3()
    pairs = fourier.m_set(s3)
    assert len(calls) == 3  # one per conjugacy class
    fourier.pairing_matrix(s3, pairs)
    assert len(calls) == 3


def test_group_exponents():
    assert [fourier.GROUPS[name]().exponent
            for name in ("trivial", "z2", "z3", "z2xz2", "s3")] \
        == [1, 2, 3, 2, 6]


@pytest.mark.parametrize("labels, perms, what", [
    # rotation by 1 of range(3) without rotation by 2
    (("1", "r"), ((0, 1, 2), (1, 2, 0)), "not closed under composition"),
    (("1", "r", "s"), ((0, 1), (1, 0), (1, 0)), "is repeated"),
    (("1", "r", "r"), ((0, 1, 2), (1, 2, 0), (2, 0, 1)), "is repeated"),
    (("1", "r"), ((0, 1),), "^2 labels for 1 permutations$"),
    (("1",), ((0, 1), (1, 0)), "^1 labels for 2 permutations$"),
    ((), (), "^0 labels for 0 permutations$"),
    (("1", "r"), ((0, 1), (0, 0)), "not all permutations"),
    (("1", "r"), ((0, 1), (1, 0, 2)), "not all permutations"),
])
def test_a_table_that_is_not_a_group_is_refused(labels, perms, what):
    with pytest.raises(StructuralError, match=what):
        fourier.FiniteGroupTable(labels, perms)
