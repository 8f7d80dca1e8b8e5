import itertools
from fractions import Fraction

import pytest

from weylkit import fourier
from weylkit.cyclotomic import Cyc
from weylkit.errors import (
    InternalConsistencyError,
    PreconditionError,
    StructuralError,
)
from reference_routes import (
    cyc_characters,
    cyc_matrix_square,
    cyc_pairing_matrix,
    squares_to_identity,
)


def _value(gamma, terms):
    """The Cyc sum c zeta_N^k of a character value's terms {k: c}."""
    row = [0] * gamma.exponent
    for k, c in terms.items():
        row[k] += c
    return Cyc(gamma.exponent, row)


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
        assert squares_to_identity(matrix), name


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


def test_m_set_computes_each_distinct_centralizers_table_once(monkeypatch):
    # Z/2 and Z/12 are abelian, so every centralizer is the whole group;
    # the three classes of S3 have three different centralizers
    calls = []
    characters = fourier.FiniteGroupTable.characters
    monkeypatch.setattr(fourier.FiniteGroupTable, "characters",
                        lambda self, members: calls.append(members)
                        or characters(self, members))
    for build, want in ((fourier.group_z2, 1),
                        (lambda: fourier.cyclic_group(12), 1),
                        (fourier.group_s3, 3)):
        gamma = build()
        calls.clear()
        pairs = fourier.m_set(gamma)
        assert len(calls) == len(set(calls)) == want
        # the same pairs as one table per class representative
        assert [(p.x, p.sigma, p.chi) for p in pairs] == [
            (cl[0], i, chi) for cl in gamma.classes
            for i, chi in enumerate(characters(
                gamma, gamma.centralizer(cl[0])))]


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


def _permutation_group(perms):
    """The group of the permutations `perms`, each named by its images."""
    perms = tuple(perms)
    return fourier.FiniteGroupTable((" ".join(map(str, q)) for q in perms),
                                    perms)


def _signed_permutations(n):
    """W(B_n): w and the signs s send +-e_i to +-(-1)^s_i e_w(i), acting on
    range(2n), where i and i + n stand for e_i and -e_i."""
    return _permutation_group(
        tuple(w[i % n] + n * ((s[i % n] + i // n) % 2) for i in range(2 * n))
        for w in itertools.permutations(range(n))
        for s in itertools.product((0, 1), repeat=n))


def _dihedral(m):
    """The symmetries of an m-gon: i -> k + i and i -> k - i mod m."""
    return _permutation_group(
        [tuple((k + i) % m for i in range(m)) for k in range(m)]
        + [tuple((k - i) % m for i in range(m)) for k in range(m)])


# groups beyond the five named ones, each with its number of classes
LARGER_GROUPS = {
    "S4": (lambda: _permutation_group(itertools.permutations(range(4))), 5),
    "S5": (lambda: _permutation_group(itertools.permutations(range(5))), 7),
    "W(B2)": (lambda: _signed_permutations(2), 5),
    "W(G2)": (lambda: _dihedral(6), 6),
    "W(B3)": (lambda: _signed_permutations(3), 10),
    "Z/12": (lambda: fourier.cyclic_group(12), 12),
    "(Z/2)^5": (lambda: _permutation_group(
        tuple(i ^ v for i in range(32)) for v in range(32)), 32),
}


@pytest.mark.parametrize("name", sorted(LARGER_GROUPS))
def test_characters_of_larger_groups_are_orthonormal(name):
    # rows and columns orthogonal, integer degrees whose squares sum to |G|
    build, classes = LARGER_GROUPS[name]
    gamma = build()
    chars = gamma.characters(gamma.elements)
    reps = [cl[0] for cl in gamma.classes]
    assert len(chars) == len(reps) == classes
    degrees = [chi[gamma.identity] for chi in chars]
    assert all(set(d) == {0} for d in degrees)
    assert sum(d[0] ** 2 for d in degrees) == len(gamma.elements)
    table = [[_value(gamma, chi[x]) for x in reps] for chi in chars]
    sizes = [len(cl) for cl in gamma.classes]
    for i, a in enumerate(table):
        for j, b in enumerate(table):
            inner = sum((size * x * y.conjugate()
                         for size, x, y in zip(sizes, a, b)), Cyc.rational(0))
            assert inner == (len(gamma.elements) if i == j else 0), (i, j)
    for i, x in enumerate(reps):
        for j in range(len(reps)):
            inner = sum((row[i] * row[j].conjugate() for row in table),
                        Cyc.rational(0))
            assert inner == (gamma.centralizer_order[x] if i == j else 0)


def test_the_s4_pairing_matrix_is_a_symmetric_involution_on_21_pairs():
    s4 = LARGER_GROUPS["S4"][0]()
    matrix = fourier.pairing_matrix(s4, fourier.m_set(s4))
    assert len(matrix) == 21
    assert all(matrix[i][j] == matrix[j][i]
               for i in range(21) for j in range(i))
    assert squares_to_identity(matrix)


def _s4():
    return LARGER_GROUPS["S4"][0]()


@pytest.mark.parametrize("name", sorted(fourier.GROUPS) + ["S4"])
def test_matrix_square_equals_the_cyc_operator_square(name):
    gamma = _s4() if name == "S4" else fourier.GROUPS[name]()
    matrix = fourier.pairing_matrix(gamma, fourier.m_set(gamma))
    got, want = fourier.matrix_square(matrix), cyc_matrix_square(matrix)
    assert len(got) == len(want) == len(matrix)
    for i, row in enumerate(want):
        assert len(got[i]) == len(row)
        for j, value in enumerate(row):
            assert got[i][j] == value, (i, j)
            assert got[i][j] == (1 if i == j else 0), (i, j)


def test_matrix_square_of_mixed_conductors_and_denominators():
    matrix = (
        (Cyc.zeta(3) / 2, Cyc.rational(Fraction(1, 3)), Cyc(4, [1, 1]) / 5),
        (Cyc.zeta(4), Cyc.rational(7), Cyc.zeta(12, 5) / 6),
        (Cyc.rational(0), Cyc.zeta(6) / 4, Cyc(1, [Fraction(-2, 9)])),
    )
    got, want = fourier.matrix_square(matrix), cyc_matrix_square(matrix)
    assert all(got[i][j] == want[i][j] for i in range(3) for j in range(3))
    assert got[1][1] == want[1][1] != 0
    assert fourier.matrix_square(()) == ()
    assert fourier.matrix_square(((Cyc.zeta(5, 2) / 3,),)) \
        == ((Cyc.zeta(5, 4) / 9,),)


@pytest.mark.parametrize("name", ["s3", "z2xz2", "S4"])
def test_matrix_square_is_no_identity_once_an_entry_is_negated(name):
    gamma = _s4() if name == "S4" else fourier.GROUPS[name]()
    matrix = [list(row) for row in
              fourier.pairing_matrix(gamma, fourier.m_set(gamma))]
    i, j = next((i, j) for i, row in enumerate(matrix)
                for j, x in enumerate(row) if i != j and not x == 0)
    matrix[i][j] = -matrix[i][j]
    got = fourier.matrix_square(matrix)
    assert not squares_to_identity(matrix)
    assert not all(got[a][b] == (1 if a == b else 0)
                   for a in range(len(got)) for b in range(len(got)))


def test_matrix_square_refuses_a_matrix_that_is_not_square():
    with pytest.raises(PreconditionError, match="not square"):
        fourier.matrix_square(((Cyc.rational(1), Cyc.rational(0)),))


def test_a_value_one_held_as_two_terms_counts_as_a_one():
    # rotation by 60 degrees has trace zeta6 + zeta6^5 = 1 on the plane of
    # the hexagon, so that character sends two members to 1 and sorts
    # before the other degree-2 character, whose renders come first
    g2 = _dihedral(6)
    first, second = g2.characters(g2.elements)[4:]
    rotation = "1 2 3 4 5 0"
    assert first[rotation] == {1: 1, 5: 1}
    assert [sum(_value(g2, chi[a]) == 1 for a in g2.elements)
            for chi in (first, second)] == [2, 0]
    assert _value(g2, second[rotation]).render() \
        < _value(g2, first[rotation]).render()


def test_a_split_short_of_k_lines_or_off_degrees_is_an_internal_error(
        monkeypatch):
    s3 = fourier.group_s3()
    readback = fourier._readback
    with monkeypatch.context() as patch:
        patch.setattr(fourier, "_components", lambda step, u, p: [u])
        with pytest.raises(InternalConsistencyError,
                           match="^1 lines, 3 classes$"):
            s3.characters(s3.elements)
    monkeypatch.setattr(fourier, "_readback",
                        lambda *args: (1, readback(*args)[1]))
    with pytest.raises(InternalConsistencyError,
                       match="^sum of squared degrees != 6$"):
        s3.characters(s3.elements)
