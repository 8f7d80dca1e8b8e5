import itertools
import random
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from weylkit import lattices, linalg
from weylkit.errors import BudgetError, PreconditionError, StructuralError
from reference_routes import hnf_by_euclid, sharp_by_canonical


def test_datum_self_checks():
    assert lattices.check_datum(3)
    assert lattices.check_datum(5)


def test_datum_rejects_characteristic_two():
    with pytest.raises(PreconditionError):
        lattices.check_datum(2)


def test_gram_matrix_matches_structure_constants():
    assert lattices.killing_gram() == lattices.GRAM


def _killing_gram_by_products():
    """tr(ad(b_i) ad(b_j)) from the ad matrices and their products."""
    mats = [tuple(tuple(lattices.BRACKET[i][j][k] for j in range(3))
                  for k in range(3)) for i in range(3)]
    return tuple(tuple(sum(linalg.mat_mul(x, y)[k][k] for k in range(3))
                       for y in mats) for x in mats)


def test_killing_gram_is_the_trace_of_the_ad_products(monkeypatch):
    # On random integer structure constants, Lie or not, the traces read
    # entry by entry are those of the multiplied-out ad matrices.
    rng = random.Random(5)
    for _ in range(50):
        table = tuple(tuple(tuple(rng.randrange(-3, 4) for _ in range(3))
                            for _ in range(3)) for _ in range(3))
        monkeypatch.setattr(lattices, "BRACKET", table)
        assert lattices.killing_gram() == _killing_gram_by_products()


@pytest.mark.parametrize("i, j, k, value", [
    (2, 0, 1, -2),   # [f, e] = -2h
    (1, 0, 0, 3),    # [h, e] = 3e
    (0, 2, 1, 0),    # [e, f] = 0
])
def test_a_corrupted_bracket_entry_fails_the_datum_check(
        monkeypatch, i, j, k, value):
    table = [[list(v) for v in row] for row in lattices.BRACKET]
    table[i][j][k] = value
    monkeypatch.setattr(lattices, "BRACKET", table)
    with pytest.raises(StructuralError, match="stored Gram matrix"):
        lattices.check_datum(3)


def test_bracket_antisymmetry_and_jacobi():
    basis = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    for u in basis:
        for v in basis:
            buv = lattices.bracket(u, v)
            bvu = lattices.bracket(v, u)
            assert buv == tuple(-x for x in bvu)
            for w in basis:
                jac = tuple(
                    a + b + c for a, b, c in zip(
                        lattices.bracket(lattices.bracket(u, v), w),
                        lattices.bracket(lattices.bracket(v, w), u),
                        lattices.bracket(lattices.bracket(w, u), v)))
                assert jac == (0, 0, 0)


def test_pairing_invariance():
    basis = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    for u in basis:
        for v in basis:
            for w in basis:
                assert (lattices.pairing(lattices.bracket(u, v), w)
                        == lattices.pairing(u, lattices.bracket(v, w)))


def test_base_lattice_is_a_fixed_point_of_sharp():
    for p in (3, 5):
        base = lattices.canonical(p, 1, [
            (p, 0, 0), (0, p, 0), (0, 0, p)])
        assert lattices.sharp(base).basis == base.basis
        assert lattices.d_invariant(base) == 3


def test_sharp_rejects_a_dual_outside_the_window():
    # p^3 Z + Z + Z does not contain p^2 Z^3, so its dual needs p^-1
    z = lattices.LatticeSubmodule(p=3, n=1, basis=(
        (27, 0, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(PreconditionError):
        lattices.sharp(z)


def test_submodules_are_equal_and_hashed_by_p_n_and_basis():
    basis = ((1, 1, 8), (0, 3, 3), (0, 0, 9))
    z = lattices.LatticeSubmodule(p=3, n=1, basis=basis)
    same = lattices.LatticeSubmodule(3, 1, tuple(map(tuple, basis)))
    assert z == same and not z != same
    assert hash(z) == hash(same) == hash((3, 1, basis))
    assert len({z, same}) == 1
    others = [lattices.LatticeSubmodule(p=5, n=1, basis=basis),
              lattices.LatticeSubmodule(p=3, n=2, basis=basis),
              lattices.LatticeSubmodule(p=3, n=1, basis=(
                  (1, 0, 8), (0, 3, 3), (0, 0, 9)))]
    assert all(z != other for other in others)
    assert len({z, *others}) == 4
    assert z != (3, 1, basis) and z != basis
    assert (z.p, z.n, z.basis, z.modulus) == (3, 1, basis, 9)
    assert repr(z) == ("LatticeSubmodule(p=3, n=1,"
                       " basis=((1, 1, 8), (0, 3, 3), (0, 0, 9)))")
    assert lattices.sharp(z) == z  # a tree point, fixed by its dual
    with pytest.raises(AttributeError):
        z.extra = 0  # slotted: no field beyond p, n and basis


def test_sharp_is_an_involution_on_enumerated_points():
    # every candidate, not only the fixed points of sharp
    for z in lattices.candidates(3, 1):
        assert lattices.sharp(lattices.sharp(z)).basis == z.basis


def test_self_dual_points_are_fixed_by_sharp():
    for z in lattices.enumerate_isotropic(3, 1):
        assert lattices.sharp(z).basis == z.basis


def test_d_duality():
    for p in (3, 5):
        for z in lattices.candidates(p, 1):
            assert (lattices.d_invariant(z)
                    + lattices.d_invariant(lattices.sharp(z))) == 6


def test_counts_match_at_small_sizes():
    for p, candidates, expected in ((3, 445, 5), (5, 2607, 7)):
        assert sum(1 for _ in lattices._hermite_candidates(p, 1)) == candidates
        points, direct = lattices.enumerate_X_n(p, 1)
        assert len(points) == expected
        assert direct == expected


def test_routes_agree_at_n2():
    p, n = 3, 2
    assert sum(1 for _ in lattices._hermite_candidates(p, n)) == 67969
    points, direct = lattices.enumerate_X_n(p, n)
    assert len(points) == direct == 17
    # the radius-n ball of the (p+1)-regular Bruhat-Tits tree
    assert len(points) == 1 + (p + 1) * (p ** n - 1) // (p - 1)


def test_budget_bounds_the_candidates_formed(monkeypatch):
    # every scan reads SCAN_BUDGET when it starts: (3, 1) has 445
    # candidates
    monkeypatch.setattr(lattices, "SCAN_BUDGET", 445)
    points, direct = lattices.scan_points(3, 1)
    assert len(points) == direct == 5
    monkeypatch.setattr(lattices, "SCAN_BUDGET", 444)
    for scan in (lattices.enumerate_self_dual, lattices.enumerate_isotropic,
                 lattices.scan_points):
        with pytest.raises(BudgetError):
            scan(3, 1)
    monkeypatch.undo()
    # (5, 2) has 2,890,693 candidates: the scan yields exactly
    # SCAN_BUDGET of them, then refuses
    formed = 0
    with pytest.raises(BudgetError):
        for _ in lattices._scan(5, 2):
            formed += 1
    assert formed == lattices.SCAN_BUDGET == 200000


def _ball_size(p, n):
    """Vertices within distance n of a vertex of the (p+1)-regular tree."""
    return 1 + (p + 1) * (p ** n - 1) // (p - 1)


@pytest.mark.parametrize("p, n", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_tree_points_equal_the_scanned_points(p, n):
    tree = [z.basis for z in lattices.tree_points(p, n)]
    assert tree == [z.basis for z in lattices.scan_points(p, n)[0]]
    assert tree == [z.basis for z in lattices.enumerate_X_n(p, n)[0]]
    assert len(tree) == _ball_size(p, n)


def test_tree_reaches_sizes_beyond_the_scan_budget():
    for p, n in ((5, 2), (3, 3)):
        points, direct = lattices.enumerate_X_n(p, n)
        assert len(points) == direct == _ball_size(p, n)


def test_budget_bounds_the_tree_vertices_formed(monkeypatch):
    ball = _ball_size(3, 2)
    monkeypatch.setattr(lattices, "VERTEX_BUDGET", ball)
    points, direct = lattices.enumerate_X_n(3, 2)
    assert len(points) == direct == ball
    monkeypatch.setattr(lattices, "VERTEX_BUDGET", ball - 1)
    with pytest.raises(BudgetError):
        lattices.enumerate_X_n(3, 2)
    monkeypatch.undo()
    # refused before the walk: the ball of radius 9 holds 3^9 vertices
    # at distance 9 alone
    with pytest.raises(BudgetError, match=r"3\^9"):
        lattices.enumerate_X_n(3, 9)


def test_the_tree_ball_is_charged_before_any_vertex(monkeypatch):
    # 3^8 = 6,561 vertices at distance 8 alone fit VERTEX_BUDGET, but the
    # ball of 13,121 does not, so no vertex is formed
    def no_vertex(p, n, rows):
        raise AssertionError("a tree vertex was formed")

    monkeypatch.setattr(lattices, "canonical", no_vertex)
    with pytest.raises(BudgetError, match=r"1 \+ 4\(3\^8 - 1\)/2 vertices"):
        lattices.enumerate_X_n(3, 8)


def _scaled_up(canonical):
    # p Lam no longer contains p^(2n) Z^3, so the canonical form adds it
    return lambda p, n, rows: canonical(
        p, n, [tuple(p * x for x in row) for row in rows])


def _base_only(canonical):
    return lambda p, n, rows: canonical(
        p, n, [tuple(p ** n * (i == j) for j in range(3)) for i in range(3)])


@pytest.mark.parametrize("fault, message", [
    (_scaled_up, "leaves the truncation window"),
    (_base_only, "same lattice"),
])
def test_tree_walk_self_checks_can_fail(monkeypatch, fault, message):
    monkeypatch.setattr(lattices, "canonical", fault(lattices.canonical))
    with pytest.raises(StructuralError, match=message):
        lattices.tree_points(3, 1)


def test_candidates_are_already_canonical():
    for rows in lattices._hermite_candidates(3, 1):
        assert lattices.canonical(3, 1, rows).basis == rows


def _in_lattice(rows, v, mult=1):
    """Whether v lies in the Z-span of mult * rows, for an upper-triangular
    integer basis with nonzero diagonal: the back-substitution solving
    x (mult B) = v must stay integral."""
    coeffs = []
    for j in range(3):
        rest = v[j]
        for i, c in enumerate(coeffs):
            rest -= mult * c * rows[i][j]
        q, r = divmod(rest, mult * rows[j][j])
        if r:
            return False
        coeffs.append(q)
    return True


def _brute_candidates(p, n):
    """Reference stream: every upper-triangular matrix with p-power
    diagonal and off-diagonal entries below the pivot under them, in
    product order, kept when it contains p^(2n) Z^3."""
    scale = p ** (2 * n)
    targets = [tuple(scale * (i == j) for j in range(3)) for i in range(3)]
    for a in itertools.product(range(2 * n + 1), repeat=3):
        d0, d1, d2 = (p ** e for e in a)
        for x01, x02, x12 in itertools.product(range(d1), range(d2),
                                               range(d2)):
            rows = ((d0, x01, x02), (0, d1, x12), (0, 0, d2))
            if all(_in_lattice(rows, t) for t in targets):
                yield rows


@pytest.mark.parametrize("p", [3, 5, 7])
def test_congruence_stream_matches_the_brute_stream(p):
    assert list(lattices._hermite_candidates(p, 1)) == list(
        _brute_candidates(p, 1))


def _d_by_smith(z):
    d = 0
    for f in linalg.snf_diag(z.basis):
        k = 0
        while f % z.p == 0:
            f //= z.p
            k += 1
        assert f == 1
        d += 2 * z.n - k
    return d


def test_diagonal_d_matches_the_smith_form():
    for p in (3, 5):
        for z in lattices.candidates(p, 1):
            assert lattices.d_invariant(z) == _d_by_smith(z)


def test_d_rejects_an_index_prime_to_p():
    z = lattices.LatticeSubmodule(p=3, n=1, basis=(
        (2, 0, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(StructuralError):
        lattices.d_invariant(z)


def _hnf_canonical(p, n, rows):
    """The Hermite basis of rows and p^(2n) Z^3 by the Euclid route, from
    the rows as they are, not reduced modulo p^(2n)."""
    scale = p ** (2 * n)
    return hnf_by_euclid(tuple(rows) + tuple(
        tuple(scale * (i == j) for j in range(3)) for i in range(3)))


def test_canonical_matches_the_euclid_route_on_every_tree_vertex(
        monkeypatch):
    canonical = lattices.canonical
    seen = []

    def recorded(p, n, rows):
        z = canonical(p, n, rows)
        assert z.basis == _hnf_canonical(p, n, rows)
        seen.append(z.basis)
        return z

    monkeypatch.setattr(lattices, "canonical", recorded)
    for p, n in ((3, 1), (5, 1), (3, 2)):
        lattices.tree_points(p, n)
    # the balls hold 1 + 4, 1 + 6 and 1 + 4 + 12 vertices
    assert len(seen) == 5 + 7 + 17


def _sharp_by_cofactors(z, gram=lattices.GRAM):
    """Reference dual: columns of p^(2n) (B gram)^-1 from the general 3x3
    cofactors, p-unit denominators reduced modulo p^(4n), canonicalised
    by the general Hermite form."""
    m = linalg.mat_mul(z.basis, gram)
    cof = [[m[(i + 1) % 3][(j + 1) % 3] * m[(i + 2) % 3][(j + 2) % 3]
            - m[(i + 1) % 3][(j + 2) % 3] * m[(i + 2) % 3][(j + 1) % 3]
            for j in range(3)] for i in range(3)]
    det = sum(m[0][j] * cof[0][j] for j in range(3))
    scale = z.p ** (2 * z.n)
    mod = scale * scale
    rows = []
    for cof_row in cof:
        row = []
        for c in cof_row:
            g = gcd(scale * c, det)
            num, den = scale * c // g, det // g
            if den < 0:
                num, den = -num, -den
            if den % z.p == 0:
                raise PreconditionError("dual leaves the window")
            row.append(num * pow(den, -1, mod) % mod)
        rows.append(row)
    return lattices.LatticeSubmodule(
        p=z.p, n=z.n, basis=_hnf_canonical(z.p, z.n, rows))


def test_triangular_sharp_matches_the_cofactor_route():
    for p in (3, 5):
        for z in lattices.candidates(p, 1):
            assert lattices.sharp(z).basis == _sharp_by_cofactors(z).basis


def _dual_or_refusal(route, z):
    try:
        return route(z).basis
    except PreconditionError as exc:
        return str(exc)


def test_sharp_matches_the_route_through_canonical():
    # every candidate at (3, 1), (5, 1) and (7, 1), and a seeded sample
    # of the 67,969 at (3, 2)
    sample = random.Random(0).sample(list(lattices.candidates(3, 2)), 4000)
    for z in itertools.chain(*(lattices.candidates(p, 1) for p in (3, 5, 7)),
                             sample):
        assert lattices.sharp(z).basis == sharp_by_canonical(z).basis


@st.composite
def triangular_bases(draw):
    """An upper-triangular basis with p-power diagonal and each entry in
    [0, pivot below it).  Exponents run to 2n + 1, and most entries break
    the congruences for containing p^(2n) Z^3, so many duals leave the
    window."""
    p = draw(st.sampled_from((3, 5, 7)))
    n = draw(st.integers(1, 2))
    d0, d1, d2 = (p ** draw(st.integers(0, 2 * n + 1)) for _ in range(3))
    x01, x02, x12 = (draw(st.integers(0, pivot - 1)) for pivot in (d1, d2, d2))
    return lattices.LatticeSubmodule(p=p, n=n, basis=(
        (d0, x01, x02), (0, d1, x12), (0, 0, d2)))


@given(triangular_bases())
@settings(max_examples=300, deadline=None)
def test_sharp_matches_the_route_through_canonical_or_refuses_with_it(z):
    assert (_dual_or_refusal(lattices.sharp, z)
            == _dual_or_refusal(sharp_by_canonical, z))


@st.composite
def generator_sets(draw):
    p = draw(st.sampled_from((3, 5, 7)))
    n = draw(st.integers(1, 2))
    rows = draw(st.lists(
        st.tuples(*[st.integers(-3 * p ** 4, 3 * p ** 4)] * 3), max_size=5))
    return p, n, rows


@given(generator_sets())
@settings(max_examples=300, deadline=None)
def test_modular_canonical_matches_the_general_hnf(case):
    p, n, rows = case
    assert lattices.canonical(p, n, rows).basis == _hnf_canonical(p, n, rows)


def _in_lattice_by_inverse(rows, v, mult):
    """Reference membership test: the coordinates v B^-1 / mult are
    integers."""
    inv = linalg.mat_inv(rows)
    coords = linalg.mat_vec(tuple(zip(*inv)), v)
    return all((c / mult).denominator == 1 for c in coords)


@st.composite
def membership_queries(draw):
    """(rows, v, mult): an upper-triangular basis with p-power diagonal,
    and a vector that is in the Z-span of mult * rows about half the
    time."""
    p = draw(st.sampled_from((3, 5, 7)))
    diag = [p ** draw(st.integers(0, 3)) for _ in range(3)]
    rows = tuple(
        tuple(diag[i] if i == j else
              draw(st.integers(-50, 50)) if j > i else 0
              for j in range(3))
        for i in range(3))
    mult = p ** draw(st.integers(0, 2))
    if draw(st.booleans()):
        x = [draw(st.integers(-20, 20)) for _ in range(3)]
        v = tuple(mult * sum(x[i] * rows[i][j] for i in range(3))
                  for j in range(3))
    else:
        v = tuple(draw(st.integers(-2000, 2000)) for _ in range(3))
    return rows, v, mult


@given(membership_queries())
@settings(max_examples=300, deadline=None)
def test_integer_membership_matches_fraction_inverse(query):
    rows, v, mult = query
    assert (_in_lattice(rows, v, mult)
            == _in_lattice_by_inverse(rows, v, mult))


def _det(u, v, w):
    return (u[0] * (v[1] * w[2] - v[2] * w[1])
            - u[1] * (v[0] * w[2] - v[2] * w[0])
            + u[2] * (v[0] * w[1] - v[1] * w[0]))


_vectors = st.tuples(*[st.integers(-10 ** 6, 10 ** 6)] * 3)


@given(_vectors, _vectors, _vectors)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_the_trilinear_form_is_minus_eight_times_the_determinant(u, v, w):
    # lemma (a) of the lattices docstring: K([u, v], w) is alternating
    assert (lattices.pairing(lattices.bracket(u, v), w)
            == -8 * _det(u, v, w))


def _bracket_closed(z):
    """[L, L] <= L for L = p^-n Lam: every [u, v] of basis rows lies in
    p^n Lam."""
    return all(_in_lattice(z.basis, lattices.bracket(u, v), z.p ** z.n)
               for u in z.basis for v in z.basis)


@pytest.mark.parametrize("p, n", [(3, 1), (5, 1), (3, 2)])
def test_the_self_dual_candidates_are_the_bracket_closed_tree_points(p, n):
    # lemma (b) of the lattices docstring, on the direct route alone
    scanned = lattices.enumerate_self_dual(p, n)
    assert ([z.basis for z in scanned]
            == [z.basis for z in lattices.tree_points(p, n)])
    for z in scanned:
        assert _bracket_closed(z)
        assert abs(_det(*z.basis)) == p ** (3 * n)


def test_the_bracket_closure_test_can_fail():
    # Z 9e + Z h + Z f at (3, 1) is not self-dual, and [h, f] = -2f is
    # not in 3 Lam
    z = lattices.canonical(3, 1, [(9, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert not _bracket_closed(z)


def test_routes_agree_at_p7():
    points, direct = lattices.enumerate_X_n(7, 1)
    assert direct == len(points)


def test_every_isotropic_point_is_lie_closed_at_small_sizes():
    for p in (3, 5):
        for z in lattices.enumerate_isotropic(p, 1):
            assert lattices.is_lie_closed(z)


def test_lie_closure_requires_isotropy():
    z = lattices.canonical(3, 1, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    if not lattices.is_self_dual_isotropic(z):
        with pytest.raises(PreconditionError):
            lattices.is_lie_closed(z)


def test_borel_fiber_counts():
    assert lattices.borel_fiber_count(3) == 4
    assert lattices.borel_fiber_count(5) == 6
    assert lattices.borel_fiber_count(7) == 8
    assert lattices.borel_fiber_count(11) == 12
    with pytest.raises(PreconditionError):
        lattices.borel_fiber_count(2)
