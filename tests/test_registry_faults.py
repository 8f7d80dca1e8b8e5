"""Registry fault gate: each fault is a monkeypatch of the library code
checks exercise, never of a check, and the checks it names must FAIL
while every other check PASSes.  A fault that every check passes is a
gap, named in BLIND."""

from math import lcm

import pytest

from weylkit import (
    alcove,
    checks,
    costandard,
    fourier,
    lattices,
    laurent,
    linalg,
    pgl2,
    reps,
    weyl,
    witt,
)
from weylkit.cartan import cartan_datum
from weylkit.cyclotomic import Cyc
from weylkit.errors import NodeSubsetError
from weylkit.laurent import LaurentScalar
from reference_routes import children
from test_pgl2 import _dicts, _level_valuations


def _statuses():
    return {r[0]: r[2] for r in checks.run_checks()}


def _all_passing():
    return {c.check_id: "PASS" for c in checks.REGISTRY}


def _only_failing(*check_ids):
    return {c.check_id: "FAIL" if c.check_id in check_ids else "PASS"
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


def _add_returning_the_ghost_difference(x, y):
    return witt._new(x.p, x.m, (x.ghost - y.ghost) % x.p ** x.m)


def _mul_mod_one_power_less(x, y):
    """The ghost product mod p^(m-1) instead of p^m."""
    return witt._new(x.p, x.m, x.ghost * y.ghost % x.p ** (x.m - 1))


@pytest.mark.parametrize("name,fault", [
    ("_readout", _readout_without_correction),
    ("_ghost", _ghost_with_reversed_exponents),
    ("WittScalar.__add__", _add_returning_the_ghost_difference),
    ("WittScalar.__mul__", _mul_mod_one_power_less),
])
def test_a_witt_fault_fails_c9_only(monkeypatch, name, fault):
    monkeypatch.setattr(f"weylkit.witt.{name}", fault)
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


# -- C7, C8 and C9 faults, with the gaps they show ---------------------

_COLUMNS = pgl2._columns
_LEVEL_COUNT = pgl2._level_count


def _columns_with_a_minus_d(level, root, k):
    """The c-column of -b + t (a - d) + t^2 c instead of -b + t (d - a) +
    t^2 c at level 1, and at level 2, whose c-entry is built from level
    1's, its t- and s-terms (a - d) at k + 1 and (d - a) at k negated."""
    a, c, d = _COLUMNS(level, root, k)
    c = tuple(-w if i in (1, 3) else w for i, w in enumerate(c))
    return a, c, d


def _columns_without_t2_and_s2(level, root, k):
    """Every column with its t^2 and s^2 monomials dropped."""
    return tuple(tuple(0 if i in (2, 5) else w for i, w in enumerate(column))
                 for column in _COLUMNS(level, root, k))


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


def _lift_sum_without_its_first_term(p, xs, ys):
    """The Witt sum over Z with the i = 0 term of sum_{i<n} p^i
    s_i^(p^(n-i)) dropped: wrong from n = 1."""
    out = []
    for n in range(len(xs)):
        total = sum(p ** i * (x ** p ** (n - i) + y ** p ** (n - i))
                    for i, (x, y) in enumerate(zip(xs[:n + 1], ys)))
        total -= sum(p ** i * s ** p ** (n - i)
                     for i, s in enumerate(out) if i > 0)
        out.append(total // p ** n)
    return out


def _level_count_that_backtracks(root, level, q):
    """The level's count, and at level 2 also the level-1 I2 nodes below
    each built letter-1 child of the root, so a word may undo its last
    step: the letter-1 children of the level-1 nodes X themselves."""
    count = _LEVEL_COUNT(root, level, q)
    if level == 2:
        A, B, C, D = (LaurentScalar(q, X) for X in root)
        count += sum(_LEVEL_COUNT(_dicts(child), 1, q)
                     for child in children(((A, B), (C, D)), 1, q))
    return count


_ACT = pgl2.RecurrenceModule.act


def _act_fixing_same_parity(module, i, vec):
    """s_i b_n = +b_n instead of -b_n when n and i have the same
    parity."""
    out = list(_ACT(module, i, vec))
    for col in range(1, 2 * module.N):
        if (col - module.N - i) % 2 == 0:
            out[col] += 2 * vec[col]
    return tuple(out)


def _act_dropping_b1_from_s1_b0(module, i, vec):
    """s_1 b_0 = b_0 + b_-1, the b_1 term dropped."""
    out = list(_ACT(module, i, vec))
    if i == 1:
        out[module.N + 1] -= vec[module.N]
    return tuple(out)


def _walk_valuations(text, q):
    """The unbounded scan's valuations of the nodes of both levels below
    g and tau^-1 g tau."""
    g = laurent.parse_matrix(text, q)
    return [_level_valuations(root, level, q) for root in pgl2._roots(g)
            for level in (1, 2)]


def _walk_counts(text, q):
    """The I2 count of both levels below g and tau^-1 g tau."""
    g = laurent.parse_matrix(text, q)
    return [pgl2._level_count(root, level, q) for root in pgl2._roots(g)
            for level in (1, 2)]


# -- Weyl, alcove and reps faults --------------------------------------

A1 = cartan_datum("A1")
A2 = cartan_datum("A2")
C2 = cartan_datum("C2")
D4 = cartan_datum("D4")


_BUILD_LATTICE = alcove.CosetGeometry._build_lattice


def _lattice_from_doubled_rows(geo, rows):
    """L' from each displacement row times 2, so L' is 2L'."""
    return _BUILD_LATTICE(geo, {tuple(2 * x for x in row) for row in rows})


def _base_images(geo):
    """B_i e_k0 for each quotient index i: the blocks of its word applied
    to e_k0, its last letter first, as the search carries them."""
    images = []
    for word in geo.quotient_words:
        x = tuple(int(c == 0) for c in range(geo.dim + 1))
        for k in reversed(word):
            x = linalg.mat_vec(geo.generator_blocks[k], x)
        images.append(x)
    return images


def _lattice_from_rows_without_g(geo, rows):
    """L' from the rows (B_i e_k0 - B_t e_k0)[1:]: the displacements with
    G_k dropped."""
    base = _base_images(geo)
    return _BUILD_LATTICE(geo, {
        tuple(a - b for a, b in zip(base[i][1:], base[t][1:]))
        for perm in geo.quotient_left.values() for i, t in enumerate(perm)})


def _unit_lattice_coords(datum, J):
    """The L'-coordinates of each unit u-vector of a geometry built
    afresh: the inverse of its L'-basis matrix, by columns."""
    geo = alcove.CosetGeometry(datum, J)
    return [geo.lattice_coords(tuple(int(i == c) for i in range(geo.dim)))
            for c in range(geo.dim)]


def _permutes_simple_roots_read_off_mat(inv, J):
    """The coset-generator predicate on the columns of ss^-1's V-dagger
    matrix instead of its rows, the roots ss(alpha_j).  A qualifying ss is
    an involution, so these are the columns of ss.mat."""
    simple = {tuple(int(i == j) for i in range(inv.datum.n + 1)) for j in J}
    columns = tuple(zip(*inv.mat))
    return all(columns[j] in simple for j in J)


def _fixes_each_simple_root(inv, J):
    """The coset-generator predicate asking ss(alpha_j) = alpha_j for each
    j in J, so an ss that swaps two simple roots of J is refused."""
    return all(inv.mat[j] == tuple(int(i == j)
                                   for i in range(inv.datum.n + 1))
               for j in J)


def _coset_generators_or_refusal(datum, J):
    """The letters k min_coset_generators accepts, or its refusal."""
    try:
        return tuple(k for k, _ in weyl.min_coset_generators(datum, J))
    except NodeSubsetError as exc:
        return str(exc)


_TRACE_ROWS = reps._trace_rows


def _trace_rows_without_the_first_fixed_point(rep, M):
    """Each trace row of chi(x, w_i) with the term of the first fixed
    point of the monomial F_i dropped."""
    for terms in _TRACE_ROWS(rep, M):
        yield terms[1:]


def _act_without_the_reduction(geo, k, t):
    """The generator's integer action on t's numerators, not reduced
    modulo its order."""
    return alcove.TorusPoint(t.order, tuple(linalg.mat_vec(
        geo.generator_actions[k], t.nums)))


def _stabilizer_without_its_last_element(datum, J, t, S):
    """torus_stabilizer with the stabilizer's last element dropped
    before the lift comparison."""
    geo = alcove.geometry(datum, J)
    stabilizer = [i for i, point in enumerate(geo.orbit(t)) if point == t]
    gens = [g for k, g in geo.generators if k not in S]
    elements = {weyl.identity(datum)}
    frontier = list(elements)
    while frontier:
        current = frontier.pop()
        for g in gens:
            new = g * current
            if new not in elements:
                elements.add(new)
                frontier.append(new)
    images = {geo.quotient_index[linalg.mat_vec(geo.block(w.mat),
                                                geo.key_vector)]
              for w in elements}
    return len(images) == len(elements) and images == set(stabilizer[:-1])


_ORBIT = alcove.CosetGeometry.orbit


def _orbit_without_its_last_point(geo, t):
    return _ORBIT(geo, t)[:-1]


_BASE_VERTEX = alcove.level_one_point(A1, (1, 0))


def _base_vertex_lift_check():
    t = alcove.p_J(A1, (), _BASE_VERTEX)
    return alcove.torus_stabilizer(A1, (), t, alcove.cell_of(_BASE_VERTEX).S)


def _base_vertex_orbit():
    t = alcove.p_J(A1, (), _BASE_VERTEX)
    return alcove.geometry(A1, ()).orbit(t)


def _first_module_trace_rows():
    _, _, t, _, rep = next(reps.grid_modules(A1, (), 6))
    return list(reps._trace_rows(rep, t.order))


_OTHER_VERTEX = alcove.level_one_point(A1, (0, 1))


def _other_vertex_orbit():
    geo = alcove.geometry(A1, ())
    t = alcove.p_J(A1, (), _OTHER_VERTEX)
    return geo.orbit(t)


# -- C4, C5 and C11 faults ----------------------------------------------

_LAYER_LABELS = costandard.layer_labels
_PAIRING = fourier.pairing


def _layer_labels_with_sign_and_unit_swapped(data):
    """Each layer labelled by the other curated character."""
    swap = {"sign": "unit", "unit": "sign"}
    return tuple((a, swap[label]) for a, label in _LAYER_LABELS(data))


def _builtin_layer_labels():
    return costandard.layer_labels(costandard.BUILTIN_A1)


def _pairing_negated_on_the_sigma_one_diagonal(gamma, p, q):
    """-<p, p> for each pair p whose centralizer character is sigma = 1."""
    value = _PAIRING(gamma, p, q)
    return -value if p == q and p.sigma == 1 else value


def _z2_pairing_matrix():
    z2 = fourier.group_z2()
    return fourier.pairing_matrix(z2, fourier.m_set(z2))


_MATRIX_SQUARE = fourier.matrix_square


def _matrix_square_without_the_d2_scale(matrix):
    """Each entry of the square left D^2 times too large, D the lcm of
    the entries' denominators."""
    d = lcm(*(e.den for row in matrix for e in row))
    return tuple(tuple(e * (d * d) for e in row)
                 for row in _MATRIX_SQUARE(matrix))


def _matrix_square_at_s_minus_t(matrix):
    """The square with each product of a term at x^s and one at x^t added
    at x^(s - t) instead of x^(s + t)."""
    entries = [e for row in matrix for e in row]
    n = lcm(*(e.m for e in entries))
    d = lcm(*(e.den for e in entries))
    terms = [[[(s, c * (d // e.den)) for s, c in enumerate(e.promote(n).nums)
               if c] for e in row] for row in matrix]
    square = []
    for row in terms:
        line = []
        for column in zip(*terms):
            acc = [0] * n
            for a, b in zip(row, column):
                for s, x in a:
                    for t, y in b:
                        acc[s - t] += x * y
            line.append(Cyc(n, acc) / (d * d))
        square.append(tuple(line))
    return tuple(square)


def _z3_pairing_square():
    z3 = fourier.cyclic_group(3)
    return fourier.matrix_square(fourier.pairing_matrix(z3, fourier.m_set(z3)))


_READBACK = fourier._readback


def _readback_with_the_root_above_half(ratio, square, powers, tables, p):
    """chi(1) taken as the other square root of `square`, p - d, so every
    value chi(x^j) = chi(1) ratio and every multiplicity is negated."""
    d, rows = _READBACK(ratio, square, powers, tables, p)
    return p - d, [[-m % p for m in row] for row in rows]


def _readback_of_exponent_minus_e(ratio, square, powers, tables, p):
    """Each multiplicity m_e read as m_-e, the eigenvalue exponent negated."""
    d, rows = _READBACK(ratio, square, powers, tables, p)
    return d, [row[:1] + row[:0:-1] for row in rows]


def _z3_readback():
    """_readback on the character c_j -> 2^j mod 7 of Z/3 (2 has order 3
    mod 7): degree 1, and c1 and c2 each of one eigenvalue."""
    table = [[pow(2, -j * e, 7) * pow(3, -1, 7) % 7 for j in range(3)]
             for e in range(3)]
    return fourier._readback([1, 2, 4], 1, [[0], [0, 1, 2], [0, 2, 1]],
                             [[[1]], table, table], 7)


@pytest.mark.parametrize("build", [
    lambda: fourier.cyclic_group(3), lambda: fourier.cyclic_group(12),
    fourier.group_s3])
def test_the_minus_e_readback_is_an_equivalent_mutant(monkeypatch, build):
    # it conjugates every character, and conjugation permutes the table
    gamma = build()
    want = gamma.characters(gamma.elements)
    monkeypatch.setattr(fourier, "_readback", _readback_of_exponent_minus_e)
    assert gamma.characters(gamma.elements) == want


def _bracket_with_e_f_twice_h():
    """[e, f] = 2h and [f, e] = -2h instead of h and -h."""
    rows = [list(row) for row in lattices.BRACKET]
    rows[0][2], rows[2][0] = (0, 2, 0), (0, -2, 0)
    return tuple(tuple(row) for row in rows)


def _kernel_closed_on_u_and_u(phi, q):
    """The closure test of ker phi with phi([u, u]) in place of
    phi([u, v]): a bracket of a vector with itself is 0, so every plane
    passes."""
    lead = phi.index(1)
    j = next(j for j in range(lattices.RANK) if j != lead)
    u = tuple(-phi[j] if i == lead else int(i == j)
              for i in range(lattices.RANK))
    return sum(a * b for a, b in zip(phi, lattices.bracket(u, u))) % q == 0


def _sharp_without_the_reduction_above_the_pivots(z):
    """The dual's rows divided by their units, each entry taken modulo
    p^(2n) but not reduced below the pivot under it."""
    (d0, x01, x02), (_, d1, x12), (_, _, d2) = z.basis
    scale = z.p ** (2 * z.n)
    exact = lattices._exact
    y22 = exact(scale, d2)
    y21 = exact(-x12 * y22, d1)
    y20 = exact(-x01 * y21 - x02 * y22, d0)
    y11 = exact(scale, d1)
    y10 = exact(-x01 * y11, d0)
    y00 = exact(scale, d0)
    return lattices.LatticeSubmodule(p=z.p, n=z.n, basis=(
        (y22, y21 * ((scale + 1) // 2) % scale, y20 % scale),
        (0, y11, 2 * y10 % scale),
        (0, 0, y00)))


_TREE_POINT = lattices.LatticeSubmodule(p=3, n=1, basis=(
    (1, 1, 8), (0, 3, 3), (0, 0, 9)))


# name: ((module, attribute, fault) for each patch, the checks the fault
# should fail, and a probe whose value it changes, so it is no
# equivalent mutant)
FAULTS = {
    "pgl2 walk backtracks": (
        [(pgl2, "_level_count", _level_count_that_backtracks)], {"C7"},
        lambda: _walk_counts("0,1;e,0", 3)),
    "pgl2 scan c-entry a - d": (
        [(pgl2, "_columns", _columns_with_a_minus_d)], {"C7"},
        lambda: _walk_valuations("1+e,e;e2,1", 3)),
    "pgl2 scan drops t^2 and s^2": (
        [(pgl2, "_columns", _columns_without_t2_and_s2)], {"C7"},
        lambda: _walk_valuations("1+e,1;e2,1", 3)),
    "pgl2.RecurrenceModule fixes same-parity b_n": (
        [(pgl2.RecurrenceModule, "act", _act_fixing_same_parity)],
        {"C8"}, lambda: pgl2.RecurrenceModule(2).action_matrix(1)),
    "pgl2.RecurrenceModule drops b_1 from s_1 b_0": (
        [(pgl2.RecurrenceModule, "act", _act_dropping_b1_from_s1_b0)],
        {"C8"}, lambda: pgl2.RecurrenceModule(2).action_matrix(1)),
    "witt._readout exponent 1 after the first term": (
        [(witt, "_readout", _readout_with_exponent_one_after_the_first_term)],
        {"C9"}, lambda: witt.oracle_check(3, 3)),
    "witt successor walk drops the i = 0 term": (
        [(witt, "_lift_sum", _lift_sum_without_its_first_term)], {"C9"},
        lambda: witt._lift_sum(3, (2, 0), (1, 0))),
    "weyl coset generators read ss.mat's columns": (
        [(weyl, "_permutes_simple_roots",
          _permutes_simple_roots_read_off_mat)], {"C1"},
        lambda: _coset_generators_or_refusal(C2, (1,))),
    "weyl coset generators require ss to fix each simple root of J": (
        [(weyl, "_permutes_simple_roots", _fixes_each_simple_root)],
        {"C1"}, lambda: _coset_generators_or_refusal(D4, (0, 1))),
    "reps.character_values drops a trace term": (
        [(reps, "_trace_rows", _trace_rows_without_the_first_fixed_point)],
        {"C3"}, _first_module_trace_rows),
    "costandard.layer_labels swaps sign and unit": (
        [(costandard, "layer_labels",
          _layer_labels_with_sign_and_unit_swapped)], {"C4"},
        _builtin_layer_labels),
    "fourier.pairing negates the sigma = 1 diagonal": (
        [(fourier, "pairing", _pairing_negated_on_the_sigma_one_diagonal)],
        {"C5"}, _z2_pairing_matrix),
    "fourier.matrix_square drops the D^2 scale": (
        [(fourier, "matrix_square", _matrix_square_without_the_d2_scale)],
        {"C5"}, lambda: fourier.matrix_square(_z2_pairing_matrix())),
    "fourier.matrix_square adds x^s x^t at x^(s - t)": (
        [(fourier, "matrix_square", _matrix_square_at_s_minus_t)],
        {"C5"}, _z3_pairing_square),
    "fourier._readback takes the degree root above p/2": (
        [(fourier, "_readback", _readback_with_the_root_above_half)], {"C5"},
        _z3_readback),
    "fourier._readback reads the eigenvalue exponent as -e": (
        [(fourier, "_readback", _readback_of_exponent_minus_e)], {"C5"},
        _z3_readback),
    "lattices.BRACKET with [e, f] = 2h": (
        [(lattices, "BRACKET", _bracket_with_e_f_twice_h())], {"C10", "C11"},
        lattices.killing_gram),
    "lattices._kernel_closed reads [u, u]": (
        [(lattices, "_kernel_closed", _kernel_closed_on_u_and_u)], {"C11"},
        lambda: lattices.borel_fiber_count(3)),
    "lattices.sharp skips the reduction above the pivots": (
        [(lattices, "sharp", _sharp_without_the_reduction_above_the_pivots)],
        {"C10"}, lambda: lattices.sharp(_TREE_POINT)),
    "alcove.torus_stabilizer drops an element": (
        [(alcove, "torus_stabilizer", _stabilizer_without_its_last_element)],
        {"C2"}, _base_vertex_lift_check),
    "alcove Schreier translations doubled": (
        [(alcove.CosetGeometry, "_build_lattice",
          _lattice_from_doubled_rows)], {"C2", "C3"},
        lambda: _unit_lattice_coords(A1, ())),
    "alcove Schreier cocycle drops G_k": (
        [(alcove.CosetGeometry, "_build_lattice",
          _lattice_from_rows_without_g)], {"C2", "C3"},
        lambda: _unit_lattice_coords(D4, (0, 1))),
    "alcove.CosetGeometry.act skips the reduction mod the order": (
        [(alcove.CosetGeometry, "act", _act_without_the_reduction)],
        {"C2", "C3"}, _other_vertex_orbit),
    "alcove.CosetGeometry.orbit drops its last point": (
        [(alcove.CosetGeometry, "orbit", _orbit_without_its_last_point)],
        {"C2", "C3"}, _base_vertex_orbit),
}

# The faults every check passes.  C7 counts 2 on each of its 42 exact
# elements, so it sees a walk fault only when the fault puts a node in
# I2, as the backtracking walk does at level 2; the a - d fault (on the
# c-columns of both levels) and the fault that drops the t^2 and s^2
# monomials change no column the scan reads on an I2 root, each a
# constant that leaves them alone.  C9 runs the
# oracle only at m = 2.  The checks build coset geometries only for A1
# with J = (), where the displacement rows without G_k span the same L';
# D4/{0, 1}, D5/{0, 1} and D5/{0, 1, 2} see it.  The checks build coset
# generators only for J = () and J = (1,), where no ss_k can move a
# simple root of J to another, so a predicate that asks ss_k to fix each
# one is right there.  F4/{3, 4} and D4/{0, 1} see it, since each ss_2 swaps the two
# simple roots of J; ROADMAP item 16's finite-bond C1 rows close it.
# Reading m_e as m_-e reads each character through z^-1, another root of
# order N mod p, so each comes out as its complex conjugate; the
# irreducibles are closed under conjugation, so the sorted table of every
# group is the same, and no input to `characters` can show this fault.
# C5 squares only the S3 matrix, whose entries are rational: each is one
# term at x^0, where s + t = s - t, so placing products at x^(s - t) is
# seen only on a matrix with an irrational entry, as Z/3's.
BLIND = {
    "pgl2 scan c-entry a - d",
    "pgl2 scan drops t^2 and s^2",
    "witt._readout exponent 1 after the first term",
    "alcove Schreier cocycle drops G_k",
    "weyl coset generators require ss to fix each simple root of J",
    "fourier._readback reads the eigenvalue exponent as -e",
    "fourier.matrix_square adds x^s x^t at x^(s - t)",
}


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_each_fault_changes_what_it_patches(monkeypatch, name):
    # each patch of a fault changes the probe on its own
    patches, _, probe = FAULTS[name]
    want = probe()
    for module, attribute, fault in patches:
        with monkeypatch.context() as patch:
            patch.setattr(module, attribute, fault)
            assert probe() != want, attribute


def test_the_blind_set_is_the_faults_every_check_passes(monkeypatch):
    gaps = set()
    for name, (patches, check_ids, _) in FAULTS.items():
        with monkeypatch.context() as patch:
            # each faulted run builds its coset geometry afresh, and no
            # geometry built under a fault outlives it
            patch.setattr(alcove, "_geometry_cache", {})
            for module, attribute, fault in patches:
                patch.setattr(module, attribute, fault)
            statuses = _statuses()
        if statuses == _all_passing():
            gaps.add(name)
        else:
            assert statuses == _only_failing(*check_ids), name
    assert gaps == BLIND
