"""Registry fault gate: each fault is a monkeypatch of the library code
checks exercise, never of a check, and the checks it names must FAIL
while every other check PASSes.  A fault that every check passes is a
gap, named in BLIND."""

import itertools

import pytest

from weylkit import alcove, checks, laurent, pgl2, reps, weyl, witt
from weylkit.cartan import cartan_datum
from weylkit.cli import SuiteConfig
from weylkit.cyclotomic import Cyc

CONFIG = SuiteConfig()


def _statuses():
    return {r[0]: r[2] for r in checks.run_checks(CONFIG)}


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
_CHILD_BRANCHES = pgl2._child_branches
_ENTRY_PAIRS = pgl2._entry_pairs


def _pieces_with_a_minus_d(C, letter):
    """The letter-1 c-piece -b + t (a - d) + t^2 c instead of
    -b + t (d - a) + t^2 c."""
    if letter != 1:
        return _PIECES(C, letter)
    (a, b), (c, d) = C
    return ((d, c, None), (-c, None, None), (-b, a - d, c), (a, -c, None))


def _child_branches_with_a_minus_d(C, letter, pieces, q):
    """The same fault on the child route: a letter-0 child's letter-1
    c-piece with x1 = (d - a) - t (eb + eb), the child's a - d, instead
    of (a - d) + t (eb + eb), its d - a."""
    branches = _CHILD_BRANCHES(C, letter, pieces, q)
    if letter != 0:
        return branches
    return [(pb, (x0, -x1, x2), ad) for pb, (x0, x1, x2), ad in branches]


def _entry_pairs_without_x2(piece, q):
    """The pairs of x0 + t x1, dropping the t^2 term."""
    x0, x1, _ = piece
    return _ENTRY_PAIRS((x0, x1, None), q)


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
    """The walk with both letters below every node, so a word may undo
    its last step.  The child route forms only the next letter's pieces,
    so each level's branches come from its built matrices."""
    q = g[0][0].q
    frontier = [g]
    while True:
        pieces = [pgl2._pieces(conj, letter)
                  for conj in frontier for letter in (0, 1)]
        yield [(pb, pc, lambda pa=pa, pd=pd: (pa, pd))
               for pa, pb, pc, pd in pieces]
        frontier = [child for p in pieces for child in pgl2._children(p, q)]


def _walk_valuations(text, q, levels=3):
    """The entry valuations of the children of the first levels of the
    walk's branches, every a/d thunk called."""
    g = laurent.parse_matrix(text, q)
    out = []
    for _, branches in zip(range(levels), pgl2._walk(g)):
        level = []
        for pb, pc, ad in branches:
            pa, pd = ad()
            level.extend(zip(*(pgl2._entry_pairs(p, q)
                               for p in (pa, pb, pc, pd))))
        out.append(level)
    return out


# -- Weyl, alcove and reps faults --------------------------------------

A1 = cartan_datum("A1")
A2 = cartan_datum("A2")


def _inverse_with_swapped_transposes(w):
    """(mat^T, dual^T) instead of (dual^T, mat^T): right only when w is
    an involution."""
    return weyl.WeylElement(w.datum, tuple(zip(*w.mat)),
                            tuple(zip(*w.dual)))


def _inverse_that_is_itself(w):
    return w


def _character_values_without_the_first_fixed_point(rep, t_order):
    """Each trace chi(x, w_i) with the term of the first fixed point of
    the monomial F_i dropped."""
    for x in itertools.product(range(max(1, t_order)),
                               repeat=len(rep.lattice_diagonals)):
        lat = rep.lattice_image(x)
        for i in range(rep.quotient.size):
            perm, scalars = rep.finite_image(i)
            fixed = [pos for pos in range(rep.dimension) if perm[pos] == pos]
            yield sum((lat[pos] * scalars[pos] for pos in fixed[1:]),
                      Cyc.rational(0))


def _stabilizer_without_its_last_element(datum, J, t, S=None):
    """torus_stabilizer with its last element dropped before the lift
    comparison."""
    geo = alcove.geometry(datum, J)
    stabilizer = tuple(i for i in range(len(geo.quotient))
                       if geo.torus_act(i, t).values == t.values)[:-1]
    if S is None:
        return alcove.StabilizerResult(elements=stabilizer, lift_ok=True)
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
    images = {geo.quotient_index[geo.restriction(w.mat)] for w in elements}
    return alcove.StabilizerResult(
        elements=stabilizer,
        lift_ok=len(images) == len(elements) and images == set(stabilizer))


def _first_module_characters():
    _, _, t, _, rep = next(reps.grid_modules(A1, (), 6))
    return list(reps.character_values(rep, t.order))


# name: ((module, attribute, fault) for each patch, the checks the fault
# should fail, and a probe whose value it changes, so it is no
# equivalent mutant)
FAULTS = {
    "pgl2._walk backtracks": (
        [(pgl2, "_walk", _walk_that_backtracks)], {"C7"},
        lambda: _walk_valuations("1+e,1;e2,1", 3)),
    "pgl2._pieces letter-1 c-piece a - d": (
        [(pgl2, "_pieces", _pieces_with_a_minus_d),
         (pgl2, "_child_branches", _child_branches_with_a_minus_d)], {"C7"},
        lambda: _walk_valuations("1+e,e;e2,1", 3)),
    "pgl2._entry_pairs drops x2": (
        [(pgl2, "_entry_pairs", _entry_pairs_without_x2)], {"C7"},
        lambda: _walk_valuations("1+e,1;e2,1", 3, levels=1)),
    "witt._readout exponent 1 after the first term": (
        [(witt, "_readout", _readout_with_exponent_one_after_the_first_term)],
        {"C9"}, lambda: witt.oracle_check(3, 3)),
    "weyl inverse with swapped transposes": (
        [(weyl.WeylElement, "inverse", _inverse_with_swapped_transposes)],
        {"C1", "C2", "C3"},
        lambda: weyl.from_word(A2, (0, 1)).inverse().mat),
    "weyl inverse that is the element itself": (
        [(weyl.WeylElement, "inverse", _inverse_that_is_itself)],
        {"C1", "C2", "C3"},
        lambda: weyl.from_word(A2, (0, 1)).inverse().mat),
    "reps.character_values drops a trace term": (
        [(reps, "character_values",
          _character_values_without_the_first_fixed_point)], {"C3"},
        _first_module_characters),
    "alcove.torus_stabilizer drops an element": (
        [(alcove, "torus_stabilizer", _stabilizer_without_its_last_element)],
        {"C2"},
        lambda: alcove.torus_stabilizer(
            A1, (), alcove.p_J(A1, (), (1, 0))).elements),
}

# The faults every check passes.  C7 counts 2 on each of its 42 exact
# elements, so it sees a walk fault only when the fault puts a child in
# I2, as the backtracking walk does; the a - d fault (on g's pieces and
# on the child route) and the _entry_pairs fault change children outside
# I2 only.  C9 runs the oracle
# only at m = 2.  Every Weyl element a check inverts is an involution
# (ss_k, and the lifts of the rank-1 quotient's words of length at most
# 1), so an inverse that returns the element itself is right on all of
# them.
BLIND = {
    "pgl2._pieces letter-1 c-piece a - d",
    "pgl2._entry_pairs drops x2",
    "witt._readout exponent 1 after the first term",
    "weyl inverse that is the element itself",
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
