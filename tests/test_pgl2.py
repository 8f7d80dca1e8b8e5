import itertools
import math
import random
import time

import pytest

from weylkit import checks, laurent, pgl2
from weylkit.errors import (
    BudgetError,
    InternalConsistencyError,
    PreconditionError,
)
from weylkit.laurent import LaurentScalar
from reference_routes import (
    children,
    conjugate_exact,
    conjugate_levels,
    discriminant_by_products,
    edge,
    exact_inverse,
    monomial,
    random_i1,
    tau_conjugate,
)


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
            a = random_i1(q, rng)
            b = random_i1(q, rng)
            assert pgl2.iwahori_class(laurent.mat_mul(a, b)) == "I1"


def test_conjugation_preserves_class_and_discriminant():
    rng = random.Random(13)
    for q in (2, 3):
        g = laurent.parse_matrix("0,1;e,0", q)
        for _ in range(10):
            gp = pgl2.random_i1_conjugate(g, rng)
            assert pgl2.iwahori_class(gp) == "I2"
            assert pgl2.discriminant_valuation(gp) == 1


def test_fixed_point_count_base_case():
    for q in (2, 3, 5):
        g = laurent.parse_matrix("0,1;e,0", q)
        assert pgl2.fixed_point_count(g) == 2


def test_fixed_point_count_stable_under_conjugation():
    rng = random.Random(19)
    for q in (2, 3):
        g = laurent.parse_matrix("0,1;e,0", q)
        for _ in range(5):
            assert pgl2.fixed_point_count(
                pgl2.random_i1_conjugate(g, rng)) == 2


# -- an independent route to the coset conjugates ------------------------
# Build every representative x from its word as an explicit product of
# u_letter(t) n_letter factors (and tau), invert it through the adjugate
# and the determinant, and conjugate g with two general products.

def _words(q, length):
    """Words of the given length in alternating letters, each letter
    carrying a value t in range(q)."""
    if length == 0:
        return [()]
    return [tuple(zip([(first + k) % 2 for k in range(length)], values))
            for first in (0, 1)
            for values in itertools.product(range(q), repeat=length)]


def _word_matrix(q, word):
    one, zero = LaurentScalar(q, {0: 1}), LaurentScalar(q, {})
    e = LaurentScalar(q, {1: 1})
    x = ((one, zero), (zero, one))
    for letter, t in word:
        c = LaurentScalar(q, {0: t})
        if letter == 1:
            u = ((one, c), (zero, one))
            n = ((zero, one), (-one, zero))
        else:
            u = ((one, zero), (c * e, one))
            n = ((zero, LaurentScalar(q, {-1: 1})), (-e, zero))
        x = laurent.mat_mul(x, laurent.mat_mul(u, n))
    return x


def _reference_level(g, length):
    q = g[0][0].q
    tau = ((LaurentScalar(q, {}), LaurentScalar(q, {0: 1})),
           (LaurentScalar(q, {1: 1}), LaurentScalar(q, {})))
    out = []
    for word in _words(q, length):
        x = _word_matrix(q, word)
        for rep in (x, laurent.mat_mul(x, tau)):
            inv_det = laurent.mat_det(rep).inverse()
            inv = ((rep[1][1] * inv_det, -rep[0][1] * inv_det),
                   (-rep[1][0] * inv_det, rep[0][0] * inv_det))
            out.append(laurent.mat_mul(inv, laurent.mat_mul(g, rep)))
    return out


def _reference_count(g, levels=3):
    """The I2 conjugates of word lengths 0 .. levels - 1."""
    if pgl2.iwahori_class(g) != "I2":
        raise PreconditionError("not in the odd Iwahori coset")
    return sum(pgl2.iwahori_class(m) == "I2"
               for length in range(levels)
               for m in _reference_level(g, length))


def _scalar_key(x):
    return tuple(sorted(x.coeffs.items()))


def _key(M):
    return tuple(_scalar_key(x) for row in M for x in row)


def test_walk_levels_match_explicit_words():
    for q in (2, 3, 5):
        rng = random.Random(29 + q)
        for _ in range(3):
            g = pgl2.random_i2(q, rng)
            levels = conjugate_levels(g)
            for length in range(4):
                walked = sorted(_key(m) for m in next(levels))
                assert len(walked) == 2 * len(_words(q, length))
                assert walked == sorted(
                    _key(m) for m in _reference_level(g, length))


def test_walk_cumulative_counts_per_level():
    def cumulative(g, cls, levels):
        counts, running = [], 0
        for _, level in zip(range(levels), conjugate_levels(g)):
            running += sum(pgl2.iwahori_class(m) == cls for m in level)
            counts.append(running)
        return counts

    rng = random.Random(31)
    for q in (2, 3, 5):
        assert cumulative(pgl2.random_i2(q, rng), "I2", 4) == [2, 2, 2, 2]
    # a unipotent element of I1 fixes cosets at every level
    for q, want in ((2, [2, 6, 10, 18]), (3, [2, 8, 14, 32]),
                    (5, [2, 12, 22, 72])):
        for text in ("1,1;0,1", "1,0;e,1"):
            g = laurent.parse_matrix(text, q)
            assert cumulative(g, "I1", 4) == want
    assert cumulative(laurent.parse_matrix("1+e,1;e2,1", 3), "I1", 4) \
        == [2, 8, 8, 8]


def test_fixed_point_count_matches_explicit_words():
    # The walk's levels 0-2 against explicit words of lengths 0-3, one
    # level deeper than the walk reads.
    seen = set()
    for q in (2, 3, 5):
        rng = random.Random(37 + q)
        for _ in range(4):
            g = pgl2.random_i2(q, rng, degree=12)
            got = pgl2.fixed_point_count(g)
            assert got == _reference_count(g, levels=4)
            seen.add(got)
    assert seen == {2}


def test_i2_nodes_occur_only_at_level_0():
    # Every element of I2 flips the base edge and no other, so its only
    # I2 nodes are itself and its tau-conjugate: I1-conjugates h^-1 tau h
    # (C7's construction) built to level 4, two levels past the walk.
    rng = random.Random(43)
    for q in (2, 3):
        tau = laurent.parse_matrix("0,1;e,0", q)
        elements = [tau] + [pgl2.random_i1_conjugate(tau, rng)
                            for _ in range(4)]
        for g in elements:
            counts = [sum(pgl2.iwahori_class(m) == "I2" for m in level)
                      for _, level in zip(range(5), conjugate_levels(g))]
            assert counts == [2, 0, 0, 0, 0]


# -- the valuation classifier against the build-then-classify walk -------

def _build_then_classify_count(g):
    """The count by building every conjugate of levels 0-2 and
    classifying each built matrix, with the refusal of
    `fixed_point_count`."""
    if pgl2.iwahori_class(g) != "I2":
        raise PreconditionError("element must lie in the odd Iwahori coset")
    return sum(pgl2.iwahori_class(conj) == "I2"
               for _, level in zip(range(3), conjugate_levels(g))
               for conj in level)


def _full_outcome(count, g):
    """The count, or the exception's class and message."""
    try:
        return count(g)
    except PreconditionError as exc:
        return type(exc), str(exc)


def test_fixed_point_count_matches_build_then_classify():
    # Random odd-coset elements and I1-conjugates of tau; random matrices
    # of every class reach the coset refusal.
    seen = set()
    for q in (2, 3, 5, 7):
        rng = random.Random(41 + q)
        base = laurent.parse_matrix("0,1;e,0", q)
        sources = [pgl2.random_i2(q, rng, degree=12) for _ in range(3)]
        sources += [pgl2.random_i1_conjugate(base, rng) for _ in range(2)]
        sources += [_random_exact_matrix(q, rng) for _ in range(20)]
        for source in sources:
            got = _full_outcome(pgl2.fixed_point_count, source)
            assert got == _full_outcome(_build_then_classify_count, source)
            seen.add(got)
    assert seen == {2, (PreconditionError,
                        "element must lie in the odd Iwahori coset")}


def _valuations(M):
    return tuple(x.valuation() for row in M for x in row)


def _dicts(M):
    """The coefficient dicts (A, B, C, D) of M = [[a, b], [c, d]]."""
    return tuple(x.coeffs for row in M for x in row)


def _nodes(q, level):
    """A level's nodes as their monomials 1, t, t^2, s, s t, s^2 (s = 0
    at level 1), in the order of the scan's index n = t at level 1 and
    n = q t + s at level 2."""
    return [(1, t, t * t, s, s * t, s * s)
            for t, s in itertools.product(range(q), range(q ** (level - 1)))]


def _column_at(column, node, q):
    """A column's value modulo q at a node given by its monomials."""
    return sum(w * y for w, y in zip(column, node)) % q


def _unbounded_keys(root):
    """Every exponent within 1 of one the root stores: where a column may
    be nonzero, with no bound."""
    return sorted({k + i for X in root for k in X for i in (-1, 0, 1)})


def _level_valuations(root, level, q):
    """(v(a), v(b), v(c), v(d)) of each node of a level below a root,
    read from the library's columns at every exponent of
    `_unbounded_keys`: the scan with no bound, on the test side."""
    keys = _unbounded_keys(root)
    columns = [pgl2._columns(level, root, k) for k in keys]
    v = min(root[2]) + level - 1 if root[2] else math.inf
    out = []
    for x in _nodes(q, level):
        a, c, d = (next((k for k, col in zip(keys, columns)
                         if _column_at(col[j], x, q)), math.inf)
                   for j in range(3))
        out.append((a, v, c, d))
    return out


def _levels_beside_built(g):
    """Each level below tau^-1 g tau and below g, as (root, level, built):
    the coefficient dicts of the root, built by products, and the q^level
    matrices its nodes are, built by `children` in the scan's order.
    Below g the level-1 node X_t is the built letter-1 child t, and the
    level-2 node (t, s) is the tau-conjugate of the built letter-0 child s
    of X_t.  Below tau^-1 g tau it is the other way round: level 1 has
    the tau-conjugates of g's letter-0 children, level 2 the letter-1
    children of those."""
    q = g[0][0].q
    zero, one = children(g, 0, q), children(g, 1, q)
    root = _dicts(tau_conjugate(g))
    yield root, 1, [tau_conjugate(x) for x in zero]
    yield root, 2, [y for x in zero for y in children(x, 1, q)]
    yield _dicts(g), 1, one
    yield _dicts(g), 2, [tau_conjugate(y) for x in one
                         for y in children(x, 0, q)]


def test_level_classes_from_valuations_match_the_built_matrices():
    # The unbounded scan's (v(a), v(b), v(c), v(d)) of every node of
    # levels 1 and 2 are the valuations of the matrix built by products:
    # the unipotent elements of `test_walk_cumulative_counts_per_level`,
    # the base I2 element and random matrices of every class, zero
    # entries included.  I1, I2 and "neither" all occur among the nodes.
    seen = set()
    for q in (2, 3, 5, 7):
        rng = random.Random(53 + q)
        sources = [laurent.parse_matrix(text, q) for text in
                   ("1,1;0,1", "1,0;e,1", "1+e,1;e2,1", "0,1;e,0")]
        sources += [_random_exact_matrix(q, rng) for _ in range(40)]
        for g in sources:
            for root, level, built in _levels_beside_built(g):
                scanned = _level_valuations(root, level, q)
                assert scanned == [_valuations(m) for m in built]
                seen.update(pgl2._classify(*v) for v in scanned)
    assert seen == {"I1", "I2", "neither"}


def test_valuation_classes_match_on_truncated_entries():
    # Entries of any class, zero or with zero digits below their top one:
    # on levels 1 and 2 the class of every node and of its tau-conjugate,
    # read from the unbounded scan's (v(a), v(b), v(c), v(d)) and
    # (v(d), v(c) - 1, v(b) + 1, v(a)), is that of the built matrix.
    seen = set()
    for q in (2, 3, 5, 7):
        rng = random.Random(53 + q)
        for _ in range(40):
            entries = []
            for _ in range(4):
                v = rng.randrange(-2, 3)
                entries.append(LaurentScalar(
                    q, {v + k: rng.randrange(q)
                        for k in range(rng.randrange(3))}))
            g = ((entries[0], entries[1]), (entries[2], entries[3]))
            for root, level, built in _levels_beside_built(g):
                for (a, b, c, d), m in zip(_level_valuations(root, level, q),
                                           built):
                    got = [pgl2._classify(*exps)
                           for exps in ((a, b, c, d), (d, c - 1, b + 1, a))]
                    assert got == [pgl2.iwahori_class(x)
                                   for x in (m, tau_conjugate(m))]
                    seen.update(got)
    assert seen == {"I1", "I2", "neither"}


def _word_conjugates_of_tau(q, words):
    """x tau x^-1 for the words x, whose walk meets tau itself at x."""
    base = laurent.parse_matrix("0,1;e,0", q)
    return [conjugate_exact(base, exact_inverse(_word_matrix(q, word)))
            for word in words]


def test_level_i2_counts_match_build_then_classify():
    # Per level, the bounded scan's I2 count equals the count over every
    # node's unbounded valuations and the count of the built matrices:
    # the elements above, random exact matrices of every class, zero
    # entries included, and x tau x^-1 for words x of length 1 and 2,
    # which put I2 nodes on both levels.  Nodes that pass v(c) = v(b) + 1
    # but not a and d occur too, so the a- and d-columns decide some.
    in_i2 = {1: 0, 2: 0}
    past_b_and_c_only = 0
    for q in (2, 3, 5, 7):
        rng = random.Random(67 + q)
        sources = [laurent.parse_matrix(text, q) for text in
                   ("1,1;0,1", "1,0;e,1", "1+e,1;e2,1", "0,1;e,0")]
        sources += [_random_exact_matrix(q, rng) for _ in range(12)]
        sources += _word_conjugates_of_tau(
            q, (((1, 1),), ((0, q - 1),), ((1, 0), (0, 1))))
        for g in sources:
            for root, level, built in _levels_beside_built(g):
                count = pgl2._level_count(root, level, q)
                exps = _level_valuations(root, level, q)
                assert count == sum(pgl2._classify(*v) == "I2" for v in exps)
                assert count == sum(pgl2.iwahori_class(m) == "I2"
                                    for m in built)
                in_i2[level] += count
                past_b_and_c_only += sum(
                    b != math.inf and c == b + 1
                    and pgl2._classify(a, b, c, d) != "I2"
                    for a, b, c, d in exps)
    assert in_i2[1] and in_i2[2] and past_b_and_c_only


def test_child_route_pieces_match_the_built_children():
    # The columns are whole coefficients, not only the lowest: at every
    # node of levels 1 and 2 and every exponent k of the unbounded keys,
    # the column of each of the a-, c- and d-entries, evaluated at the
    # node, gives the built node's coefficient of e^k modulo q, and the
    # built entries store no exponent outside the keys.  The b-entry has
    # the valuation v(c) + level - 1, and the library's node list keeps
    # exactly the nodes where a column vanishes.  Random roots of every
    # class and the walk's own nodes.
    for q in (2, 3, 5, 7):
        rng = random.Random(71 + q)
        sources = [_random_exact_matrix(q, rng) for _ in range(12)]
        for _, level in zip(range(2), conjugate_levels(
                pgl2.random_i2(q, rng))):
            sources.extend(level[::2])
        for g in sources:
            for root, level, built in _levels_beside_built(g):
                keys = _unbounded_keys(root)
                nodes = _nodes(q, level)
                v = min(root[2]) + level - 1 if root[2] else math.inf
                assert [b.valuation() for (_, b), _ in built] \
                    == [v] * len(nodes)
                entries = [(a, c, d) for (a, _), (c, d) in built]
                assert all(set(x.coeffs) <= set(keys)
                           for node in entries for x in node)
                for k in keys:
                    for j, column in enumerate(pgl2._columns(level, root, k)):
                        values = [_column_at(column, x, q) for x in nodes]
                        assert values == [node[j].coeffs.get(k, 0)
                                          for node in entries]
                        assert pgl2._vanishing_nodes(
                            column, range(len(nodes)), q, level) \
                            == [n for n, y in enumerate(values) if y == 0]


def test_a_count_that_settles_at_level_2_builds_no_matrix(monkeypatch):
    # C7's 42 elements and 60 random odd-coset elements at each of
    # q = 2, 3, 5: a count constructs no scalar through either
    # constructor of `laurent`, since it reads tau^-1 g tau off g's
    # coefficient dicts by index shift.
    count, new, raw = pgl2.fixed_point_count, laurent._new, laurent._raw
    counted, made, active, constructed = [], [], [], []

    def recording_count(g, prec=None):
        counted.append(g)
        made.append([])
        active.append(made[-1])
        try:
            return count(g, prec)
        finally:
            active.pop()

    def recording(construct):
        def construct_and_record(q, coeffs):
            x = construct(q, coeffs)
            constructed.append(x)
            if active:
                active[-1].append(x)
            return x
        return construct_and_record

    rng = random.Random(83)
    elements = [pgl2.random_i2(q, rng, degree=8)
                for q in (2, 3, 5) for _ in range(60)]
    monkeypatch.setattr(pgl2, "fixed_point_count", recording_count)
    monkeypatch.setattr(laurent, "_new", recording(new))
    monkeypatch.setattr(laurent, "_raw", recording(raw))
    assert checks._c7_fixed_points() \
        == "42 elements, every fixed-point count is 2"
    assert [pgl2.fixed_point_count(g) for g in elements] == [2] * 180
    assert len(counted) == len(made) == 42 + 180
    # the recording sees C7 build its elements between the counts
    assert constructed
    assert made == [[]] * (42 + 180)


def test_the_walk_budget_bounds_the_nodes_classified(monkeypatch):
    # Level L >= 1 has 2 q^L nodes: 1 + 10 + 50 = 61 through level 2 at
    # q = 5, the last level the count walks, checked before the walk
    g = laurent.parse_matrix("0,1;e,0", 5)
    monkeypatch.setattr(pgl2, "WALK_NODE_BUDGET", 61)
    assert pgl2.fixed_point_count(g) == 2
    monkeypatch.setattr(pgl2, "WALK_NODE_BUDGET", 60)
    with pytest.raises(BudgetError, match="word length 2"):
        pgl2.fixed_point_count(g)
    monkeypatch.undo()
    assert pgl2.fixed_point_count(laurent.parse_matrix("0,1;e,0", 211)) == 2
    with pytest.raises(BudgetError, match="budget of 200000"):
        pgl2.fixed_point_count(laurent.parse_matrix("0,1;e,0", 317))


def test_the_scan_skips_the_gaps_between_stored_exponents():
    # Entries whose stored exponents lie about 10^9 apart, below the
    # scan's first key, between its keys and above its bound: the count
    # answers 2, and every level's count equals the built matrices', with
    # I2 nodes among them, in milliseconds of library time, since the
    # scan drops every node within two keys of a low stored exponent and
    # stops at v(b) + 1.
    far = 999999999
    found = 0
    for q in (2, 3, 5, 7):
        sources = [laurent.parse_matrix(text, q) for text in (
            "1,e999999999;0,1", "1+e-999999999,1;e,e999999999",
            "e999999999,e-999999999;e999999998,1", "e2,1+e999999999;e,e")]
        sources += [tuple(tuple(x + LaurentScalar(q, {far: 1}) for x in row)
                          for row in g)
                    for g in _word_conjugates_of_tau(q, (((1, 1),),
                                                         ((1, 0), (0, 1))))]
        spent = 0
        start = time.perf_counter()
        assert pgl2.fixed_point_count(
            laurent.parse_matrix("0,1+e999999999;e,0", q)) == 2
        spent += time.perf_counter() - start
        for g in sources:
            for root, level, built in _levels_beside_built(g):
                start = time.perf_counter()
                count = pgl2._level_count(root, level, q)
                spent += time.perf_counter() - start
                assert count == sum(pgl2.iwahori_class(m) == "I2"
                                    for m in built)
                found += count
        assert spent < 0.25
    assert found


def test_the_scan_reads_no_root_coefficient_above_e_v_c_plus_3():
    # Rule (a): the scan stops at v(b) + 1 = v(c) + level, where level
    # 2's columns read the root at one exponent higher.  Changing, adding
    # or dropping any root coefficient above e^(v(c)+3) leaves every
    # level's count unchanged, on random roots of every class and on
    # roots with I2 nodes; changing the coefficients at e^(v(c)+3) itself
    # moves some count, so the bound is no higher than it needs to be.
    moved = 0
    for q in (2, 3, 5, 7):
        rng = random.Random(107 + q)
        sources = [_random_exact_matrix(q, rng) for _ in range(30)]
        sources += _word_conjugates_of_tau(
            q, [((1, t), (0, s)) for t in range(q) for s in range(q)])
        for g in sources:
            for root in (_dicts(g), _dicts(tau_conjugate(g))):
                if not root[2]:
                    continue
                bound = min(root[2]) + 3
                counts = [pgl2._level_count(root, level, q)
                          for level in (1, 2)]

                def redrawn(low):
                    """The root with its coefficients from e^low up drawn
                    afresh, each one present or not."""
                    return tuple(
                        {**{k: x for k, x in X.items() if k < low},
                         **{k: rng.randrange(1, q)
                            for k in range(low, bound + 4)
                            if rng.randrange(2)}}
                        for X in root)

                for _ in range(4):
                    changed = redrawn(bound + 1)
                    assert [pgl2._level_count(changed, level, q)
                            for level in (1, 2)] == counts
                changed = redrawn(bound)
                moved += [pgl2._level_count(changed, level, q)
                          for level in (1, 2)] != counts
    assert moved


def test_the_count_of_an_i2_element_lists_no_node(monkeypatch):
    # Rule (b): on an I2 root every column the scan reads is constant, so
    # at q = 313, where level 2 has 97,969 nodes, the count of tau and of
    # random odd-coset elements lists none; a root whose walk meets tau
    # at level 1 has a column that depends on the node, and lists them.
    def no_node_list(column, pending, q, level):
        raise AssertionError(f"listed the nodes of level {level}")

    q = 313
    rng = random.Random(109)
    elements = [laurent.parse_matrix("0,1;e,0", q)]
    elements += [pgl2.random_i2(q, rng, degree) for degree in (1, 8, 12)]
    elements += [pgl2.random_i1_conjugate(elements[0], rng)]
    (meets_tau,) = _word_conjugates_of_tau(q, (((1, 5),),))
    monkeypatch.setattr(pgl2, "_vanishing_nodes", no_node_list)
    assert [pgl2.fixed_point_count(g) for g in elements] == [2] * 5
    with pytest.raises(AssertionError, match="nodes of level 1"):
        for root in pgl2._roots(meets_tau):
            pgl2._level_count(root, 1, q)


def test_a_nonzero_constant_column_drops_every_node_before_any_is_listed(
        monkeypatch):
    # Rule (b) read first: below [[1, 0], [e, 0]] the c-column at the
    # first key depends on the node while the d-column is the constant 1,
    # so the key drops every node, and no level lists one.
    def no_node_list(column, pending, q, level):
        raise AssertionError(f"listed the nodes of level {level}")

    q = 313
    g = laurent.parse_matrix("1,0;e,0", q)
    monkeypatch.setattr(pgl2, "_vanishing_nodes", no_node_list)
    assert [pgl2._level_count(root, level, q) for root in pgl2._roots(g)
            for level in (1, 2)] == [0, 0, 0, 0]


def _random_exact_matrix(q, rng):
    """Four exact entries with small valuations, some of them zero."""
    def entry():
        if rng.randrange(6) == 0:
            return LaurentScalar(q, {})
        v = rng.randrange(-2, 3)
        coeffs = {v: rng.randrange(1, q)}
        coeffs.update((v + k, rng.randrange(q)) for k in range(1, 3))
        return LaurentScalar(q, coeffs)
    return ((entry(), entry()), (entry(), entry()))


def test_tau_conjugate_has_the_same_class_on_exact_entries():
    # tau normalizes the Iwahori subgroup, so on exact entries a matrix
    # and its tau-conjugate always share their class: random matrices of
    # every class, and the walk's own nodes down to level 3.
    seen = set()
    for q in (2, 3, 5, 7):
        rng = random.Random(61 + q)
        matrices = [_random_exact_matrix(q, rng) for _ in range(300)]
        g = pgl2.random_i2(q, rng)
        for _, level in zip(range(4), conjugate_levels(g)):
            matrices.extend(level[::2])
        for m in matrices:
            cls = pgl2.iwahori_class(m)
            assert pgl2.iwahori_class(tau_conjugate(m)) == cls
            seen.add(cls)
    assert seen == {"I1", "I2", "neither"}


def test_tau_turns_the_letter_1_edges_into_the_letter_0_edges():
    # The walk's one-letter step rests on tau^-1 s_1(t) tau = -s_0(t),
    # with tau^2 = e I central, so conjugating twice by tau is the
    # identity; and on `_roots` reading tau^-1 C tau off C's coefficient
    # dicts by index shift, here against the product of three matrices
    # on random matrices of every class.
    for q in (2, 3, 5, 7):
        for t in range(q):
            (a, b), (c, d) = edge(0, t, q)
            assert _key(tau_conjugate(edge(1, t, q))) \
                == _key(((-a, -b), (-c, -d)))
        rng = random.Random(89 + q)
        for _ in range(40):
            m = _random_exact_matrix(q, rng)
            assert pgl2._roots(m) == (_dicts(m), _dicts(tau_conjugate(m)))
            assert _key(tau_conjugate(tau_conjugate(m))) == _key(m)


def _random_i2_by_shifts(q, rng, degree=6):
    """`pgl2.random_i2` through the public constructor: one draw per
    entry, its base-q digits read by powers of q, each entry built at
    exponents 0..degree-1 and then multiplied by a power of e."""
    def digits(n, count):
        return [n // q ** k % q for k in range(count)]

    def unit():
        high, r = divmod(rng.randrange((q - 1) * q ** (degree - 1)), q - 1)
        return LaurentScalar(q, dict(enumerate([1 + r]
                                               + digits(high, degree - 1))))

    def integer():
        return LaurentScalar(
            q, dict(enumerate(digits(rng.randrange(q ** degree), degree))))

    a, d = unit(), unit()
    b, c = integer(), integer()
    m = rng.randrange(-2, 3)
    low, high = monomial(q, m), monomial(q, m + 1)
    return ((c * high, d * low), (a * high, b * high))


def test_random_i2_matches_construct_then_shift():
    for q in (2, 3, 5, 7):
        for degree in (1, 4, 8):
            got, want = random.Random(q), random.Random(q)
            for _ in range(30):
                assert _key(pgl2.random_i2(q, got, degree)) \
                    == _key(_random_i2_by_shifts(q, want, degree))
            assert got.random() == want.random()


class _ScriptedRandom:
    """A stand-in for random.Random whose randrange returns the next
    value of a script, recording the range asked for each."""

    def __init__(self, script):
        self.script = iter(script)
        self.ranges = []

    def randrange(self, start, stop=None):
        self.ranges.append((start, stop))
        value = next(self.script)
        assert value in (range(start) if stop is None
                         else range(start, stop))
        return value


def test_random_i2_draws_each_digit_string_once():
    # Scripted to return every integer of each range once, random_i2
    # makes each unit digit string (lowest digit nonzero) and each
    # integer digit string exactly once, and each shift once: the draws
    # are bijections onto the strings, so the law is uniform on them.
    for q in (2, 3, 5):
        for degree in (1, 2, 3):
            units, integers = (q - 1) * q ** (degree - 1), q ** degree
            strings = list(itertools.product(range(q), repeat=degree))
            unit_strings = [s for s in strings if s[0]]
            seen = {"a": [], "d": [], "b": [], "c": [], "m": []}
            scripts = ([(u, u, 0, 0, 0) for u in range(units)]
                       + [(0, 0, n, n, 0) for n in range(integers)]
                       + [(0, 0, 0, 0, m) for m in range(-2, 3)])
            for script in scripts:
                rng = _ScriptedRandom(script)
                m, A, B, C, D = pgl2.i2_normal_form(
                    pgl2.random_i2(q, rng, degree))
                assert rng.ranges == [(units, None)] * 2 \
                    + [(integers, None)] * 2 + [(-2, 3)]
                for name, X, low in (("a", A, m + 1), ("d", D, m),
                                     ("b", B, m + 1), ("c", C, m + 1)):
                    assert min(X, default=low) >= low
                    assert max(X, default=low) < low + degree
                    seen[name].append(
                        tuple(X.get(low + k, 0) for k in range(degree)))
                seen["m"].append(m)
            for name in "ad":
                assert sorted(seen[name][:units]) == unit_strings
            for name in "bc":
                assert sorted(seen[name][units:units + integers]) == strings
            assert seen["m"][-5:] == [-2, -1, 0, 1, 2]


def _random_i1_by_mat_mul(q, rng, length=4):
    """The reference `random_i1` by its former route: each generator a whole
    matrix, multiplied onto the product with the generic
    `laurent.mat_mul`."""
    one, zero = LaurentScalar(q, {0: 1}), LaurentScalar(q, {})
    mat = ((one, zero), (zero, one))
    for _ in range(length):
        kind = rng.randrange(3)
        if kind == 0:
            c = LaurentScalar(q, {k: rng.randrange(q) for k in range(3)})
            step = ((one, c), (zero, one))
        elif kind == 1:
            c = LaurentScalar(q, {k: rng.randrange(q) for k in range(1, 4)})
            step = ((one, zero), (c, one))
        else:
            u = LaurentScalar(q, {0: rng.randrange(1, q)})
            step = ((u, zero), (zero, one))
        mat = laurent.mat_mul(mat, step)
    return mat


def test_random_i1_matches_generic_mat_mul():
    # The reference random_i1 gives the same matrices from the same
    # draws, and leaves the generator in the same state.
    for q in (2, 3, 5, 7):
        for length in (1, 4, 8):
            got, want = random.Random(q), random.Random(q)
            for _ in range(30):
                assert _key(random_i1(q, got, length)) \
                    == _key(_random_i1_by_mat_mul(q, want, length))
            assert got.random() == want.random()


def test_random_i1_conjugate_matches_conjugate_exact():
    # One conjugation step per generator gives h^-1 g h for the h the
    # reference random_i1 multiplies out from the same draws, and leaves
    # the generator in the same state: tau, an I2 element and an element
    # of neither coset.
    for q in (2, 3, 5, 7):
        for text in ("0,1;e,0", "e,1+e;e+e2,e2", "1+e,2e+e3;e2,1"):
            g = laurent.parse_matrix(text, q)
            for length in (1, 4, 8):
                got, want = random.Random(q), random.Random(q)
                for _ in range(30):
                    assert _key(pgl2.random_i1_conjugate(g, got, length)) \
                        == _key(conjugate_exact(g, random_i1(q, want,
                                                             length)))
                assert got.random() == want.random()


def _discriminant_outcome(M):
    """The scan's discriminant valuation, or the exception's class and
    message."""
    try:
        return pgl2.discriminant_valuation(M)
    except InternalConsistencyError as exc:
        return type(exc), str(exc)


def _product_outcome(M):
    """The product formula's valuation, as `discriminant_valuation`
    reports it: 1, or the error naming any other valuation."""
    v = discriminant_by_products(M)
    if v == 1:
        return v
    return (InternalConsistencyError,
            f"discriminant valuation {v} != 1 for an I2 matrix")


def test_discriminant_scan_matches_the_product_formula():
    # Random odd-coset elements of several degrees and C7's I1-conjugates
    # of tau.
    for q in (2, 3, 5, 7):
        rng = random.Random(97 + q)
        tau = laurent.parse_matrix("0,1;e,0", q)
        sources = [pgl2.random_i2(q, rng, degree)
                   for degree in (1, 4, 8, 12) for _ in range(10)]
        sources += [pgl2.random_i1_conjugate(tau, rng, length)
                    for length in (1, 4, 8) for _ in range(5)]
        for M in sources:
            assert _discriminant_outcome(M) == _product_outcome(M) == 1


def test_discriminant_scan_reads_coefficients_past_the_normal_form(
        monkeypatch):
    # A normal form whose a is not a unit, or whose b or c has negative
    # valuation, moves the discriminant off 1: both routes read the same
    # valuation, through the same error, down to a formula that cancels
    # to 0.  Normal forms (m, a, b, c, d) as {exponent: coefficient} in
    # the normal-form exponents.
    crafted = [
        (5, 0, {1: 1}, {0: 1}, {}, {0: 1}),        # e^2 - e^2: inf
        (5, 1, {1: 1, 2: 1}, {0: 1}, {}, {0: 1}),  # -e^3: 3
        (3, -2, {1: 2}, {}, {}, {0: 1}),           # -2e^2: 2
        (7, 0, {0: 1}, {-1: 1}, {}, {0: 1}),       # 1 + ...: 0
        (2, 2, {1: 1}, {0: 1}, {0: 1}, {0: 1}),    # 4 = 0 at q = 2: 2
    ]
    rng = random.Random(101)
    for q in (2, 3, 5, 7):
        for _ in range(40):
            entries = [{k: rng.randrange(q) for k in
                        range(rng.randrange(-2, 2), rng.randrange(-1, 3))}
                       for _ in range(4)]
            crafted.append((q, rng.randrange(-2, 3), *entries))
    seen = set()
    for q, m, a, b, c, d in crafted:
        normal_form = (m, *({k + m + 1: x for k, x in X.items()}
                            for X in (a, b, c)),
                       {k + m: x for k, x in d.items()})
        monkeypatch.setattr(pgl2, "i2_normal_form",
                            lambda M, normal_form=normal_form: normal_form)
        M = laurent.parse_matrix("0,1;e,0", q)
        got = _discriminant_outcome(M)
        assert got == _product_outcome(M)
        seen.add(got if got == 1 else got[1].split()[2])
    assert {1, "inf", "0", "2", "3"} <= seen


def test_discriminant_forms_no_product_and_builds_no_scalar(monkeypatch):
    # C6 formed four Laurent products per discriminant, 1,200 in all, and
    # now forms none: it builds the four entries of each of its 300
    # inputs and nothing else.  C7 formed 1,200, 8 in each of its 40
    # random elements of I1 and 22 in each conjugation by one, and now
    # conjugates by each generator as it is drawn: two products for an
    # upper or lower generator, none for a diagonal one, and 104 of its
    # 160 generators are upper or lower.
    mul, new, raw = LaurentScalar.__mul__, laurent._new, laurent._raw
    products, constructed = [], []

    def counting_mul(x, y):
        products.append((x, y))
        return mul(x, y)

    def recording(construct):
        def construct_and_record(q, coeffs):
            x = construct(q, coeffs)
            constructed.append(x)
            return x
        return construct_and_record

    rng = random.Random(20260823)
    inputs = [pgl2.random_i2(q, rng, degree=8)
              for q in (2, 3, 5) for _ in range(100)]
    monkeypatch.setattr(LaurentScalar, "__mul__", counting_mul)
    monkeypatch.setattr(laurent, "_new", recording(new))
    monkeypatch.setattr(laurent, "_raw", recording(raw))
    assert [pgl2.discriminant_valuation(M) for M in inputs] == [1] * 300
    assert products == constructed == []
    assert checks._c6_discriminant() \
        == "300 random odd-coset matrices, all discriminant valuations 1"
    assert len(products) == 0
    assert len(constructed) == 4 * 300
    assert checks._c7_fixed_points() \
        == "42 elements, every fixed-point count is 2"
    assert len(products) == 2 * 104 == 208


def test_module_generation_and_coinvariants():
    # the values of the former Fraction Gauss-Jordan closure at every N
    for n in range(2, 15):
        assert pgl2.module_generation_check(n) == (True, 0)
    with pytest.raises(PreconditionError):
        pgl2.module_generation_check(1)


def _dense_action(N, i):
    """The matrix of s_i on the window |n| <= N, row and column n + N,
    entered one basis vector b_n at a time from the rule: -b_n for n of
    i's parity, else b_n + b_(n-1) + b_(n+1), for interior n only."""
    size = 2 * N + 1
    mat = [[0] * size for _ in range(size)]
    for n in range(-N + 1, N):
        if (n - i) % 2 == 0:
            mat[n + N][n + N] = -1
        else:
            for m in (n - 1, n, n + 1):
                mat[m + N][n + N] = 1
    return mat


def test_act_is_the_dense_transcription_of_the_rule():
    rng = random.Random(20261021)
    for N in range(2, 29):
        module = pgl2.RecurrenceModule(N)
        size = 2 * N + 1
        for i in (1, 2):
            dense = _dense_action(N, i)
            assert module.action_matrix(i) == tuple(map(tuple, dense))
            vectors = [module.basis_vector(n) for n in (-N, 0, 1, N)]
            vectors += [tuple(rng.randint(-9, 9) for _ in range(size))
                        for _ in range(5)]
            for vec in vectors:
                want = tuple(sum(a * x for a, x in zip(row, vec))
                             for row in dense)
                assert module.act(i, vec) == want, (N, i, vec)


def test_the_closure_applies_each_involution_by_its_rule(monkeypatch):
    # C8's windows map each vector that enlarges the span through act,
    # never through a matrix product
    acts = []
    act = pgl2.RecurrenceModule.act
    monkeypatch.setattr(pgl2.RecurrenceModule, "act",
                        lambda self, i, vec: acts.append(i)
                        or act(self, i, vec))
    monkeypatch.setattr(pgl2.linalg, "mat_vec", None)
    for n in (6, 10):
        acts.clear()
        assert pgl2.module_generation_check(n) == (True, 0)
        # two for each of the 2N + 1 vectors that enlarge the span (it
        # ends as the whole window), and one per column of each of the
        # two matrices the coinvariants read
        assert len(acts) == 2 * (2 * n + 1) + 2 * (2 * n + 1)


def test_recurrence_solution_space():
    dim, basis = pgl2.recurrence_solution_space()
    assert dim == 2
    assert len(basis) == 2
    # the nullity of the window's relations is 2 on every window
    for n in range(1, 8):
        assert pgl2.recurrence_solution_space(n) == (dim, basis)


def test_a_window_past_its_budget_is_refused_before_the_module(monkeypatch):
    # (2N + 1)^3: 9,261 at C8's N = 10, 185,193 at N = 28 and 205,379 at
    # N = 29, charged before any action matrix is built
    def no_module(N):
        raise AssertionError("the module was built")

    monkeypatch.setattr(pgl2, "RecurrenceModule", no_module)
    for check in (pgl2.module_generation_check,
                  pgl2.recurrence_solution_space):
        for N, work in ((29, 205379), (100, 8120601)):
            with pytest.raises(BudgetError, match=f"N={N} .* weigh {work}"
                                                  " .* budget of 200000"):
                check(N)
        with pytest.raises(AssertionError, match="built"):
            check(28)
        monkeypatch.setattr(pgl2, "WINDOW_WORK_BUDGET", 9260)
        with pytest.raises(BudgetError, match="weigh 9261"):
            check(10)
        monkeypatch.setattr(pgl2, "WINDOW_WORK_BUDGET", 200000)
    monkeypatch.undo()
    assert pgl2.module_generation_check(28) == (True, 0)
    assert pgl2.recurrence_solution_space(28)[0] == 2
