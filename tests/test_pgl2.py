import itertools
import math
import random

import pytest

from weylkit import checks, laurent, pgl2
from weylkit.errors import BudgetError, PreconditionError
from weylkit.laurent import LaurentScalar, quadratic
from reference_routes import children, conjugate_levels, edge, tau_conjugate


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
            a = pgl2.random_i1(q, rng)
            b = pgl2.random_i1(q, rng)
            assert pgl2.iwahori_class(laurent.mat_mul(a, b)) == "I1"


def test_conjugation_preserves_class_and_discriminant():
    rng = random.Random(13)
    for q in (2, 3):
        g = laurent.parse_matrix("0,1;e,0", q)
        for _ in range(10):
            h = pgl2.random_i1(q, rng)
            gp = pgl2.conjugate_exact(g, h)
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
            h = pgl2.random_i1(q, rng)
            assert pgl2.fixed_point_count(pgl2.conjugate_exact(g, h)) == 2


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
    one, zero = LaurentScalar.one(q), LaurentScalar.zero(q)
    e = LaurentScalar(q, {1: 1})
    x = laurent.identity_matrix(q)
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
    tau = ((LaurentScalar.zero(q), LaurentScalar.one(q)),
           (LaurentScalar(q, {1: 1}), LaurentScalar.zero(q)))
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


def _key(M):
    return tuple(tuple(sorted(x.coeffs.items())) for row in M for x in row)


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
        elements = [tau] + [pgl2.conjugate_exact(tau, pgl2.random_i1(q, rng))
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
        sources += [pgl2.conjugate_exact(base, pgl2.random_i1(q, rng))
                    for _ in range(2)]
        sources += [_random_exact_matrix(q, rng) for _ in range(20)]
        for source in sources:
            got = _full_outcome(pgl2.fixed_point_count, source)
            assert got == _full_outcome(_build_then_classify_count, source)
            seen.add(got)
    assert seen == {2, (PreconditionError,
                        "element must lie in the odd Iwahori coset")}


def _child_valuations(branches, q):
    """The entry valuations of the children of a level's branches, in the
    order `conjugate_levels` yields them, every a/d thunk called."""
    out = []
    for pb, pc, ad in branches:
        pa, pd = ad()
        out.extend(zip(*(pgl2._entry_pairs(p, q) for p in (pa, pb, pc, pd))))
    return out


def _walk_branches(g):
    """For word lengths 1, 2, 3, ..., the branches (b-piece, c-piece, a/d
    thunk) whose children make up that level, in the order of
    `conjugate_levels`, each child standing for a node or for its
    tau-conjugate: level 1 from the pieces of tau^-1 g tau and of g, and
    level l + 1 from the nodes of level l - 1 through `_child_branches`.
    g extends both letters; a node of level l >= 1 in the first half of
    its level ends in letter (l + 1) % 2, one in the second half in
    l % 2, and each extends with the other letter.  A node extends with
    letter 1 from itself and with letter 0 from its tau-conjugate, the
    built one that follows it in its level."""
    q = g[0][0].q
    yield [(pb, pc, lambda pa=pa, pd=pd: (pa, pd))
           for pa, pb, pc, pd in (pgl2._pieces(root)
                                  for root in (tau_conjugate(g), g))]
    for length, level in enumerate(conjugate_levels(g)):
        pairs = list(zip(level[::2], level[1::2]))
        yield [branch for k, pair in enumerate(pairs)
               for letter in ((0, 1) if length == 0
                              else ((length + 2 * k // len(pairs)) % 2,))
               for branch in pgl2._child_branches(
                   pair[1 - letter], pgl2._pieces(pair[1 - letter]), q)]


def _levels_two_ways(g, count):
    """Per level, the conjugates' entry valuations (level l + 1 from the
    pieces of level l, without building it) beside the built matrices."""
    q = g[0][0].q
    walk = _walk_branches(g)
    level = [tuple(x.valuation() for row in g for x in row)]
    for length, built in zip(range(count), conjugate_levels(g)):
        if length:
            level = _child_valuations(next(walk), q)
        yield level, built


def test_level_classes_from_valuations_match_the_built_matrices():
    # Levels 0-3 of the unipotent elements of
    # `test_walk_cumulative_counts_per_level` and of the base I2 element,
    # and levels 0-2 of random matrices of every class, zero entries
    # included: I1, I2 and "neither" all occur.  A node and its
    # tau-conjugate share their class, so each class comes twice.
    seen = set()
    for q in (2, 3, 5):
        rng = random.Random(53 + q)
        sources = [(laurent.parse_matrix(text, q), 4) for text in
                   ("1,1;0,1", "1,0;e,1", "1+e,1;e2,1", "0,1;e,0")]
        sources += [(_random_exact_matrix(q, rng), 3) for _ in range(60)]
        for g, count in sources:
            for level, built in _levels_two_ways(g, count):
                classes = [pgl2.iwahori_class(m) for m in built]
                assert [cls for exps in level
                        for cls in [pgl2._classify(*exps)] * 2] == classes
                seen.update(classes)
    assert seen == {"I1", "I2", "neither"}


def test_valuation_classes_match_on_truncated_entries():
    # Entries of any class, zero or with zero digits below their top one:
    # on levels 0-2 the class of every conjugate and of its tau-conjugate,
    # read from the valuations (v(a), v(b), v(c), v(d)) and
    # (v(d), v(c) - 1, v(b) + 1, v(a)), is that of the built matrix.
    seen = set()
    for q in (2, 3, 5):
        rng = random.Random(53 + q)
        for _ in range(60):
            entries = []
            for _ in range(4):
                v = rng.randrange(-2, 3)
                entries.append(LaurentScalar(
                    q, {v + k: rng.randrange(q)
                        for k in range(rng.randrange(3))}))
            g = ((entries[0], entries[1]), (entries[2], entries[3]))
            for level, built in _levels_two_ways(g, 3):
                got = [pgl2._classify(*exps)
                       for a, b, c, d in level
                       for exps in ((a, b, c, d), (d, c - 1, b + 1, a))]
                assert got == [pgl2.iwahori_class(m) for m in built]
                seen.update(got)
    assert seen == {"I1", "I2", "neither"}


def test_exact_i2_children_read_b_and_c_before_a_and_d():
    # Per level, the I2 count that reads a branch's a and d pairs only
    # when some t passes v(c) = v(b) + 1 equals the count over every
    # child's four pairs and the count of the built matrices: levels 1-3
    # of the elements above, of random exact matrices of every class, and
    # of x tau x^-1 for words x of length 1 and 2, whose walk meets tau
    # itself at x.  Both kinds of child occur, in I2 and past b and c but
    # not in I2, so the a/d path runs.
    in_i2 = past_b_and_c_only = 0
    for q in (2, 3, 5):
        rng = random.Random(67 + q)
        base = laurent.parse_matrix("0,1;e,0", q)
        sources = [laurent.parse_matrix(text, q) for text in
                   ("1,1;0,1", "1,0;e,1", "1+e,1;e2,1", "0,1;e,0")]
        sources += [_random_exact_matrix(q, rng) for _ in range(12)]
        sources += [pgl2.conjugate_exact(
                        base, pgl2._exact_inverse(_word_matrix(q, word)))
                    for word in (((1, 1),), ((0, q - 1),),
                                 ((1, 0), (0, 1)))]
        for g in sources:
            levels = conjugate_levels(g)
            next(levels)
            for _, nodes, built in zip(range(3), _walk_branches(g), levels):
                count = pgl2._i2_children(nodes, q)
                exps = _child_valuations(nodes, q)
                assert count == sum(pgl2._classify(*v) == "I2" for v in exps)
                assert count == sum(pgl2.iwahori_class(m) == "I2"
                                    for m in built[::2])
                in_i2 += count
                past_b_and_c_only += sum(
                    b != math.inf and c == b + 1
                    and pgl2._classify(a, b, c, d) != "I2"
                    for a, b, c, d in exps)
    assert in_i2 and past_b_and_c_only


def _piece_key(piece):
    return tuple(None if x is None else tuple(sorted(x.coeffs.items()))
                 for x in piece)


def test_child_route_pieces_match_the_built_children():
    # A parent's pieces give the entries of each letter-1 child that
    # `children` builds by matrix products.  Each piece the walk forms for
    # a child X straight from its parent's entries and t equals
    # `_pieces(tau^-1 X tau)` of the built child; from the parent's
    # tau-conjugate, they equal `_pieces` of the parent's built letter-0
    # children.  Random parents of every class, and the walk's own nodes.
    def entry(t, piece):
        x0, x1, x2 = piece
        return x0 if x1 is None else quadratic(t, x0, x1, x2)

    for q in (2, 3, 5, 7):
        rng = random.Random(71 + q)
        parents = [_random_exact_matrix(q, rng) for _ in range(40)]
        for _, level in zip(range(3), conjugate_levels(
                pgl2.random_i2(q, rng))):
            parents.extend(level[::2])
        for parent in parents:
            pieces = pgl2._pieces(parent)
            for t, child in enumerate(children(parent, 1, q)):
                a, b, c, d = (entry(t, piece) for piece in pieces)
                assert _key(child) == _key(((a, b), (c, d)))
            for root, letter, carried in (
                    (parent, 1, tau_conjugate),
                    (tau_conjugate(parent), 0, lambda child: child)):
                built = children(parent, letter, q)
                branches = pgl2._child_branches(root, pgl2._pieces(root), q)
                assert len(branches) == q
                for child, (pb, pc, ad) in zip(built, branches):
                    pa, pd = ad()
                    want = pgl2._pieces(carried(child))
                    assert [_piece_key(p) for p in (pa, pb, pc, pd)] \
                        == [_piece_key(p) for p in want]


def test_a_count_that_settles_at_level_2_builds_no_matrix(monkeypatch):
    # C7's 42 elements and 60 random odd-coset elements at each of
    # q = 2, 3, 5 settle at level 2, whose pairs come from the pieces of
    # level 1, and those straight from the roots g and tau^-1 g tau: no
    # count forms the pieces of any other matrix, so none builds a matrix
    # past those two.
    count, pieces = pgl2.fixed_point_count, pgl2._pieces
    counted, pieced = [], []

    def recording_count(g, prec=None):
        counted.append(g)
        return count(g, prec)

    def recording_pieces(C):
        pieced.append(C)
        return pieces(C)

    rng = random.Random(83)
    elements = [pgl2.random_i2(q, rng, degree=8)
                for q in (2, 3, 5) for _ in range(60)]
    monkeypatch.setattr(pgl2, "fixed_point_count", recording_count)
    monkeypatch.setattr(pgl2, "_pieces", recording_pieces)
    assert checks._c7_fixed_points() \
        == "42 elements, every fixed-point count is 2"
    assert [pgl2.fixed_point_count(g) for g in elements] == [2] * 180
    assert len(counted) == 42 + 180
    assert len(pieced) == 2 * len(counted)
    assert all(C is g for C, g in zip(pieced[::2], counted))
    assert [_key(C) for C in pieced[1::2]] \
        == [_key(tau_conjugate(g)) for g in counted]


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


def _random_exact_matrix(q, rng):
    """Four exact entries with small valuations, some of them zero."""
    def entry():
        if rng.randrange(6) == 0:
            return LaurentScalar.zero(q)
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
    # identity; and on `_tau_conjugate` being tau^-1 C tau, here against
    # the product of three matrices on random matrices of every class.
    for q in (2, 3, 5, 7):
        for t in range(q):
            (a, b), (c, d) = edge(0, t, q)
            assert _key(tau_conjugate(edge(1, t, q))) \
                == _key(((-a, -b), (-c, -d)))
        rng = random.Random(89 + q)
        for _ in range(40):
            m = _random_exact_matrix(q, rng)
            assert _key(pgl2._tau_conjugate(m)) == _key(tau_conjugate(m))
            assert _key(tau_conjugate(tau_conjugate(m))) == _key(m)


def _random_i2_by_shifts(q, rng, degree=6):
    """`pgl2.random_i2` by its former route: each entry built at
    exponents 0..degree-1, then shifted."""
    def unit():
        coeffs = {0: rng.randrange(1, q)}
        for k in range(1, degree):
            coeffs[k] = rng.randrange(q)
        return LaurentScalar(q, coeffs)

    def integer():
        return LaurentScalar(q, {k: rng.randrange(q) for k in range(degree)})

    a, d = unit(), unit()
    b, c = integer(), integer()
    m = rng.randrange(-2, 3)
    return ((c.shift(m + 1), d.shift(m)), (a.shift(m + 1), b.shift(m + 1)))


def test_random_i2_matches_construct_then_shift():
    for q in (2, 3, 5, 7):
        for degree in (1, 4, 8):
            got, want = random.Random(q), random.Random(q)
            for _ in range(30):
                assert _key(pgl2.random_i2(q, got, degree)) \
                    == _key(_random_i2_by_shifts(q, want, degree))
            assert got.random() == want.random()


def test_module_generation_and_coinvariants():
    # the values of the former Fraction Gauss-Jordan closure at every N
    for n in range(2, 15):
        assert pgl2.module_generation_check(n) == (True, 0)
    with pytest.raises(PreconditionError):
        pgl2.module_generation_check(1)


def test_recurrence_solution_space():
    dim, basis = pgl2.recurrence_solution_space()
    assert dim == 2
    assert len(basis) == 2
    # the nullity of the window's relations is 2 on every window
    for n in range(1, 8):
        assert pgl2.recurrence_solution_space(n) == (dim, basis)


def test_counting_values():
    for q in (2, 3, 5, 7):
        assert pgl2.almost_char_44(q) == 2 * q


def test_prime_power_detector():
    assert pgl2._is_prime_power(2)
    assert pgl2._is_prime_power(9)
    assert pgl2._is_prime_power(8)
    assert not pgl2._is_prime_power(1)
    assert not pgl2._is_prime_power(6)
    assert not pgl2._is_prime_power(12)
    # the least factor is found by trial division up to its budget
    assert pgl2._is_prime_power(3 ** 25)
    assert pgl2._is_prime_power(999983 ** 2)
    assert not pgl2._is_prime_power(999979 * 999983)
    with pytest.raises(BudgetError, match="past that budget"):
        pgl2._is_prime_power(2 ** 60)
