import itertools
import math
import random

import pytest

from weylkit import checks, laurent, pgl2
from weylkit.cli import SuiteConfig
from weylkit.errors import BudgetError, IndeterminateError, PreconditionError
from weylkit.laurent import LaurentScalar


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


def test_fixed_point_count_rejects_a_negative_max_length():
    g = laurent.parse_matrix("0,1;e,0", 3)
    with pytest.raises(PreconditionError, match="negative"):
        pgl2.fixed_point_count(g, max_length=-1)
    with pytest.raises(IndeterminateError):
        pgl2.fixed_point_count(g, max_length=0)


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
    e = LaurentScalar.eps(q, 1)
    x = laurent.identity_matrix(q)
    for letter, t in word:
        c = LaurentScalar.const(q, t)
        if letter == 1:
            u = ((one, c), (zero, one))
            n = ((zero, one), (-one, zero))
        else:
            u = ((one, zero), (c * e, one))
            n = ((zero, LaurentScalar.eps(q, -1)), (-e, zero))
        x = laurent.mat_mul(x, laurent.mat_mul(u, n))
    return x


def _reference_level(g, length):
    q = g[0][0].q
    tau = ((LaurentScalar.zero(q), LaurentScalar.one(q)),
           (LaurentScalar.eps(q, 1), LaurentScalar.zero(q)))
    out = []
    for word in _words(q, length):
        x = _word_matrix(q, word)
        for rep in (x, laurent.mat_mul(x, tau)):
            det = laurent.mat_det(rep)
            inv = ((rep[1][1] / det, -rep[0][1] / det),
                   (-rep[1][0] / det, rep[0][0] / det))
            out.append(laurent.mat_mul(inv, laurent.mat_mul(g, rep)))
    return out


def _reference_count(g, max_length=8):
    if pgl2.iwahori_class(g) != "I2":
        raise PreconditionError("not in the odd Iwahori coset")
    cumulative = [0]
    for length in range(max_length + 1):
        cumulative.append(cumulative[-1] + sum(
            pgl2.iwahori_class(m) == "I2" for m in _reference_level(g, length)))
        if len(cumulative) >= 4 and cumulative[-3] == cumulative[-1]:
            return cumulative[-1]
    raise IndeterminateError("no stabilization", partial=cumulative[-1])


def _key(M):
    return tuple((tuple(sorted(x.coeffs.items())), x.prec)
                 for row in M for x in row)


def _truncated(g, prec):
    return tuple(tuple(x.truncate(prec) for x in row) for row in g)


def test_walk_levels_match_explicit_words():
    for q in (2, 3, 5):
        rng = random.Random(29 + q)
        for _ in range(3):
            g = pgl2.random_i2(q, rng)
            for source in (g, _truncated(g, 5)):
                levels = pgl2.conjugate_levels(source)
                for length in range(4):
                    walked = sorted(_key(m) for m in next(levels))
                    assert len(walked) == 2 * len(_words(q, length))
                    assert walked == sorted(
                        _key(m) for m in _reference_level(source, length))


def test_walk_cumulative_counts_per_level():
    def cumulative(g, cls, levels):
        counts, running = [], 0
        for _, level in zip(range(levels), pgl2.conjugate_levels(g)):
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


def test_fixed_point_count_matches_explicit_words_under_truncation():
    def outcome(count, g):
        try:
            return count(g)
        except (IndeterminateError, PreconditionError) as exc:
            return type(exc)

    seen = set()
    for q in (2, 3, 5):
        rng = random.Random(37 + q)
        for _ in range(4):
            g = pgl2.random_i2(q, rng, degree=12)
            for prec in range(3, 13):
                source = _truncated(g, prec)
                got = outcome(pgl2.fixed_point_count, source)
                assert got == outcome(_reference_count, source)
                seen.add(got)
    assert seen == {2, IndeterminateError}


# -- the valuation classifier against the build-then-classify walk -------

def _build_then_classify_count(g, max_length=8):
    """The count by building every conjugate of every level and
    classifying each built matrix, with the stop rule and errors of
    `fixed_point_count`."""
    if pgl2.iwahori_class(g) != "I2":
        raise PreconditionError("element must lie in the odd Iwahori coset")
    cumulative = []
    running = 0
    for _, level in zip(range(max_length + 1), pgl2.conjugate_levels(g)):
        running += sum(pgl2.iwahori_class(conj) == "I2" for conj in level)
        cumulative.append(running)
        n = len(cumulative)
        if n >= 3 and cumulative[n - 3] == cumulative[n - 1]:
            return cumulative[n - 1]
    raise IndeterminateError(
        f"count did not stabilize by word length {max_length}",
        partial=cumulative[-1])


def _full_outcome(count, g):
    """The count, or the exception's class, message and partial result."""
    try:
        return count(g)
    except (IndeterminateError, PreconditionError) as exc:
        return type(exc), str(exc), getattr(exc, "partial", None)


def test_fixed_point_count_matches_build_then_classify_under_truncation():
    # Whole matrices truncated at every prec, and each entry at its own
    # prec, which makes the walk itself meet undecidable entries; a short
    # max_length reaches the stabilization error.
    seen = set()
    for q in (2, 3, 5, 7):
        rng = random.Random(41 + q)
        base = laurent.parse_matrix("0,1;e,0", q)
        elements = [pgl2.random_i2(q, rng, degree=12) for _ in range(3)]
        elements += [pgl2.conjugate_exact(base, pgl2.random_i1(q, rng))
                     for _ in range(2)]
        sources = [_truncated(g, prec) for g in elements
                   for prec in [math.inf] + list(range(-3, 14))]
        for _ in range(40):
            g = pgl2.random_i2(q, rng, degree=4)
            sources.append(tuple(tuple(x.truncate(rng.randrange(-3, 14))
                                       for x in row) for row in g))
        for source in sources:
            for max_length in (8, 1):
                got = _full_outcome(
                    lambda h: pgl2.fixed_point_count(h, max_length=max_length),
                    source)
                assert got == _full_outcome(
                    lambda h: _build_then_classify_count(h, max_length),
                    source)
                seen.add(got if isinstance(got, int) else got[:2])
    assert {2, (PreconditionError,
                "element must lie in the odd Iwahori coset"),
            (IndeterminateError, "valuation undecidable at this precision"),
            (IndeterminateError,
             "valuation bound undecidable at this precision"),
            (IndeterminateError,
             "count did not stabilize by word length 1")} <= seen


def _levels_two_ways(g, count):
    """Per level, the conjugates' entry pairs (level l + 1 from the pieces
    of level l, without building it) beside the built matrices."""
    q = g[0][0].q
    walk = pgl2._walk(g)
    level = [tuple(pgl2._pair(x) for row in g for x in row)]
    for length, built in zip(range(count), pgl2.conjugate_levels(g)):
        if length:
            level = pgl2._child_pairs(next(walk), q)
        yield level, built


def test_level_classes_from_valuations_match_the_built_matrices():
    # Levels 0-3 of the unipotent elements of
    # `test_walk_cumulative_counts_per_level` and of the base I2 element:
    # I1, I2 and "neither" all occur.
    seen = set()
    for q in (2, 3, 5):
        for text in ("1,1;0,1", "1,0;e,1", "1+e,1;e2,1", "0,1;e,0"):
            g = laurent.parse_matrix(text, q)
            for level, built in _levels_two_ways(g, 4):
                classes = [pgl2.iwahori_class(m) for m in built]
                assert list(pgl2._classes(level)) == classes
                seen.update(classes)
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
            levels = pgl2.conjugate_levels(g)
            next(levels)
            for nodes, built, _ in zip(pgl2._walk(g), levels, range(3)):
                count = pgl2._i2_children(nodes, q)
                pairs = pgl2._child_pairs(nodes, q)
                assert count == sum(pgl2._classify(*p) == "I2"
                                    for p in pairs)
                assert count == sum(pgl2.iwahori_class(m) == "I2"
                                    for m in built[::2])
                in_i2 += count
                past_b_and_c_only += sum(
                    b[0] != math.inf and c[0] == b[0] + 1
                    and pgl2._classify(a, b, c, d) != "I2"
                    for a, b, c, d in pairs)
    assert in_i2 and past_b_and_c_only


def _piece_key(piece):
    return tuple(None if x is None else (tuple(sorted(x.coeffs.items())),
                                         x.prec)
                 for x in piece)


def test_child_route_pieces_match_the_built_children():
    # Each piece the walk forms for a child straight from its parent's
    # entries and t equals `_pieces` of the child that `_children` builds,
    # coefficients and precision: exact parents, parents truncated entry
    # by entry (among them q = 2 with a truncated c, where c + c is zero
    # but keeps c's precision), and the walk's own nodes.
    truncated_c_at_2 = 0
    for q in (2, 3, 5, 7):
        rng = random.Random(71 + q)
        parents = [_random_exact_matrix(q, rng) for _ in range(40)]
        for _ in range(60):
            m = _random_exact_matrix(q, rng)
            parents.append(tuple(
                tuple(x if rng.randrange(3) == 0
                      else x.truncate(rng.randrange(-3, 5)) for x in row)
                for row in m))
        for _, level in zip(range(3), pgl2.conjugate_levels(
                pgl2.random_i2(q, rng))):
            parents.extend(level[::2])
        for parent in parents:
            truncated_c_at_2 += q == 2 and not parent[1][0].is_exact()
            for letter in (0, 1):
                pieces = pgl2._pieces(parent, letter)
                built = pgl2._children(pieces, q)
                branches = pgl2._child_branches(parent, letter, pieces, q)
                assert len(branches) == q
                for child, (pb, pc, ad) in zip(built, branches):
                    pa, pd = ad()
                    want = pgl2._pieces(child, 1 - letter)
                    assert [_piece_key(p) for p in (pa, pb, pc, pd)] \
                        == [_piece_key(p) for p in want]
    assert truncated_c_at_2


def test_a_count_that_settles_at_level_2_builds_no_matrix(monkeypatch):
    # C7's 42 elements and 60 random odd-coset elements at each of
    # q = 2, 3, 5 settle at level 2, whose pairs come from the pieces of
    # level 1, and those straight from g: no count builds a matrix.
    def refuse(pieces, q):
        raise AssertionError("the count built a matrix past g")

    rng = random.Random(83)
    elements = [pgl2.random_i2(q, rng, degree=8)
                for q in (2, 3, 5) for _ in range(60)]
    monkeypatch.setattr(pgl2, "_children", refuse)
    assert checks._c7_fixed_points(SuiteConfig()) \
        == "42 elements, every fixed-point count is 2"
    assert [pgl2.fixed_point_count(g) for g in elements] == [2] * 180


def test_the_walk_budget_bounds_the_nodes_classified(monkeypatch):
    # Level L >= 1 has 2 q^L nodes: 1 + 10 + 50 = 61 through level 2 at
    # q = 5, where the count of an I2 element stops
    g = laurent.parse_matrix("0,1;e,0", 5)
    monkeypatch.setattr(pgl2, "WALK_NODE_BUDGET", 61)
    assert pgl2.fixed_point_count(g) == 2
    assert pgl2.fixed_point_count(_truncated(g, 4)) == 2
    monkeypatch.setattr(pgl2, "WALK_NODE_BUDGET", 60)
    for source in (g, _truncated(g, 4)):
        with pytest.raises(BudgetError, match="word length 2"):
            pgl2.fixed_point_count(source)
    monkeypatch.undo()
    assert pgl2.fixed_point_count(laurent.parse_matrix("0,1;e,0", 211)) == 2
    with pytest.raises(BudgetError, match="budget of 200000"):
        pgl2.fixed_point_count(laurent.parse_matrix("0,1;e,0", 317))


def test_valuation_classes_match_on_truncated_entries():
    # Entries of any class, zero to precision or not, each known to its
    # own precision: the class or the error, message and partial of every
    # conjugate and its tau-conjugate on levels 0-2.
    def outcome(classify, *args):
        try:
            return classify(*args)
        except IndeterminateError as exc:
            return type(exc), str(exc), exc.partial

    errors = 0
    for q in (2, 3, 5):
        rng = random.Random(53 + q)
        for _ in range(60):
            entries = []
            for _ in range(4):
                v = rng.randrange(-2, 3)
                coeffs = {v + k: rng.randrange(q)
                          for k in range(rng.randrange(3))}
                prec = rng.choice([math.inf, v + rng.randrange(4)])
                entries.append(LaurentScalar(q, coeffs, prec))
            g = ((entries[0], entries[1]), (entries[2], entries[3]))
            for level, built in _levels_two_ways(g, 3):
                got = [outcome(pgl2._classify, *p)
                       for pairs in level
                       for p in (pairs, pgl2._tau_pairs(*pairs))]
                assert got == [outcome(pgl2.iwahori_class, m) for m in built]
                errors += sum(isinstance(x, tuple) for x in got)
    assert errors


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
        for _, level in zip(range(4), pgl2.conjugate_levels(g)):
            matrices.extend(level[::2])
        for m in matrices:
            cls = pgl2.iwahori_class(m)
            assert pgl2.iwahori_class(pgl2._tau_conjugate(m)) == cls
            seen.add(cls)
    assert seen == {"I1", "I2", "neither"}


def test_truncated_tau_conjugate_can_have_another_outcome():
    # Why a walk with a truncated entry classifies both: here C is
    # "neither", while its tau-conjugate [[0, 1], [0 + O(e), e^-2]] cannot
    # decide v(e b) = 1.
    m = laurent.parse_matrix("e^-2,0;e,0", 2)
    m = ((m[0][0], m[0][1].truncate(0)), m[1])
    assert pgl2.iwahori_class(m) == "neither"
    with pytest.raises(IndeterminateError,
                       match="valuation undecidable") as info:
        pgl2.iwahori_class(pgl2._tau_conjugate(m))
    assert info.value.partial == 1


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


def test_counting_values():
    for q in (2, 3, 5, 7):
        assert pgl2.almost_char_44(q) == 2 * q
        assert pgl2.almost_char_44(q) - pgl2.steinberg_value(q) == 1


def test_prime_power_detector():
    assert pgl2._is_prime_power(2)
    assert pgl2._is_prime_power(9)
    assert pgl2._is_prime_power(8)
    assert not pgl2._is_prime_power(1)
    assert not pgl2._is_prime_power(6)
    assert not pgl2._is_prime_power(12)


def test_a_space_dimension_cases():
    assert pgl2.a_space_dims(case="recurrence") == {2: 2}
    invariants = pgl2.a_space_dims(case="invariants")
    assert invariants == {0: 1}
    regular = pgl2.a_space_dims(case="regular")
    assert list(regular.keys()) == [0]
