import itertools
import math
import random

import pytest

from hypothesis import given, settings, strategies as st

from weylkit import alcove, linalg, weyl
from weylkit.cartan import cartan_datum
from weylkit.errors import NodeSubsetError, PreconditionError
from reference_routes import from_word, inverse, is_min_coset_generator


A2 = cartan_datum("A2")
C2 = cartan_datum("C2")


def words(datum, max_len=8):
    return st.lists(st.integers(0, datum.n), max_size=max_len)


def test_longest_element_a2_finite_part():
    w0 = weyl.longest_element(A2, (1, 2))
    assert w0.word() == (1, 2, 1)
    assert (w0 * w0).is_identity()


def test_longest_element_c2():
    w0 = weyl.longest_element(C2, (1, 2))
    assert len(w0.word()) == 4
    assert (w0 * w0).is_identity()


def test_simple_reflections_are_involutions():
    for datum in (A2, C2):
        for i in range(datum.n + 1):
            s = weyl.simple_reflection(datum, i)
            assert (s * s).is_identity()
            assert s.word() == (i,)


@given(words(A2))
@settings(max_examples=60, deadline=None)
def test_word_round_trip(letters):
    w = from_word(A2, letters)
    again = from_word(A2, w.word())
    assert again == w


@given(words(A2, 6), words(A2, 6))
@settings(max_examples=40, deadline=None)
def test_length_subadditive_and_inverse(u_word, v_word):
    u = from_word(A2, u_word)
    v = from_word(A2, v_word)
    assert len((u * v).word()) <= len(u.word()) + len(v.word())
    assert (u * inverse(u)).is_identity()
    assert len(inverse(u).word()) == len(u.word())


@pytest.mark.parametrize("label", ["A1", "A2", "C2", "G2", "B3", "D4", "F4"])
def test_inverse_by_transpose_matches_fraction_elimination(label):
    # the contragredient is mat^-T, so the inverse's matrix is its
    # transpose; the reference inverts mat by Fraction Gauss-Jordan
    datum = cartan_datum(label)
    rng = random.Random(label)
    for _ in range(30):
        letters = [rng.randrange(datum.n + 1) for _ in range(rng.randrange(13))]
        w = from_word(datum, letters)
        inv = inverse(w)
        assert inv.mat == linalg.mat_inv(w.mat)
        assert (w * inv).is_identity() and (inv * w).is_identity()


@given(words(C2, 6))
@settings(max_examples=40, deadline=None)
def test_canonical_word_is_reduced(letters):
    w = from_word(C2, letters)
    assert len(w.word()) <= len(letters)
    # descent sets are consistent with the canonical word
    if w.word():
        assert w.word()[0] in weyl.left_descents(w)
        assert w.word()[-1] in weyl.left_descents(inverse(w))


def test_element_order_certificates():
    s0 = weyl.simple_reflection(A2, 0)
    s1 = weyl.simple_reflection(A2, 1)
    assert weyl.element_order(s0) == 2
    assert weyl.element_order(s0 * s1) == 3
    a1 = cartan_datum("A1")
    translation = (weyl.simple_reflection(a1, 0)
                   * weyl.simple_reflection(a1, 1))
    assert weyl.element_order(translation) is math.inf


# Coxeter numbers h (Humphreys, Reflection Groups and Coxeter Groups,
# 3.18): the order of the Coxeter element s1...sn of the finite group.
_COXETER_NUMBERS = {
    "A1": 2, "A2": 3, "A4": 5, "A8": 9, "B3": 6, "B8": 16, "C2": 4,
    "C8": 16, "D4": 6, "D8": 14, "E6": 12, "E7": 18, "E8": 30, "F4": 12,
    "G2": 6,
}


@pytest.mark.parametrize("label", sorted(_COXETER_NUMBERS))
def test_coxeter_element_orders(label):
    # s1...sn has order h; the affine s0...sn has infinite order
    datum = cartan_datum(label)
    nodes = range(datum.n + 1)
    finite = from_word(datum, nodes[1:])
    assert weyl.element_order(finite) == _COXETER_NUMBERS[label]
    assert weyl.element_order(from_word(datum, nodes)) is math.inf


def test_quotient_coxeter_c2_column():
    inf = math.inf
    gens = weyl.quotient_generators(C2, (1,))
    assert weyl.quotient_coxeter_matrix(gens) == ((1, inf), (inf, 1))


def test_quotient_coxeter_finite_bonds():
    matrix = weyl.quotient_coxeter_matrix(weyl.quotient_generators(A2, ()))
    for i in range(3):
        assert matrix[i][i] == 1
        for j in range(3):
            if i != j:
                assert matrix[i][j] == matrix[j][i]
                assert matrix[i][j] in (2, 3, math.inf)


def test_min_coset_generators_a2_tilde_failure():
    # both candidates fail, and the error names them; the matrix needs
    # every candidate, so this J is a usage error for it too
    with pytest.raises(NodeSubsetError, match=r"for k in \(0, 2\)"):
        weyl.min_coset_generators(A2, (1,))
    with pytest.raises(NodeSubsetError, match=r"for k in \(0, 2\)"):
        weyl.quotient_generators(A2, (1,))


def test_min_coset_generators_empty_parabolic():
    generators = weyl.min_coset_generators(A2, ())
    assert {k for k, _ in generators} == {0, 1, 2}
    for k, w in generators:
        assert w.word() == (k,)


def test_quotient_coxeter_matrix_rejects_one_node_left_out():
    # one node outside J leaves no ss_k generator and no matrix
    for datum, J in ((C2, (0, 1)), (C2, (2, 0)), (A2, (0, 2)),
                     (cartan_datum("A1"), (1,))):
        with pytest.raises(NodeSubsetError):
            weyl.quotient_generators(datum, J)
        # alcove still reads the empty generator list
        assert weyl.min_coset_generators(datum, J) == ()


def test_one_node_left_out_returns_before_building_w0_of_J(monkeypatch):
    # For E8 with J = {1..8}, w0(J) is a 120-letter climb that the empty
    # answer never reads; an out-of-range node is refused by J's own
    # range, with the message `longest_element` gives.
    E8 = cartan_datum("E8")

    def refuse(datum, J):
        raise AssertionError("w0(J) was built")

    monkeypatch.setattr(weyl, "longest_element", refuse)
    assert weyl.min_coset_generators(E8, range(1, 9)) == ()
    for J in ((1, 2, 3, 4, 5, 6, 7, 9), (-1, 2), (0, 9)):
        with pytest.raises(PreconditionError,
                           match="^node index out of range$"):
            weyl.min_coset_generators(E8, J)
    monkeypatch.undo()
    for J in ((1, 2, 3, 4, 5, 6, 7, 9), (-1, 2)):
        with pytest.raises(PreconditionError,
                           match="^node index out of range$"):
            weyl.longest_element(E8, J)


def test_the_three_node_subset_refusals_are_one_check():
    # longest_element refuses J = every node as min_coset_generators and
    # alcove.grid_nodes do; their out-of-range refusals are tested above
    # and in test_alcove
    for refuse in (weyl.longest_element, weyl.min_coset_generators,
                   alcove.grid_nodes):
        with pytest.raises(NodeSubsetError,
                           match="^J must be a proper node subset$"):
            refuse(A2, (0, 1, 2))


# Every proper J of these types, each candidate ss_k checked against
# word extraction: 488 candidates, 62 of them permuting the simple roots
# of J nontrivially.
_COSET_LABELS = ("A1", "A2", "A3", "A4", "B3", "B4", "C2", "C3", "C4", "D4",
                 "G2", "F4")
# The geometries whose quotient tables are checked: every one that
# builds over these types.
_GEOMETRY_LABELS = ("A1", "A2", "A3", "B3", "C2", "C3", "D4", "G2", "F4")


def test_coset_generators_match_word_extraction_and_invert_themselves():
    # ss_k qualifies exactly when the reduced word of every conjugate
    # ss_k s_j ss_k^-1 uses letters of J only and ss_k has no right
    # descent in J; the refusal names the same k.  Each quotient
    # generator r_k of a geometry that builds is an involution, which
    # is what quotient_inverse reads
    candidates = nontrivial = involutions = 0
    for label in _COSET_LABELS:
        datum = cartan_datum(label)
        nodes = range(datum.n + 1)
        for J in itertools.chain.from_iterable(
                itertools.combinations(nodes, r) for r in range(datum.n)):
            w0J = weyl.longest_element(datum, J)
            accepted, refused = [], []
            for k in nodes:
                if k in J:
                    continue
                ss = weyl.longest_element(datum, J + (k,)) * w0J
                candidates += 1
                if is_min_coset_generator(ss, J):
                    accepted.append((k, ss))
                    nontrivial += any(
                        ss * s * inverse(ss) != s
                        for s in (weyl.simple_reflection(datum, j) for j in J))
                else:
                    refused.append(k)
            if refused:
                with pytest.raises(NodeSubsetError) as refusal:
                    weyl.min_coset_generators(datum, J)
                assert str(refusal.value).endswith(
                    f"for k in {tuple(refused)}")
                continue
            assert weyl.min_coset_generators(datum, J) == tuple(accepted)
            if label not in _GEOMETRY_LABELS:
                continue
            geo = alcove.CosetGeometry(datum, J)
            for perm in geo.quotient_left.values():
                assert all(perm[perm[i]] == i for i in range(len(perm)))
                involutions += 1
    assert (candidates, nontrivial, involutions) == (488, 62, 131)
