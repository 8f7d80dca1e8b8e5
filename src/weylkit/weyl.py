"""Affine Weyl group elements in matrix canonical form.

An element w of the affine Weyl group W' acts linearly on V-dagger in
the b'-basis; that integer matrix is the canonical form (the affine
translation behaviour is encoded by the level-1 slice, so no separate
translation vector is needed); it is the only matrix an element carries.
`level_restriction` is the one formula for a level-0 part, and
`check_node_subset` the one node-subset refusal that `longest_element`,
`min_coset_generators` and `alcove.grid_nodes` share.

Simple reflections: s_i(b'_j) = b'_j - delta_ij h_i with h_i the i-th
column of the pairing matrix, and s_i(b_j) = b_j - a_ji b_i on V.

`_STEP_CAP` is not a budget: `word` and `longest_element` stop within the
longest length in a finite parabolic, `element_order` within an order in
the finite W0, so only a bug reaches it (InternalConsistencyError).
"""

import math
from dataclasses import dataclass

from . import linalg
from .errors import (
    InternalConsistencyError,
    NodeSubsetError,
    PreconditionError,
    require_int,
)

_STEP_CAP = 100000


@dataclass(frozen=True, eq=False)
class WeylElement:
    datum: object
    mat: tuple  # action on V-dagger (b'-basis)

    def __eq__(self, other):
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self.datum.label == other.datum.label and self.mat == other.mat

    def __hash__(self):
        return hash((self.datum.label, self.mat))

    def __mul__(self, other):
        return multiply(self, other)

    def is_identity(self):
        return self.mat == linalg.identity_mat(self.datum.n + 1)

    def word(self):
        """Canonical ShortLex reduced word, as a tuple of node indices."""
        word = []
        u = self
        for _ in range(_STEP_CAP):
            if u.is_identity():
                return tuple(word)
            descents = left_descents(u)
            if not descents:
                raise InternalConsistencyError(
                    "no descent on a non-identity element")
            word.append(descents[0])
            u = multiply(simple_reflection(self.datum, descents[0]), u)
        raise InternalConsistencyError("word extraction exceeded the step cap")

    def __repr__(self):
        return f"WeylElement({self.datum.label}, {word_str(self)})"


def identity(datum):
    return WeylElement(datum, linalg.identity_mat(datum.n + 1))


def simple_reflection(datum, i):
    """s_i for a node i in 0..n; any other i raises PreconditionError."""
    require_int("node", i)
    size = datum.n + 1
    if not 0 <= i < size:
        raise PreconditionError(f"node {i} is out of range 0..{datum.n}")
    a = datum.pairing
    return WeylElement(datum, tuple(
        tuple((1 if k == j else 0) - (a[k][i] if j == i else 0)
              for j in range(size))
        for k in range(size)))


def multiply(a, b):
    if a.datum.label != b.datum.label:
        raise PreconditionError(
            f"cannot multiply over {a.datum.label} and {b.datum.label}")
    return WeylElement(a.datum, linalg.mat_mul(a.mat, b.mat))


def left_descents(w):
    """Nodes i with l(s_i w) < l(w): row i of the V-dagger matrix, a
    sign-coherent nonzero root vector, is <= 0."""
    out = []
    for i, root in enumerate(w.mat):
        low, high = min(root), max(root)
        if low < 0 < high or low == high == 0:
            raise InternalConsistencyError("matrix row is not a root vector")
        if high <= 0:
            out.append(i)
    return out


def word_str(w):
    word = w.word()
    return "*".join(f"s{i}" for i in word) if word else "1"


def check_node_subset(datum, J):
    """Refuse a J that names a node that is not an int (a bool is the
    int it is) or lies outside 0..n, or that is every node."""
    require_int("node", *J)
    if len(set(J)) == datum.n + 1:
        raise NodeSubsetError("J must be a proper node subset")
    if any(j < 0 or j > datum.n for j in J):
        raise PreconditionError("node index out of range")


def longest_element(datum, J):
    """Longest element of the finite parabolic W_J, J a proper node subset:
    w -> s_j w, j the first of J that is not a left descent, lengthens w
    in the finite W_J until every j in J is one, which only w0(J) has."""
    check_node_subset(datum, J)
    J = sorted(set(J))
    w = identity(datum)
    for _ in range(_STEP_CAP):
        descents = left_descents(w)
        ascent = next((j for j in J if j not in descents), None)
        if ascent is None:
            return w
        w = multiply(simple_reflection(datum, ascent), w)
    raise InternalConsistencyError("longest-element climb exceeded the step cap")


def _permutes_simple_roots(inv, J):
    """Whether w = inv^-1 permutes the simple roots of J: for each j in J,
    row j of inv.mat, the root w(alpha_j), is some e_j' with j' in J."""
    simple = {tuple(int(i == j) for i in range(inv.datum.n + 1)) for j in J}
    return all(inv.mat[j] in simple for j in J)


def min_coset_generators(datum, J):
    """Pairs (k, ss_k), ss_k = w0(J+k) w0(J), for k outside J.

    A candidate w = ss_k qualifies when it normalizes W_J and is minimal
    in its coset w W_J.  Both are read off the roots w(alpha_j), j in J.
    First, w s_j w^-1 = s_{w(alpha_j)}, and that reflection lies in W_J
    exactly when w(alpha_j) is a root of J.  Second, w is minimal in
    w W_J exactly when w(alpha_j) > 0 for every j in J.  Together, w maps
    the positive roots of J into, and so onto, themselves, and so it
    permutes their simple roots; conversely a w that permutes them meets
    both conditions (Howlett, "Normalizers of parabolic subgroups of
    reflection groups", J. London Math. Soc. (2) 21, 1980).  A J that
    leaves one node out has no candidate, since J + k would be every
    node, so it returns () before w0(J) is built.

    w(alpha_j) is column j of w's matrix on V, which is mat(w)^-T (each
    s_i acts on V by mat(s_i)^T = mat(s_i)^-1), so it is row j of
    mat(w^-1), and ss_k^-1 = w0(J) w0(J+k).  A qualifying ss_k equals it:
    w0(J+k) then sends the simple roots of J to minus a permutation of
    them, as w0(J) does, so it normalizes W_J and, under conjugation,
    fixes w0(J), the one element of W_J that negates every positive root
    of J; the two commute, and ss_k^2 = 1.

    Raises NodeSubsetError naming every k whose candidate fails, since
    some J genuinely admit none.
    """
    check_node_subset(datum, J)
    J = tuple(sorted(set(J)))
    if len(J) == datum.n:
        return ()
    w0J = longest_element(datum, J)
    generators = []
    failures = []
    for k in range(datum.n + 1):
        if k in J:
            continue
        ss = multiply(w0J, longest_element(datum, J + (k,)))  # ss_k^-1
        if _permutes_simple_roots(ss, J):
            generators.append((k, ss))
        else:
            failures.append(k)
    if failures:
        raise NodeSubsetError("J admits no minimal-coset generator ss_k"
                              f" for k in {tuple(failures)}")
    return tuple(generators)


def level_restriction(mat, marks):
    """n_0 times the level-0 part of a level-preserving map `mat` on the
    span of b'_k over nodes of marks `marks`, base node first: an image of
    u_k = b'_k - (n_k / n_0) b'_0 has its other entries as u-coordinates,
    so column k is n_0 (column k of mat) - n_k (column 0), base row off."""
    n0 = marks[0]
    return tuple(tuple(n0 * row[c] - n * row[0]
                       for c, n in enumerate(marks[1:], 1))
                 for row in mat[1:])


def element_order(w):
    """Order of w: a positive integer, or math.inf.

    The linear part of w lies in the finite group W0, so some power w^k
    has identity linear part.  That w^k is a translation: the identity
    when w has order k, and of infinite order otherwise (Humphreys,
    Reflection Groups and Coxeter Groups, 4.2).  No earlier power is the
    identity, since the identity's linear part is the identity.
    """
    datum = w.datum
    eye = linalg.identity_mat(datum.n + 1)
    small_eye = linalg.identity_mat(datum.n)
    power = w.mat
    for k in range(1, _STEP_CAP + 1):
        if power == eye:
            return k
        # the affine node's mark is 1, so this is the linear part itself
        if level_restriction(power, datum.marks) == small_eye:
            return math.inf
        power = linalg.mat_mul(power, w.mat)
    raise InternalConsistencyError("order search exceeded the step cap")


def quotient_generators(datum, J):
    """The ss_k generators of the quotient Coxeter system.  A J that
    leaves one node out has no generators, and so no matrix; a J with a
    failing candidate has none either."""
    if len(set(J)) == datum.n:
        raise NodeSubsetError("the quotient Coxeter matrix needs J to leave"
                              " at least two nodes out")
    return min_coset_generators(datum, J)


def quotient_coxeter_matrix(gens):
    """Matrix of pairwise orders m(k, k') of the quotient generators
    `gens`, pairs (k, ss_k) from `quotient_generators`."""
    size = len(gens)
    matrix = [[1] * size for _ in range(size)]
    for a in range(size):
        for b in range(a + 1, size):
            order = element_order(multiply(gens[a][1], gens[b][1]))
            matrix[a][b] = order
            matrix[b][a] = order
    return tuple(tuple(row) for row in matrix)
