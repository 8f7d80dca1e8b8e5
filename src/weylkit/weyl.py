"""Affine Weyl group elements in matrix canonical form.

An element w of the affine Weyl group W' acts linearly on V-dagger in
the b'-basis; that integer matrix is the canonical form (the affine
translation behaviour is encoded by the level-1 slice, so no separate
translation vector is needed).  The contragredient action on V is
carried alongside so descent sets on either side are sign checks.
The pair keeps the invariant dual = mat^-T: it holds for every simple
reflection (dual = mat^T and mat^2 = 1), and products keep it.
`check_node_subset` is the one node-subset refusal that
`longest_element`, `min_coset_generators` and `alcove.grid_nodes` share.

Simple reflections: s_i(b'_j) = b'_j - delta_ij h_i with h_i the i-th
column of the pairing matrix, and s_i(b_j) = b_j - a_ji b_i on V.
"""

import math
from dataclasses import dataclass

from . import linalg
from .errors import (
    InternalConsistencyError,
    NodeSubsetError,
    PreconditionError,
)

_STEP_CAP = 100000


@dataclass(frozen=True, eq=False)
class WeylElement:
    datum: object
    mat: tuple   # action on V-dagger (b'-basis)
    dual: tuple  # action on V (b-basis)

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
    eye = linalg.identity_mat(datum.n + 1)
    return WeylElement(datum, eye, eye)


def simple_reflection(datum, i):
    size = datum.n + 1
    a = datum.pairing
    mat = tuple(
        tuple((1 if k == j else 0) - (a[k][i] if j == i else 0)
              for j in range(size))
        for k in range(size)
    )
    dual = tuple(
        tuple((1 if k == j else 0) - (a[j][i] if k == i else 0)
              for j in range(size))
        for k in range(size)
    )
    return WeylElement(datum, mat, dual)


def multiply(a, b):
    if a.datum.label != b.datum.label:
        raise PreconditionError(
            f"cannot multiply over {a.datum.label} and {b.datum.label}")
    return WeylElement(a.datum, linalg.mat_mul(a.mat, b.mat),
                       linalg.mat_mul(a.dual, b.dual))


def _negative_roots(roots, what):
    """Indices i whose root roots[i], a sign-coherent nonzero integer
    vector, is negative; `what` names the vectors for the error."""
    out = []
    for i, root in enumerate(roots):
        low, high = min(root), max(root)
        if low < 0 < high or low == high == 0:
            raise InternalConsistencyError(
                f"matrix {what} is not a root vector")
        if high <= 0:
            out.append(i)
    return out


def left_descents(w):
    """Nodes i with l(s_i w) < l(w): row i of the V-dagger matrix is <= 0."""
    return _negative_roots(w.mat, "row")


def right_descents(w):
    """Nodes i with l(w s_i) < l(w): w(b_i), column i of the V matrix, is
    a negative root."""
    return _negative_roots(tuple(zip(*w.dual)), "column")


def word_str(w):
    word = w.word()
    return "*".join(f"s{i}" for i in word) if word else "1"


def check_node_subset(datum, J):
    """Refuse a J that is every node, or that names a node outside
    0..n."""
    if len(set(J)) == datum.n + 1:
        raise NodeSubsetError("J must be a proper node subset")
    if any(j < 0 or j > datum.n for j in J):
        raise PreconditionError("node index out of range")


def longest_element(datum, J):
    """Longest element of the finite parabolic W_J, J a proper node subset."""
    check_node_subset(datum, J)
    J = sorted(set(J))
    w = identity(datum)
    for _ in range(_STEP_CAP):
        descents = right_descents(w)
        ascent = next((j for j in J if j not in descents), None)
        if ascent is None:
            return w
        w = multiply(w, simple_reflection(datum, ascent))
    raise InternalConsistencyError("longest-element climb exceeded the step cap")


def _permutes_simple_roots(w, J):
    """Whether w permutes the simple roots of J: for each j in J, column j
    of w.dual, the root w(alpha_j), is a unit vector e_j' with j' in J."""
    simple = {tuple(int(i == j) for i in range(w.datum.n + 1)) for j in J}
    columns = tuple(zip(*w.dual))
    return all(columns[j] in simple for j in J)


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
        ss = multiply(longest_element(datum, J + (k,)), w0J)
        if _permutes_simple_roots(ss, J):
            generators.append((k, ss))
        else:
            failures.append(k)
    if failures:
        raise NodeSubsetError("J admits no minimal-coset generator ss_k"
                              f" for k in {tuple(failures)}")
    return tuple(generators)


def level_restriction(datum, mat):
    """Linear part of a level-preserving map, restricted to the level-0
    subspace in the basis t_k = b'_k - n_k b'_0 (k = 1..n)."""
    n = datum.n
    marks = datum.marks
    cols = []
    for k in range(1, n + 1):
        img = tuple(mat[j][k] - marks[k] * mat[j][0] for j in range(n + 1))
        cols.append(img[1:])
    return tuple(tuple(cols[k][j] for k in range(n)) for j in range(n))


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
        if level_restriction(datum, power) == small_eye:
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
