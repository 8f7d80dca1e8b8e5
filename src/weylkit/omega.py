"""The group Omega of special diagram automorphisms, Omega = P^v / Q^v.

The group Omega is computed, not tabulated: for every special node k
(mark 1) the translation by the vertex displacement b'_k - b'_0 is
folded back into the fundamental alcove by simple reflections; the
composite stabilizes the alcove and permutes its walls, which yields
the node permutation.  Since marks are preserved, the automorphism
acts on V-dagger by the plain permutation matrix of the b'-basis.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import linalg, weyl
from .errors import InternalConsistencyError, StructuralError


@dataclass(frozen=True, eq=False)
class DiagramAutomorphism:
    datum: object
    perm: tuple  # node i maps to perm[i]

    def __post_init__(self):
        a = self.datum.pairing
        marks = self.datum.marks
        p = self.perm
        size = self.datum.n + 1
        if sorted(p) != list(range(size)):
            raise StructuralError("not a permutation of the nodes")
        for i in range(size):
            if marks[p[i]] != marks[i]:
                raise StructuralError("marks not preserved")
            for j in range(size):
                if a[p[i]][p[j]] != a[i][j]:
                    raise StructuralError("pairings not preserved")

    def __eq__(self, other):
        if not isinstance(other, DiagramAutomorphism):
            return NotImplemented
        return self.datum.label == other.datum.label and self.perm == other.perm

    def __hash__(self):
        return hash((self.datum.label, self.perm))

    def __mul__(self, other):
        return DiagramAutomorphism(
            self.datum, tuple(self.perm[other.perm[i]] for i in range(len(self.perm))))

    def matrix(self):
        size = self.datum.n + 1
        return tuple(
            tuple(1 if self.perm[j] == i else 0 for j in range(size))
            for i in range(size)
        )

    def __repr__(self):
        return f"DiagramAutomorphism({self.datum.label}, {self.perm})"


def identity_automorphism(datum):
    return DiagramAutomorphism(datum, tuple(range(datum.n + 1)))


def _fold_to_alcove(datum, point):
    """Fold a rational level-1 point into the closed fundamental alcove.

    Returns (folded point, folding element as a V-dagger matrix u) with
    u(point) = folded.
    """
    size = datum.n + 1
    u = linalg.identity_mat(size)
    z = tuple(Fraction(x) for x in point)
    for _ in range(10000):
        neg = next((i for i in range(size) if z[i] < 0), None)
        if neg is None:
            return z, u
        s = weyl.simple_reflection(datum, neg).mat
        z = linalg.mat_vec(s, z)
        u = linalg.mat_mul(s, u)
    raise InternalConsistencyError("alcove folding did not terminate")


def _vertex_permutation(datum, mat):
    """Node permutation induced by an alcove-stabilizing map on V-dagger."""
    size = datum.n + 1
    vertices = [
        tuple(Fraction(1, datum.marks[i]) if j == i else Fraction(0)
              for j in range(size))
        for i in range(size)
    ]
    perm = []
    for i in range(size):
        image = linalg.mat_vec(mat, vertices[i])
        match = next((j for j in range(size) if image == vertices[j]), None)
        if match is None:
            raise InternalConsistencyError("vertex image is not a vertex")
        perm.append(match)
    return tuple(perm)


def omega_group(datum):
    """The full group Omega of special diagram automorphisms, sorted."""
    size = datum.n + 1
    marks = datum.marks
    barycenter = tuple(Fraction(1, size * marks[i]) for i in range(size))
    found = {identity_automorphism(datum)}
    for k in range(1, size):
        if marks[k] != 1:
            continue
        shift = tuple(
            (1 if j == k else 0) - (1 if j == 0 else 0) for j in range(size))
        translation = tuple(
            tuple((1 if r == c else 0) + shift[r] * marks[c] for c in range(size))
            for r in range(size)
        )
        moved = linalg.mat_vec(translation, barycenter)
        folded, u = _fold_to_alcove(datum, moved)
        if folded != barycenter:
            raise InternalConsistencyError(
                "translation by a special vertex does not stabilize the alcove")
        sigma = linalg.mat_mul(u, translation)
        perm = _vertex_permutation(datum, sigma)
        auto = DiagramAutomorphism(datum, perm)
        if auto.matrix() != sigma:
            raise InternalConsistencyError(
                "alcove stabilizer is not a basis permutation")
        found.add(auto)
    # Close under composition (Omega is a finite abelian group).
    frontier = list(found)
    while frontier:
        x = frontier.pop()
        for y in list(found):
            for z in (x * y, y * x):
                if z not in found:
                    found.add(z)
                    frontier.append(z)
    return sorted(found, key=lambda a: a.perm)

