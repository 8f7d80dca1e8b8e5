"""Affine Cartan data for the untwisted families.

A `CartanDatum` carries the (n+1) x (n+1) integer pairing matrix
a[i][j] = <alpha_i, h_j> over the node set [0, n] together with the
marks n_i (the unique positive integers with sum_i n_i alpha_i = 0 and
n_0 = 1).  The affine row and column are derived from the finite root
system: alpha_0 = -theta for the highest root theta, h_0 = -theta_vee.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import StructuralError, UnsupportedLabelError

MAX_RANK = 8


@dataclass(frozen=True)
class CartanDatum:
    label: str
    n: int
    pairing: tuple  # pairing[i][j] = <alpha_i, h_j>, integers
    marks: tuple    # n_i > 0, marks[0] == 1

    def __post_init__(self):
        _validate(self)

    def __repr__(self):
        return f"CartanDatum({self.label})"


def _validate(datum):
    n = datum.n
    a = datum.pairing
    marks = datum.marks
    if len(a) != n + 1 or any(len(row) != n + 1 for row in a):
        raise StructuralError("pairing matrix has wrong shape")
    if len(marks) != n + 1:
        raise StructuralError("marks have wrong length")
    if marks[0] != 1:
        raise StructuralError("n_0 must equal 1")
    if any(m <= 0 for m in marks):
        raise StructuralError("marks must be positive")
    for i in range(n + 1):
        if a[i][i] != 2:
            raise StructuralError("pairing diagonal must be 2")
        for j in range(n + 1):
            if i != j and a[i][j] > 0:
                raise StructuralError("off-diagonal pairings must be <= 0")
            if (a[i][j] == 0) != (a[j][i] == 0):
                raise StructuralError("pairing zero pattern must be symmetric")
    for j in range(n + 1):
        if sum(marks[i] * a[i][j] for i in range(n + 1)) != 0:
            raise StructuralError("marks do not annihilate the pairing")
    # Connectedness of the node graph.
    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in range(n + 1):
            if j not in seen and a[i][j] != 0 and i != j:
                seen.add(j)
                frontier.append(j)
    if len(seen) != n + 1:
        raise StructuralError("node graph is disconnected")


def _chain(n):
    return [(i, i + 1) for i in range(1, n)]


def _finite_cartan(family, rank):
    """Finite Cartan matrix a[i][j] = 2(a_i,a_j)/(a_j,a_j), nodes 1..rank."""
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def bond(i, j, aij=-1, aji=-1):
        a[i - 1][j - 1] = aij
        a[j - 1][i - 1] = aji

    if family == "A":
        if rank < 1:
            raise UnsupportedLabelError("A requires rank >= 1")
        for i, j in _chain(rank):
            bond(i, j)
    elif family == "B":
        if rank < 3:
            raise UnsupportedLabelError("B requires rank >= 3 (use C for rank 2)")
        for i, j in _chain(rank - 1):
            bond(i, j)
        bond(rank - 1, rank, -2, -1)  # alpha_rank short
    elif family == "C":
        if rank < 2:
            raise UnsupportedLabelError("C requires rank >= 2")
        for i, j in _chain(rank - 1):
            bond(i, j)
        bond(rank - 1, rank, -1, -2)  # alpha_rank long
    elif family == "D":
        if rank < 4:
            raise UnsupportedLabelError("D requires rank >= 4")
        for i, j in _chain(rank - 2):
            bond(i, j)
        bond(rank - 2, rank - 1)
        bond(rank - 2, rank)
    elif family == "E":
        if rank not in (6, 7, 8):
            raise UnsupportedLabelError("E requires rank in {6,7,8}")
        # Bourbaki numbering: chain 1-3-4-5-...-rank, node 2 attached to 4.
        bond(1, 3)
        bond(3, 4)
        bond(2, 4)
        for i in range(4, rank):
            bond(i, i + 1)
    elif family == "F":
        if rank != 4:
            raise UnsupportedLabelError("F requires rank 4")
        bond(1, 2)
        bond(2, 3, -2, -1)  # alpha_3, alpha_4 short
        bond(3, 4)
    elif family == "G":
        if rank != 2:
            raise UnsupportedLabelError("G requires rank 2")
        bond(1, 2, -1, -3)  # alpha_1 long, alpha_2 short
    else:
        raise UnsupportedLabelError(f"unknown family {family!r}")
    return a


def _positive_roots(cartan):
    """All positive roots as coefficient vectors over the simple roots."""
    rank = len(cartan)
    simple = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        beta = frontier.pop()
        for i in range(rank):
            pairing = sum(beta[j] * cartan[j][i] for j in range(rank))
            new = list(beta)
            new[i] -= pairing
            new = tuple(new)
            if all(c >= 0 for c in new) and any(c > 0 for c in new):
                if new not in roots:
                    roots.add(new)
                    frontier.append(new)
    return roots


def _symmetrizers(cartan):
    """d_i with d_j * a_ij = d_i * a_ji, scaled to coprime integers."""
    rank = len(cartan)
    d = [None] * rank
    d[0] = Fraction(1)
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in range(rank):
            if i != j and cartan[i][j] != 0 and d[j] is None:
                d[j] = d[i] * cartan[j][i] / cartan[i][j]
                frontier.append(j)
    scale = min(x for x in d)
    d = [x / scale for x in d]
    if any(x.denominator != 1 for x in d):
        raise StructuralError("non-integral symmetrizers")
    return [int(x) for x in d]


def _affinize(label, cartan):
    rank = len(cartan)
    roots = _positive_roots(cartan)
    theta = max(roots, key=sum)
    if sum(1 for r in roots if sum(r) == sum(theta)) != 1:
        raise StructuralError("highest root is not unique")
    c = list(theta)
    d = _symmetrizers(cartan)
    dmax = max(d)
    # Coefficients of theta_vee over the simple coroots.
    cvee = []
    for k in range(rank):
        num = c[k] * d[k]
        if num % dmax != 0:
            raise StructuralError("non-integral dual marks")
        cvee.append(num // dmax)
    size = rank + 1
    a = [[0] * size for _ in range(size)]
    a[0][0] = 2
    for i in range(rank):
        for j in range(rank):
            a[i + 1][j + 1] = cartan[i][j]
    for j in range(rank):
        a[0][j + 1] = -sum(c[k] * cartan[k][j] for k in range(rank))
        a[j + 1][0] = -sum(cvee[k] * cartan[j][k] for k in range(rank))
    if 2 + sum(c[k] * a[k + 1][0] for k in range(rank)) != 0:
        raise StructuralError("affine row/column inconsistent")
    marks = tuple([1] + c)
    return CartanDatum(
        label=label,
        n=rank,
        pairing=tuple(tuple(row) for row in a),
        marks=marks,
    )


def cartan_datum(label):
    """Affine Cartan datum for a type tag like "A1", "C2", "D6", "G2"."""
    if not isinstance(label, str):
        raise UnsupportedLabelError(f"bad type label {label!r}")
    text = label.strip().replace("~", "")
    if not text or text[0].upper() not in "ABCDEFG":
        raise UnsupportedLabelError(f"bad type label {label!r}")
    family = text[0].upper()
    try:
        rank = int(text[1:])
    except ValueError:
        raise UnsupportedLabelError(f"bad type label {label!r}") from None
    if rank > MAX_RANK:
        raise UnsupportedLabelError(f"rank {rank} exceeds the supported cap {MAX_RANK}")
    return _affinize(f"{family}{rank}", _finite_cartan(family, rank))
