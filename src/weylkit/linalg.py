"""Small exact linear algebra kernel over Fraction and over the integers.

Matrices are tuples of tuples (rows) so they can be hashed and used as
dictionary keys; vectors are tuples.  Everything is dense and intended
for ranks up to about nine.

Span and rank questions go through `EchelonBasis`, an incremental row
echelon basis over the integers: each incoming vector is reduced against
the stored primitive pivot rows, fraction-free in the manner of Bareiss
(1968), so a query costs one pass over the stored rows instead of a
fresh elimination.  A vector of ints (a bool is its int) is taken as it
is, one with a Fraction entry has its denominators cleared, and any
other entry is refused.  A step whose pivot divides the vector's entry
subtracts the multiple of the row in place, from the pivot column on,
where the row starts; any other step cross-multiplies and divides by
the gcd, so the vector stays primitive.  A basis with a pivot row for
every column spans Q^w and answers without reducing.  `rank` and
`in_span` are thin wrappers over it.

`hnf` is the one Hermite normal form, an extended-gcd elimination: `alcove`
puts the translation lattice L' in it, and `lattices.canonical` each
lattice of the Bruhat-Tits tree, with p^(2n) Z^3 among its generators.
`mat_inv`, the Gauss-Jordan `row_reduce` behind it and `snf_diag` have no
library caller.
"""

import bisect
import math
from fractions import Fraction

from .errors import PreconditionError

# The entry types a vector is taken in as it is: a bool is its int.
_INTS = frozenset((int, bool))


def identity_mat(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a, b):
    n, m, p = len(a), len(b), len(b[0])
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(m)) for j in range(p))
        for i in range(n)
    )


def mat_vec(a, v):
    return tuple(sum(row[k] * v[k] for k in range(len(v))) for row in a)


def mat_inv(a):
    """Inverse of a square matrix over Fraction: `row_reduce` of [A | I]."""
    n = len(a)
    rref, pivots = row_reduce([tuple(row) + unit
                               for row, unit in zip(a, identity_mat(n))])
    if pivots[:n] != tuple(range(n)):
        raise ZeroDivisionError("singular matrix")
    return tuple(row[n:] for row in rref)


def row_reduce(rows):
    """Reduced row echelon form; returns (rref rows, pivot columns)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return tuple(tuple(row) for row in mat), tuple(pivots)


class EchelonBasis:
    """Row echelon basis of a growing span over Q, kept as primitive
    integer rows with distinct pivot (leading) columns.

    `add(v)` reduces v against the stored rows and stores the remainder
    when it is nonzero; `contains(v)` reduces without storing; `len` is
    the rank of everything added so far.  v has int or Fraction entries;
    an int vector is reduced as it is.

    A stored row (p at its pivot column) meets an entry c of v.  When p
    divides c, the unit step subtracts (c / p) row from v, from the pivot
    column on, since the row is 0 left of it, with no gcd: v may leave
    it not primitive.  Otherwise it replaces v by (p v - c row) / g, p and
    c first divided by their gcd and g the gcd of the result.  Either
    way v becomes a positive multiple of itself less a multiple of the
    row.  So the remainder is a positive multiple of the one vector v less
    multiples of the rows that is 0 at every pivot column, and its
    primitive form with a positive lead, which `add` stores, does not
    depend on the factors the steps took.

    A basis of w-wide rows with a row for every column needs no steps.
    Its w pivot columns are distinct, so they are 0, ..., w - 1, and the
    rows, in pivot order, form a square upper triangular matrix with a
    nonzero diagonal.  That matrix is invertible, so the rows span Q^w,
    and every v of width w lies in the span: the remainder is 0, the
    vector that `contains` reads as True and `add` as nothing to store.
    The entry types are still checked first.
    """

    def __init__(self, rows=()):
        self._rows = []  # (pivot column, primitive row), ascending pivots
        for row in rows:
            self.add(row)

    def __len__(self):
        return len(self._rows)

    def _reduce(self, v):
        if set(map(type, v)) <= _INTS:
            vec = list(v)
        else:
            for x in v:
                if not isinstance(x, (int, Fraction)):
                    raise PreconditionError(
                        f"vector entry {x!r} is not an int or a Fraction")
            den = math.lcm(*(x.denominator for x in v))
            vec = [x.numerator * (den // x.denominator) for x in v]
        if len(self._rows) == len(vec):  # full rank: the span is Q^w
            return [0] * len(vec)
        for col, row in self._rows:
            c = vec[col]
            if c:
                p = row[col]
                if c % p:
                    g = math.gcd(p, c)
                    p, c = p // g, c // g
                    vec = [p * x - c * y for x, y in zip(vec, row)]
                    g = math.gcd(*vec)
                    if g > 1:
                        vec = [x // g for x in vec]
                else:
                    c //= p
                    vec[col:] = [x - c * y
                                 for x, y in zip(vec[col:], row[col:])]
        return vec

    def contains(self, v):
        """Whether v lies in the span of the rows added so far."""
        return not any(self._reduce(v))

    def add(self, v):
        """Add v to the span; True when it was not already in it."""
        vec = self._reduce(v)
        lead = next((i for i, x in enumerate(vec) if x), None)
        if lead is None:
            return False
        g = math.gcd(*vec) if vec[lead] > 0 else -math.gcd(*vec)
        bisect.insort(self._rows, (lead, [x // g for x in vec]))
        return True


def rank(rows):
    return len(EchelonBasis(rows))


def in_span(rows, v):
    """Whether v lies in the row span of `rows`."""
    return EchelonBasis(rows).contains(v)


def hnf(rows):
    """Row-style Hermite normal form of an integer matrix: the canonical
    basis of the lattice the rows span, row echelon, positive pivots, each
    entry above a pivot in [0, pivot).  Column by column (Cohen, A Course
    in Computational Algebraic Number Theory, 2.4) the first remaining row
    with a nonzero entry a is the pivot, made positive; each later row with
    a nonzero entry b is folded in, right of the column only, by (pivot,
    row) -> (s pivot + t row, u row - v pivot), g = gcd(a, b), u = a/g,
    v = b/g, s u + t v = 1 (unimodular; g and 0 in the column), and dropped
    if zero.  A finished pivot row reduces the rows above it."""
    work = [list(row) for row in rows]
    ncols = len(work[0]) if work else 0
    basis = []
    for c in range(ncols):
        for at, pivot in enumerate(work):
            if pivot[c]:
                break
        else:
            continue
        del work[at]
        pivot = [-x for x in pivot] if pivot[c] < 0 else pivot
        rest = work[:at]
        for row in work[at:]:
            if row[c]:
                g = math.gcd(pivot[c], row[c])
                u, v = pivot[c] // g, row[c] // g
                t = pow(v, -1, u)
                s = (1 - t * v) // u
                for k in range(c + 1, ncols):
                    pivot[k], row[k] = (s * pivot[k] + t * row[k],
                                        u * row[k] - v * pivot[k])
                pivot[c], row[c] = g, 0
                if not any(row):
                    continue
            rest.append(row)
        work = rest
        for i, upper in enumerate(basis):
            q = upper[c] // pivot[c]
            if q:
                basis[i] = [x - q * y for x, y in zip(upper, pivot)]
        basis.append(pivot)
    return tuple(map(tuple, basis))


def snf_diag(rows):
    """Diagonal of the Smith normal form of an integer matrix.

    Returns the nonzero invariant factors d_1 | d_2 | ... as positive
    integers.
    """
    mat = [list(row) for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    diag = []
    top = 0
    while top < min(nrows, ncols):
        if all(mat[i][j] == 0 for i in range(top, nrows) for j in range(top, ncols)):
            break
        while True:
            # Move a minimal nonzero entry to the (top, top) position.
            best = None
            for i in range(top, nrows):
                for j in range(top, ncols):
                    if mat[i][j] != 0 and (best is None or abs(mat[i][j]) < best[0]):
                        best = (abs(mat[i][j]), i, j)
            _, bi, bj = best
            mat[top], mat[bi] = mat[bi], mat[top]
            for row in mat:
                row[top], row[bj] = row[bj], row[top]
            if mat[top][top] < 0:
                mat[top] = [-x for x in mat[top]]
            dirty = False
            for i in range(top + 1, nrows):
                q = mat[i][top] // mat[top][top]
                if q:
                    mat[i] = [x - q * y for x, y in zip(mat[i], mat[top])]
                if mat[i][top] != 0:
                    dirty = True
            for j in range(top + 1, ncols):
                q = mat[top][j] // mat[top][top]
                if q:
                    for row in mat:
                        row[j] -= q * row[top]
                if mat[top][j] != 0:
                    dirty = True
            if dirty:
                continue
            # Enforce divisibility of the remaining block.
            d = mat[top][top]
            offender = None
            for i in range(top + 1, nrows):
                for j in range(top + 1, ncols):
                    if mat[i][j] % d != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            mat[top] = [x + y for x, y in zip(mat[top], mat[offender])]
        diag.append(mat[top][top])
        top += 1
    return tuple(diag)
