"""Self-dual Lie lattices in the rank-3 model and their truncated
lattice-variety point sets.

The curated Lie datum is the rank-3 simple algebra with basis (e, h, f),
brackets [h,e]=2e, [h,f]=-2f, [e,f]=h, and Killing Gram matrix
[[0,0,4],[0,8,0],[4,0,0]] of determinant -128, a unit for p >= 3.

All computations happen in scaled coordinates: a lattice L with
p^n L_0 <= L <= p^-n L_0 is stored as the integer lattice
Lam = p^n L (in the L_0 basis), so that p^(2n) Z^3 <= Lam <= Z^3, and is
canonicalized by `canonical` as the Hermite form (`linalg.hnf`, the one
the library has) of its generators together with p^(2n) times the
identity.  The quotient Z = L / p^n L_0 is Lam modulo p^(2n); the
deeper quotient Z_1 is Lam modulo p^(3n).

The points come from the Bruhat-Tits tree of PGL2(Q_p) (Serre, Trees,
II.1): they are the lattices ad(g) L_0 for the vertices g L_0 within
distance n of the base vertex.  The Killing form is ad-invariant, so each
is self-dual and bracket-closed, and `tree_points` forms each vertex once
from an upper-triangular representative, integer-only, with
`VERTEX_BUDGET` bounding the ball it forms.  `enumerate_X_n` tests
every tree point for self-duality by two routes and certifies the points
on which they agree: the isotropic stratum reads d off the Hermite
diagonal and the pairing on the basis rows (`is_self_dual_isotropic`),
and the direct route asks for a fixed point of the dual, `sharp`.
Neither route tests the bracket, since on a self-dual lattice closure
under it cannot fail:

(a) K([u, v], w) is alternating in u, v, as the bracket is, and by
    invariance it is K(u, [v, w]), alternating in v, w.  On a rank-3
    module it is then its value on the basis times the determinant:
    K([u, v], w) = K([e, h], f) det(u, v, w) = -8 det(u, v, w).  On the
    isotropic stratum d = 3n, so the Hermite basis has det p^(3n), and the
    27 values on basis rows that `is_lie_closed` tests, 0 or +-8 p^(3n),
    vanish modulo p^(3n) by construction.
(b) For odd p, GRAM has the unit determinant -128, so L_0 and every
    self-dual L = p^-n Lam are unimodular Z_p-lattices on one ternary
    quadratic space, and over a non-dyadic field those are classified by
    rank and discriminant (O'Meara, Introduction to Quadratic Forms,
    §92): some isometry s has s L_0 = L, and -s too, as -L = L; the rank
    is odd, so one of them lies in SO(sl2, K).  Ad: PGL2(Q_p) ->
    SO(sl2, K) is an isomorphism, so L = ad(g) L_0, a tree vertex, and
    bracket-closed, as ad(g) is a Lie automorphism.  With the Cartan
    decomposition g = k diag(p^a, 1) k', k and k' in PGL2(Z_p), L is
    ad(k)(p^a Z_p e + Z_p h + p^-a Z_p f), in the window exactly when
    the vertex's distance |a| is at most n: the scan's self-dual
    lattices are the tree points.

The exhaustive scan is the independent route the registry checks the
tree against.  Its candidates are upper-triangular Hermite bases with
p-power diagonal; only off-diagonal entries that satisfy the congruences
for containing p^(2n) Z^3 are ever formed, and `SCAN_BUDGET` bounds how
many are tested.  d is read from the Hermite diagonal, and `sharp` is a
triangular back-substitution whose rows, each divided by a p-unit, are
the dual's Hermite form once the entries above the pivots are reduced.
Both self-duality routes read a single pass over the candidates.  At
(p, n) = (3, 1) the pass sees 445 candidates and at (3, 2) 67,969, which
run in under a second; (5, 2) has 2,890,693 and stops at `SCAN_BUDGET`'s
200,000, while the tree has 37 vertices there.
Both budgets are module constants, read at each call and charged through
`errors.charge` before the work they bound, as every budget is.
"""

import itertools
from math import gcd

from . import linalg
from .errors import (
    PreconditionError,
    StructuralError,
    capped_power,
    charge,
    require_int,
    require_prime,
)

RANK = 3

# Structure constants: BRACKET[i][j] = [b_i, b_j] in the (e, h, f) basis.
BRACKET = (
    ((0, 0, 0), (-2, 0, 0), (0, 1, 0)),
    ((2, 0, 0), (0, 0, 0), (0, 0, -2)),
    ((0, -1, 0), (0, 0, 2), (0, 0, 0)),
)

GRAM = ((0, 0, 4), (0, 8, 0), (4, 0, 0))


def killing_gram():
    """Killing Gram matrix recomputed from the structure constants: the
    matrix of ad(b_i) has the entry BRACKET[i][m][k] in row k and column
    m, so tr(ad(b_i) ad(b_j)) is the sum over k and m of
    BRACKET[i][m][k] * BRACKET[j][k][m], read with no matrix product."""
    span = range(RANK)
    return tuple(
        tuple(sum(BRACKET[i][m][k] * BRACKET[j][k][m]
                  for k in span for m in span)
              for j in span)
        for i in span)


def bracket(u, v):
    out = [0] * RANK
    for i in range(RANK):
        if not u[i]:
            continue
        for j in range(RANK):
            if not v[j]:
                continue
            for k in range(RANK):
                out[k] += u[i] * v[j] * BRACKET[i][j][k]
    return tuple(out)


def pairing(u, v):
    return sum(u[i] * GRAM[i][j] * v[j]
               for i in range(RANK) for j in range(RANK))


def check_datum(p):
    """Constructor checks: p prime, Killing nondegeneracy mod p, recomputed
    Gram matrix.  GRAM has determinant -128 = -2^7, so the form
    degenerates mod p exactly when p = 2."""
    require_prime(p)
    if p == 2:
        raise PreconditionError(
            "the Killing form degenerates in characteristic 2")
    if killing_gram() != GRAM:
        raise StructuralError("stored Gram matrix is inconsistent")
    return True


class LatticeSubmodule:
    """A submodule of the rank-3 truncation, stored as the canonical
    Hermite basis matrix of its integer-lattice preimage.  It checks
    nothing: `tree_points` and `candidates`, which form every submodule
    the library builds, check the window (p, n) before either forms
    one.  A slotted record, equal and hashed by (p, n, basis), and
    immutable by convention: nothing assigns to one after `__init__`."""

    __slots__ = ("p", "n", "basis")

    def __init__(self, p, n, basis):
        self.p = p
        self.n = n
        self.basis = basis  # canonical upper-triangular integer matrix, rows

    def __eq__(self, other):
        if type(other) is not LatticeSubmodule:
            return NotImplemented
        return (self.p, self.n, self.basis) == (other.p, other.n, other.basis)

    def __hash__(self):
        return hash((self.p, self.n, self.basis))

    def __repr__(self):
        return (f"LatticeSubmodule(p={self.p}, n={self.n},"
                f" basis={self.basis})")

    @property
    def modulus(self):
        return self.p ** (2 * self.n)


def canonical(p, n, rows):
    """The Hermite basis of the lattice rows and D Z^3 span, D = p^(2n):
    `linalg.hnf` of D e_0, D e_1, D e_2, then the rows modulo D, so each
    column's pivot starts at D e_c.  It checks nothing: `tree_points`, its
    one caller, and `candidates` check the window before either forms one."""
    scale = p ** (2 * n)
    return LatticeSubmodule(p=p, n=n, basis=linalg.hnf(
        [[scale, 0, 0], [0, scale, 0], [0, 0, scale]]
        + [[x % scale for x in row] for row in rows]))


def d_invariant(z):
    """d of the quotient Lam / p^(2n) Z^3: the co-exponent sum of the
    Smith form.  The Smith exponents sum to log_p |det B|, as do the
    exponents of the Hermite diagonal, which are read instead."""
    d = 0
    for i in range(RANK):
        x = abs(z.basis[i][i])
        if not x:
            raise StructuralError("basis is not of full rank")
        d += 2 * z.n
        while x % z.p == 0:
            x //= z.p
            d -= 1
        if x != 1:
            raise StructuralError("index has a factor prime to p")
    return d


def is_self_dual_isotropic(z):
    """Membership in the middle isotropic stratum: d equals n*RANK and
    the induced pairing vanishes identically."""
    if d_invariant(z) != z.n * RANK:
        return False
    mod = z.modulus
    return all(pairing(u, v) % mod == 0
               for u in z.basis for v in z.basis)


def is_lie_closed(z):
    """Vanishing of the induced trilinear form on the preimage modulo
    p^(3n) (membership in the bracket-closed stratum)."""
    if not is_self_dual_isotropic(z):
        raise PreconditionError("submodule is not in the isotropic stratum")
    mod = z.p ** (3 * z.n)
    rows = list(z.basis)
    return all(pairing(bracket(u, v), w) % mod == 0
               for u in rows for v in rows for w in rows)


def _exact(num, den):
    """num / den for a lattice that contains p^(2n) Z^3; a remainder means
    it does not, and then its dual is not inside Z^3."""
    q, r = divmod(num, den)
    if r:
        raise PreconditionError("dual lattice leaves the truncation window")
    return q


def sharp(z):
    """The dual submodule under the Killing pairing; an involution.

    Row j of the dual is column j of D (B GRAM)^-1, D = p^(2n), that is
    row j of D B^-T GRAM^-1.  B^-T is lower triangular and GRAM^-1 =
    [[0,0,1/4],[0,1/8,0],[1/4,0,0]] reverses columns, so the dual rows
    read bottom-up are upper triangular: with y_j = D B^-1 e_j, found by
    back-substitution, they are (y_2[2]/4, y_2[1]/8, y_2[0]/4),
    (0, y_1[1]/8, y_1[0]/4) and (0, 0, y_0[0]/4).  A back-substitution
    that is not integral raises PreconditionError: Lam does not contain
    D Z^3, so its dual is not inside Z^3.

    The Hermite basis is read off these rows, with no elimination:
    - The rows span the dual over Z_(p), where 1/4 and 1/8 are units,
      and the dual contains D Z_(p)^3: Lam <= Z^3 gives
      Z^3 <= Z^3 B^-T, and GRAM, of determinant -128, is a p-unit, so
      Z_(p)^3 GRAM^-1 = Z_(p)^3.
    - Multiplying a row by a p-unit keeps the span, so rows 4, 8 and 4
      times the above, (y_2[2], y_2[1]/2, y_2[0]), (0, y_1[1],
      2 y_1[0]) and (0, 0, y_0[0]), span it too.  The entry y_2[1]/2 is
      taken as y_2[1] (D + 1)/2, equal modulo D, and a change by a
      multiple of D keeps each row in the dual.
    - Call these integer rows T.  The diagonal of T is D/d2, D/d1, D/d0,
      p-powers in [1, D], so T spans a lattice of the dual's index; it
      lies in the dual, so over Z_(p) it is the dual and contains
      D Z_(p)^3.  The back-substitution of D e_c against T divides only
      by those p-powers, so it is integral: T spans the dual's preimage
      in Z^3 with no help from D Z^3.  A pivot that is 0 modulo D stands
      as D; then d_i = 1 makes the entries of B above it 0 (B is a
      Hermite basis), so y_2[1] = y_2[0] = 0 when d2 = 1, y_1[0] = 0
      when d1 = 1, and the row is 0 modulo D apart from its pivot.
    - Reducing the entries above each pivot into [0, pivot), column 1
      and then column 2 as `linalg.hnf` does, subtracts multiples of a
      lower row, which keeps the span.  The result is upper triangular
      with positive diagonal and reduced entries: the unique Hermite
      basis of the dual, the one `canonical` returns."""
    (d0, x01, x02), (_, d1, x12), (_, _, d2) = z.basis
    scale = z.p ** (2 * z.n)
    y22 = _exact(scale, d2)
    y21 = _exact(-x12 * y22, d1)
    y20 = _exact(-x01 * y21 - x02 * y22, d0)
    y11 = _exact(scale, d1)
    y10 = _exact(-x01 * y11, d0)
    y00 = _exact(scale, d0)
    a01 = y21 * ((scale + 1) // 2)
    a12 = 2 * y10
    q = a01 // y11
    return LatticeSubmodule(p=z.p, n=z.n, basis=(
        (y22, a01 - q * y11, (y20 - q * a12) % y00),
        (0, y11, a12 % y00),
        (0, 0, y00)))


def _hermite_candidates(p, n):
    """All upper-triangular Hermite bases B = [[d0, x01, x02], [0, d1,
    x12], [0, 0, d2]] with p-power diagonal whose lattice contains
    D Z^3, D = p^(2n): diagonal exponents outermost, then x01, x02 and
    x12 ascending, each off-diagonal entry in [0, pivot below it).

    Containment is the integrality of the back-substitution of D e_i
    against B, three congruences (HNF modulo D, Cohen 2.4):
      d1 | c0 x01 with c0 = D/d0,
      d2 | (D/d1) x12,
      d2 | c0 x02 + c1 x12 with c1 = -c0 x01/d1.
    The first two make x01 and x12 run over the multiples of a step.  With
    x12 = s12 y the third is A y = -c0 x02 mod d2, A = c1 s12, which is
    solvable exactly when g = gcd(A, d2) divides c0 x02, and then its
    solutions y form one class modulo d2/g.  Only these tuples are
    formed, and every one is yielded."""
    scale = p ** (2 * n)
    for a in itertools.product(range(2 * n + 1), repeat=RANK):
        d0, d1, d2 = (p ** e for e in a)
        row2 = (0, 0, d2)
        c0 = scale // d0
        s01 = d1 // gcd(c0, d1)
        s12 = d2 // gcd(scale // d1, d2)
        for x01 in range(0, d1, s01):
            c1 = -c0 * x01 // d1
            g = gcd(c1 * s12, d2)
            period = d2 // g
            inverse = pow(c1 * s12 // g, -1, period)
            for x02 in range(0, d2, g // gcd(g, c0)):
                row0 = (d0, x01, x02)
                y0 = -c0 * x02 // g * inverse % period
                for x12 in range(s12 * y0, d2, s12 * period):
                    yield row0, (0, d1, x12), row2


def _check_window(p, n):
    """check_datum(p), and the window's radius n a nonnegative int."""
    check_datum(p)
    require_int("lattice radius", n)
    if n < 0:
        raise PreconditionError(f"lattice radius n={n} is negative")


def candidates(p, n):
    """Every lattice p^(2n) Z^3 <= Lam <= Z^3, one submodule per
    canonical basis.  The window (p, n) is checked when candidates is
    called, before the first candidate is formed."""
    _check_window(p, n)
    return (LatticeSubmodule(p=p, n=n, basis=rows)
            for rows in _hermite_candidates(p, n))


def _is_self_dual(z):
    """sharp(z) == z; a dual that leaves the window is not z."""
    try:
        return sharp(z).basis == z.basis
    except PreconditionError:
        return False


def _certify(vertices):
    """(points, direct_count) for an iterable of lattices: the points
    that pass the isotropic route (d and the pairing), sorted by basis,
    cross-checked against those that pass the direct one (`sharp` fixes
    the lattice).  Neither tests the bracket, which cannot fail on a
    self-dual lattice (lemmas (a) and (b) of the module docstring)."""
    points = []
    direct = []
    for z in vertices:
        if is_self_dual_isotropic(z):
            points.append(z)
        if _is_self_dual(z):
            direct.append(z)
    if {z.basis for z in direct} != {z.basis for z in points}:
        raise StructuralError("the two enumeration routes disagree")
    points.sort(key=lambda z: z.basis)
    return points, len(direct)


# Candidates the exhaustive scan tests.
SCAN_BUDGET = 200000

# Tree vertices enumerate_X_n forms: the largest sizes it admits, such as
# (97, 2) with 9,605 vertices, take under a second.
VERTEX_BUDGET = 10000


def _scan(p, n):
    """The candidates, each charged against SCAN_BUDGET before it is
    yielded.  The candidate stream forms no tuple it does not yield, so
    counting the candidates here bounds the work."""
    work = f"lattice candidate scan at p={p}, n={n}"
    for count, z in enumerate(candidates(p, n), start=1):
        charge(work, count, SCAN_BUDGET)
        yield z


def enumerate_self_dual(p, n):
    """All lattices Lam with p^(2n) Z^3 <= Lam <= Z^3 and sharp(Lam) =
    Lam, canonically presented (the direct route), sorted by basis."""
    return sorted((z for z in _scan(p, n) if _is_self_dual(z)),
                  key=lambda z: z.basis)


def enumerate_isotropic(p, n):
    """All submodules in the middle isotropic stratum (the quotient-side
    route), sorted by basis."""
    return sorted((z for z in _scan(p, n) if is_self_dual_isotropic(z)),
                  key=lambda z: z.basis)


def scan_points(p, n):
    """`_certify` on the exhaustive candidate scan: the isotropic route
    tests d and the pairing, the direct route `sharp`; returns (points,
    direct_count).  SCAN_BUDGET counts candidates."""
    return _certify(_scan(p, n))


def tree_points(p, n):
    """The lattices ad(g) L_0 for the vertices g L_0 of the Bruhat-Tits
    tree within distance n of the base, sorted by basis.

    Each vertex at distance k comes once from a primitive
    g = [[p^a, b], [0, p^c]], a + c = k, 0 <= b < p^a, where primitive
    means a = 0, c = 0 or p does not divide b (Serre, Trees, II.1).
    ad(g) sends e, h, f to p^(a-c) e, h - 2b p^-c e and
    p^(c-a) f + b p^-a h - b^2 p^-k e; scaled by p^n the rows are
    integral for k <= n.  Distance k >= 1 has (p+1) p^(k-1) vertices, so
    the walk forms the ball's 1 + (p+1)(p^n - 1)/(p - 1), charged against
    VERTEX_BUDGET before the first.  A vertex whose canonical diagonal is
    not p^(3n), the index of every self-dual lattice in the window, or two
    vertices with one canonical basis, raise StructuralError."""
    _check_window(p, n)
    charge(f"lattice tree walk of 1 + {p + 1}({p}^{n} - 1)/{p - 1} vertices",
           1 + (p + 1) * (capped_power(p, n, VERTEX_BUDGET) - 1) // (p - 1),
           VERTEX_BUDGET)
    pn = p ** n
    window = p ** (3 * n)
    points = []
    for k in range(n + 1):
        for a in range(k + 1):
            c = k - a
            for b in range(p ** a):
                if a and c and b % p == 0:
                    continue
                z = canonical(p, n, (
                    (p ** (n + a - c), 0, 0),
                    (-2 * b * p ** (n - c), pn, 0),
                    (-b * b * p ** (n - k), b * p ** (n - a),
                     p ** (n + c - a))))
                (d0, _, _), (_, d1, _), (_, _, d2) = z.basis
                if d0 * d1 * d2 != window:
                    raise StructuralError(
                        "a tree vertex leaves the truncation window")
                points.append(z)
    points.sort(key=lambda z: z.basis)
    if any(x.basis == y.basis for x, y in zip(points, points[1:])):
        raise StructuralError("two tree vertices give the same lattice")
    return points


def enumerate_X_n(p, n):
    """`_certify` on the tree points: the isotropic route tests d and the
    pairing, the direct route `sharp`; returns (points, direct_count).
    VERTEX_BUDGET counts tree vertices."""
    return _certify(tree_points(p, n))


def _kernel_closed(phi, q):
    """Whether ker phi is bracket-closed mod q, for a functional phi whose
    first nonzero entry is 1.  The bracket is alternating, so every
    bracket of two vectors of the plane spanned by u, v is a multiple of
    [u, v], and the plane is closed exactly when phi([u, v]) = 0 mod q."""
    lead = phi.index(1)
    u, v = (tuple(-phi[j] if i == lead else int(i == j) for i in range(RANK))
            for j in range(RANK) if j != lead)
    return sum(a * b for a, b in zip(phi, bracket(u, v))) % q == 0


def borel_fiber_count(q):
    """Number of two-dimensional bracket-closed subspaces of the mod-p
    reduction; for the curated algebra this is q + 1.  Each plane is the
    kernel of one functional, normalised so its first nonzero entry is 1
    (one per projective point)."""
    check_datum(q)
    return sum(_kernel_closed(phi, q)
               for phi in itertools.product(range(q), repeat=RANK)
               if next((x for x in phi if x), 0) == 1)
