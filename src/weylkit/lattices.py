"""Self-dual Lie lattices in the rank-3 model and their truncated
lattice-variety point sets.

The curated Lie datum is the rank-3 simple algebra with basis (e, h, f),
brackets [h,e]=2e, [h,f]=-2f, [e,f]=h, and Killing Gram matrix
[[0,0,4],[0,8,0],[4,0,0]] of determinant -128, a unit for p >= 3.

All computations happen in scaled coordinates: a lattice L with
p^n L_0 <= L <= p^-n L_0 is stored as the integer lattice
Lam = p^n L (in the L_0 basis), so that p^(2n) Z^3 <= Lam <= Z^3, and is
canonicalized as the Hermite form of its generators together with
p^(2n) times the identity.  The quotient Z = L / p^n L_0 is Lam modulo
p^(2n); the deeper quotient Z_1 is Lam modulo p^(3n).

The points come from the Bruhat-Tits tree of PGL2(Q_p) (Serre, Trees,
II.1): they are the lattices ad(g) L_0 for the vertices g L_0 within
distance n of the base vertex.  The Killing form is ad-invariant, so each
is self-dual and bracket-closed, and `tree_points` forms each vertex once
from an upper-triangular representative, integer-only, with `budget`
bounding the vertices formed.  `enumerate_X_n` tests every tree point by
both routes, the isotropic stratum (d, the pairing, the trilinear form)
and the direct one (a fixed point of the dual `sharp`, bracket closure),
and certifies the points on which they agree.

The exhaustive scan is the independent route the registry checks the
tree against.  Its candidates are upper-triangular Hermite bases with
p-power diagonal; only off-diagonal entries that satisfy the congruences
for containing p^(2n) Z^3 are ever formed, and `budget` bounds how many
are tested.  Membership of a vector in such a lattice ([u, v] in p^n Lam
for bracket closure) is one integer back-substitution, d is read from the
Hermite diagonal, and `sharp` is a triangular back-substitution followed
by a Hermite form modulo p^(2n).  Both strata routes read a single pass
over the candidates.  At (p, n) = (3, 1) the pass sees 445 candidates
and at (3, 2) 67,969, which run in seconds; (5, 2) has 2,890,693 and
stops at the default budget of 200,000, while the tree has 37 vertices
there.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import linalg
from .errors import BudgetError, PreconditionError, StructuralError

RANK = 3

# Structure constants: BRACKET[i][j] = [b_i, b_j] in the (e, h, f) basis.
BRACKET = (
    ((0, 0, 0), (-2, 0, 0), (0, 1, 0)),
    ((2, 0, 0), (0, 0, 0), (0, 0, -2)),
    ((0, -1, 0), (0, 0, 2), (0, 0, 0)),
)

GRAM = ((0, 0, 4), (0, 8, 0), (4, 0, 0))


def killing_gram():
    """Killing Gram matrix recomputed from the structure constants."""
    def ad(i):
        return tuple(tuple(BRACKET[i][j][k] for j in range(RANK))
                     for k in range(RANK))

    mats = [ad(i) for i in range(RANK)]
    return tuple(
        tuple(sum(linalg.mat_mul(mats[i], mats[j])[k][k]
                  for k in range(RANK))
              for j in range(RANK))
        for i in range(RANK))


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
    """Constructor checks: Killing nondegeneracy mod p, recomputed Gram
    matrix."""
    if p < 3:
        raise PreconditionError(
            "the Killing form degenerates in characteristic 2")
    if killing_gram() != GRAM:
        raise StructuralError("stored Gram matrix is inconsistent")
    det = linalg.mat_inv(tuple(tuple(Fraction(x) for x in row)
                               for row in GRAM))  # raises if singular
    del det
    return True


@dataclass(frozen=True)
class LatticeSubmodule:
    """A submodule of the rank-3 truncation, stored as the canonical
    Hermite basis matrix of its integer-lattice preimage."""
    p: int
    n: int
    basis: tuple  # canonical upper-triangular integer matrix, rows

    @property
    def modulus(self):
        return self.p ** (2 * self.n)


def canonical(p, n, rows):
    """Canonical basis of the lattice spanned by rows and p^(2n) Z^3.

    Hermite normal form modulo D = p^(2n) (Cohen, A Course in
    Computational Algebraic Number Theory, 2.4): the generators are the
    rows reduced modulo D plus the implicit D e_c.  Column c starts its
    pivot row at D e_c and folds in every generator with a nonzero entry
    there by an extended-gcd step, a unimodular change of two generators,
    so the spanned lattice never changes and entries past column c stay
    reducible modulo D.  The pivots divide D; last, the entries above each
    pivot are reduced into [0, pivot)."""
    scale = p ** (2 * n)
    work = [[int(x) % scale for x in row] for row in rows]
    basis = []
    for c in range(RANK):
        pivot = [0] * RANK
        pivot[c] = scale
        for row in work:
            a = row[c]
            if not a:
                continue
            top = pivot[c]
            g = gcd(top, a)
            # s * top + t * a = g, and (top/g, a/g) is the rest of a
            # unimodular 2x2 transform.
            u, v = top // g, a // g
            t = pow(v, -1, u)
            s = (g - t * a) // top
            for k in range(c + 1, RANK):
                pivot[k], row[k] = ((s * pivot[k] + t * row[k]) % scale,
                                    (u * row[k] - v * pivot[k]) % scale)
            pivot[c], row[c] = g, 0
        basis.append(pivot)
    for c in range(1, RANK):
        for k in range(c):
            q = basis[k][c] // basis[c][c]
            if q:
                basis[k] = [x - q * y for x, y in zip(basis[k], basis[c])]
    return LatticeSubmodule(p=p, n=n, basis=tuple(map(tuple, basis)))


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

    Row j of the dual is column j of p^(2n) (B GRAM)^-1, that is row j of
    p^(2n) B^-T GRAM^-1.  B^-T is lower triangular and GRAM^-1 =
    [[0,0,1/4],[0,1/8,0],[1/4,0,0]] reverses columns, so the dual rows
    read bottom-up are upper triangular: with y_j = p^(2n) B^-1 e_j,
    found by back-substitution, they are (y_2[2]/4, y_2[1]/8, y_2[0]/4),
    (0, y_1[1]/8, y_1[0]/4) and (0, 0, y_0[0]/4), with the units 1/4 and
    1/8 taken modulo p^(2n).  The basis is upper triangular with
    p-power diagonal, as every canonical basis is; a back-substitution
    that is not integral raises PreconditionError."""
    (d0, x01, x02), (_, d1, x12), (_, _, d2) = z.basis
    scale = z.p ** (2 * z.n)
    quarter = pow(4, -1, scale)
    eighth = pow(8, -1, scale)
    y22 = _exact(scale, d2)
    y21 = _exact(-x12 * y22, d1)
    y20 = _exact(-x01 * y21 - x02 * y22, d0)
    y11 = _exact(scale, d1)
    y10 = _exact(-x01 * y11, d0)
    y00 = _exact(scale, d0)
    return canonical(z.p, z.n, (
        (y22 * quarter, y21 * eighth, y20 * quarter),
        (0, y11 * eighth, y10 * quarter),
        (0, 0, y00 * quarter)))


def _in_lattice(rows, v, mult=1):
    """Whether v lies in the Z-span of mult * rows, for an upper-triangular
    integer basis with nonzero diagonal: the back-substitution solving
    x (mult B) = v must stay integral."""
    coeffs = []
    for j in range(RANK):
        rest = v[j]
        for i, c in enumerate(coeffs):
            rest -= mult * c * rows[i][j]
        q, r = divmod(rest, mult * rows[j][j])
        if r:
            return False
        coeffs.append(q)
    return True


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


def candidates(p, n):
    """Every lattice p^(2n) Z^3 <= Lam <= Z^3, one submodule per
    canonical basis."""
    for rows in _hermite_candidates(p, n):
        yield LatticeSubmodule(p=p, n=n, basis=rows)


def _is_self_dual(z):
    """sharp(z) == z; a dual that leaves the window is not z."""
    try:
        return sharp(z).basis == z.basis
    except PreconditionError:
        return False


def _require_agreement(points, direct):
    if {z.basis for z in direct} != {z.basis for z in points}:
        raise StructuralError("the two enumeration routes disagree")


def _scan(p, n, budget):
    """One pass over the candidates, applying both strata predicates to
    each; returns (isotropic, self_dual), each sorted by basis.  The
    candidate stream forms no tuple it does not yield, so counting the
    candidates here bounds the work."""
    check_datum(p)
    isotropic = []
    self_dual = []
    for count, z in enumerate(candidates(p, n), start=1):
        if count > budget:
            raise BudgetError("lattice enumeration budget exceeded")
        if is_self_dual_isotropic(z):
            isotropic.append(z)
        if _is_self_dual(z):
            self_dual.append(z)
    isotropic.sort(key=lambda z: z.basis)
    self_dual.sort(key=lambda z: z.basis)
    return isotropic, self_dual


def enumerate_self_dual(p, n, budget=200000):
    """All lattices Lam with p^(2n) Z^3 <= Lam <= Z^3 and sharp(Lam) =
    Lam, canonically presented (the direct route)."""
    return _scan(p, n, budget)[1]


def enumerate_isotropic(p, n, budget=200000):
    """All submodules in the middle isotropic stratum (the quotient-side
    route)."""
    return _scan(p, n, budget)[0]


def scan_points(p, n, budget=200000):
    """Certified bracket-closed points from the exhaustive candidate
    scan, the isotropic route cross-checked against the direct one;
    returns (points, direct_count).  `budget` counts candidates."""
    isotropic, self_dual = _scan(p, n, budget)
    points = [z for z in isotropic if is_lie_closed(z)]
    direct = [z for z in self_dual if _lattice_bracket_closed(z)]
    _require_agreement(points, direct)
    return points, len(direct)


# Tree vertices enumerate_X_n forms by default: the largest sizes it
# admits, such as (97, 2) with 9,605 vertices, take a few seconds.
VERTEX_BUDGET = 10000


def tree_points(p, n, budget=VERTEX_BUDGET):
    """The lattices ad(g) L_0 for the vertices g L_0 of the Bruhat-Tits
    tree within distance n of the base, sorted by basis.

    Each vertex at distance k comes once from a primitive
    g = [[p^a, b], [0, p^c]], a + c = k, 0 <= b < p^a, where primitive
    means a = 0, c = 0 or p does not divide b (Serre, Trees, II.1).
    ad(g) sends e, h, f to p^(a-c) e, h - 2b p^-c e and
    p^(c-a) f + b p^-a h - b^2 p^-k e; scaled by p^n the rows are
    integral for k <= n.  `budget` bounds the vertices formed: the walk
    refuses before it starts when the p^n vertices with c = 0 at distance
    n exceed it, and otherwise charges every vertex it forms.  A vertex
    whose canonical diagonal is not p^(3n), the index of every self-dual
    lattice in the window, or two vertices with one canonical basis,
    raise StructuralError."""
    check_datum(p)
    farthest = 1
    for _ in range(n):  # stops once p^k passes the budget, whatever n is
        farthest *= p
        if farthest > budget:
            raise BudgetError(f"lattice tree walk of more than {p}^{n}"
                              f" vertices exceeds the budget of {budget}")
    pn = p ** n
    window = p ** (3 * n)
    points = []
    formed = 0
    for k in range(n + 1):
        for a in range(k + 1):
            c = k - a
            for b in range(p ** a):
                if a and c and b % p == 0:
                    continue
                formed += 1
                if formed > budget:
                    raise BudgetError("lattice tree walk exceeds the budget"
                                      f" of {budget} vertices")
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


def enumerate_X_n(p, n, budget=VERTEX_BUDGET):
    """Certified bracket-closed points: the tree points that pass the
    isotropic route, cross-checked against those that pass the direct
    one; returns (points, direct_count).  `budget` counts tree
    vertices."""
    vertices = tree_points(p, n, budget)
    points = [z for z in vertices
              if is_self_dual_isotropic(z) and is_lie_closed(z)]
    direct = [z for z in vertices
              if _is_self_dual(z) and _lattice_bracket_closed(z)]
    _require_agreement(points, direct)
    return points, len(direct)


def _lattice_bracket_closed(z):
    """[L, L] <= L for L = p^-n Lam: every [u, v] of basis rows must lie
    in p^n Lam.  The index of Lam is a power of p, so integral membership
    is the p-adic one: no prime-to-p denominator can occur."""
    pn = z.p ** z.n
    return all(_in_lattice(z.basis, bracket(u, v), pn)
               for u in z.basis for v in z.basis)


def borel_fiber_count(q):
    """Number of two-dimensional bracket-closed subspaces of the mod-p
    reduction; for the curated algebra this is q + 1."""
    check_datum(q)
    # Enumerate 2-dim subspaces of F_q^3 as kernels of nonzero
    # functionals (one per projective point), then test closure.
    def br(u, v):
        out = [0] * RANK
        for i in range(RANK):
            for j in range(RANK):
                if u[i] and v[j]:
                    for k in range(RANK):
                        out[k] = (out[k] + u[i] * v[j] * BRACKET[i][j][k]) % q
        return tuple(out)

    functionals = []
    for a in range(q):
        for b in range(q):
            for c in range(q):
                vec = (a, b, c)
                if vec == (0, 0, 0):
                    continue
                lead = next(x for x in vec if x)
                norm = tuple((x * pow(lead, -1, q)) % q for x in vec)
                if norm not in functionals:
                    functionals.append(norm)
    count = 0
    for phi in functionals:
        # basis of the kernel of phi
        kernel = []
        for vec in itertools.product(range(q), repeat=RANK):
            if vec == (0, 0, 0):
                continue
            if sum(p * v for p, v in zip(phi, vec)) % q == 0:
                if not _in_span_mod(kernel, vec, q):
                    kernel.append(vec)
            if len(kernel) == 2:
                break
        closed = all(_in_span_mod(kernel, br(u, v), q)
                     for u in kernel for v in kernel)
        if closed:
            count += 1
    return count


def _in_span_mod(span, vec, q):
    if all(x == 0 for x in vec):
        return True
    if not span:
        return False
    for coeffs in itertools.product(range(q), repeat=len(span)):
        acc = [0] * RANK
        for c, s in zip(coeffs, span):
            for k in range(RANK):
                acc[k] = (acc[k] + c * s[k]) % q
        if tuple(acc) == tuple(vec):
            return True
    return False

