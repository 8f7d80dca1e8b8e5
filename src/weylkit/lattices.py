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

The enumeration is integer-only.  Candidates are upper-triangular Hermite
bases with p-power diagonal; membership of a vector in such a lattice
(the containment of p^(2n) Z^3, and [u, v] in p^n Lam for bracket
closure) is one integer back-substitution, and the dual `sharp` uses the
integer cofactors and determinant of B GRAM.  Both routes to the points,
the isotropic one and the direct self-dual one, read a single pass over
the candidates, each of which is tested by both predicates.
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
    """Constructor checks: bracket closure of the base lattice, Killing
    nondegeneracy mod p, recomputed Gram matrix."""
    if p < 3:
        raise PreconditionError(
            "the Killing form degenerates in characteristic 2")
    if killing_gram() != GRAM:
        raise StructuralError("stored Gram matrix is inconsistent")
    det = linalg.mat_inv(tuple(tuple(Fraction(x) for x in row)
                               for row in GRAM))  # raises if singular
    del det
    basis = linalg.identity_mat(RANK)
    for u in basis:
        for v in basis:
            if any(not isinstance(c, int) and c.denominator != 1
                   for c in bracket(u, v)):
                raise StructuralError("base lattice is not bracket-closed")
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

    def smith_exponents(self):
        diag = linalg.snf_diag(self.basis)
        out = []
        for d in diag:
            k = 0
            d = abs(d)
            while d % self.p == 0:
                d //= self.p
                k += 1
            if d != 1:
                raise StructuralError("index has a factor prime to p")
            out.append(k)
        return tuple(out)


def canonical(p, n, rows):
    """Canonical basis of the lattice spanned by rows and p^(2n) Z^3."""
    scale = p ** (2 * n)
    stack = [tuple(int(x) for x in row) for row in rows]
    stack += [tuple(scale if i == j else 0 for j in range(RANK))
              for i in range(RANK)]
    h = linalg.hnf(tuple(stack))
    return LatticeSubmodule(p=p, n=n, basis=h)


def d_invariant(z):
    """d of the quotient Lam / p^(2n) Z^3: the co-exponent sum of the
    Smith form."""
    return sum(2 * z.n - k for k in z.smith_exponents())


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


def _cofactors(m):
    """Cofactor matrix C and determinant of a 3x3 integer matrix, so
    that m^-1 = transpose(C) / det."""
    cof = tuple(
        tuple(m[(i + 1) % 3][(j + 1) % 3] * m[(i + 2) % 3][(j + 2) % 3]
              - m[(i + 1) % 3][(j + 2) % 3] * m[(i + 2) % 3][(j + 1) % 3]
              for j in range(3))
        for i in range(3))
    return cof, sum(m[0][j] * cof[0][j] for j in range(3))


def sharp(z):
    """The dual submodule under the Killing pairing; an involution.

    Row j of the dual is column j of p^(2n) (B GRAM)^-1, that is
    p^(2n) times cofactor row j over the determinant.  Each entry must
    have a denominator prime to p; it is reduced modulo p^(4n)."""
    cof, det = _cofactors(linalg.mat_mul(z.basis, GRAM))
    scale = z.p ** (2 * z.n)
    mod = scale * scale
    dual_rows = []
    for cof_row in cof:
        row = []
        for c in cof_row:
            num = scale * c
            g = gcd(num, det)
            num, den = num // g, det // g
            if den < 0:
                num, den = -num, -den
            if den % z.p == 0:
                raise PreconditionError(
                    "dual lattice leaves the truncation window")
            # reduce the prime-to-p denominator modulo p^(4n).
            row.append((num % (scale * den)) * pow(den, -1, mod) % mod)
        dual_rows.append(tuple(row))
    return canonical(z.p, z.n, dual_rows)


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
    """All canonical upper-triangular candidate bases with p-power
    diagonal, filtered for containing p^(2n) Z^3.  Off-diagonal entries
    are reduced modulo the pivot below them, so every row set is already
    in Hermite normal form."""
    scale = p ** (2 * n)
    targets = tuple(tuple(scale * x for x in row)
                    for row in linalg.identity_mat(RANK))
    for a in itertools.product(range(2 * n + 1), repeat=RANK):
        diag = [p ** e for e in a]
        # column j is (entries above the pivot) + pivot + zeros
        below = [(diag[j],) + (0,) * (RANK - 1 - j) for j in range(RANK)]
        for above in itertools.product(*(
                itertools.product(range(diag[j]), repeat=j)
                for j in range(RANK))):
            rows = tuple(zip(*(x + y for x, y in zip(above, below))))
            if all(_in_lattice(rows, t) for t in targets):
                yield rows


def candidates(p, n):
    """Every lattice p^(2n) Z^3 <= Lam <= Z^3, one submodule per
    canonical basis."""
    for rows in _hermite_candidates(p, n):
        yield LatticeSubmodule(p=p, n=n, basis=rows)


def _scan(p, n, budget):
    """One pass over the candidates, applying both strata predicates to
    each; returns (isotropic, self_dual), each sorted by basis."""
    check_datum(p)
    isotropic = []
    self_dual = []
    for count, z in enumerate(candidates(p, n), start=1):
        if count > budget:
            raise BudgetError("lattice enumeration budget exceeded")
        if is_self_dual_isotropic(z):
            isotropic.append(z)
        try:
            if sharp(z).basis == z.basis:
                self_dual.append(z)
        except PreconditionError:
            pass
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


def enumerate_X_n(p, n, budget=200000):
    """Certified bracket-closed points, cross-checked against the
    direct lattice enumeration; returns (points, direct_count)."""
    isotropic, self_dual = _scan(p, n, budget)
    points = [z for z in isotropic if is_lie_closed(z)]
    direct = [z for z in self_dual if _lattice_bracket_closed(z)]
    direct_keys = {z.basis for z in direct}
    point_keys = {z.basis for z in points}
    if direct_keys != point_keys:
        raise StructuralError("the two enumeration routes disagree")
    return points, len(direct)


def _lattice_bracket_closed(z):
    """[L, L] <= L for L = p^-n Lam: every [u, v] of basis rows must lie
    in p^n Lam.  The index of Lam is a power of p, so integral membership
    is the p-adic one: no prime-to-p denominator can occur."""
    pn = z.p ** z.n
    return all(_in_lattice(z.basis, bracket(u, v), pn)
               for u in z.basis for v in z.basis)


def borel_fiber_count(q, basis=None):
    """Number of two-dimensional bracket-closed subspaces of the mod-p
    reduction; for the curated algebra this is q + 1."""
    check_datum(q)
    if basis is None:
        consts = BRACKET
    else:
        consts = _reduced_structure_constants(basis, q)
    # Enumerate 2-dim subspaces of F_q^3 as kernels of nonzero
    # functionals (one per projective point), then test closure.
    def br(u, v):
        out = [0] * RANK
        for i in range(RANK):
            for j in range(RANK):
                if u[i] and v[j]:
                    for k in range(RANK):
                        out[k] = (out[k] + u[i] * v[j] * consts[i][j][k]) % q
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


def _reduced_structure_constants(basis, p):
    b = tuple(tuple(Fraction(x) for x in row) for row in basis)
    inv = linalg.mat_inv(b)
    consts = []
    for i in range(RANK):
        row_i = []
        for j in range(RANK):
            w = bracket(basis[i], basis[j])
            coords = linalg.mat_vec(linalg.transpose(inv),
                                    tuple(Fraction(x) for x in w))
            entry = []
            for c in coords:
                if c.denominator % p == 0:
                    raise PreconditionError("reduction is not defined mod p")
                entry.append((c.numerator * pow(c.denominator, -1, p)) % p)
            row_i.append(tuple(entry))
        consts.append(tuple(row_i))
    return tuple(consts)
