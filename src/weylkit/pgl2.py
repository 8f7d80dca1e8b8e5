"""Rank-1 p-adic computations: Iwahori membership over F_q((e)),
eigenvalue-discriminant parity, the two-fixed-point count on the
Iwahori variety, and the small homology model behind the
almost-character value 2q.

Matrices are 2x2 over Laurent polynomials and represent projective
elements through GL_2 lifts; the parity of the determinant valuation
splits the lifts into two classes, written "even" and "odd" below, and
the two Iwahori-type subsets are

    I1: [[a,b],[c,d]] with v(a)=v(d)=m, v(b)>=m, v(c)>m for some m,
    I2: [[c,d],[a,b]] with v(a)=v(d)+1=m+1, v(b)>=m+1, v(c)>=m+1.

Membership reads each entry only through its valuation.

tau = [[0, 1], [e, 0]] normalizes the Iwahori subgroup (Iwahori and
Matsumoto, 1965): tau^-1 [[a,b],[c,d]] tau = [[d, c/e], [e b, a]], and
both displays read the same conditions off C and off its tau-conjugate
(I1: v(a)=v(d)=m, v(b)>=m, v(c)>=m+1; I2: v(c)=v(b)+1, v(a)>=v(b)+1,
v(d)>=v(b)+1).  So a node and its tau-conjugate have the same class.

The fixed points of g in I2 on the Iwahori variety are the cosets x I1
with x^-1 g x in I2, and the theory settles their number.  On the
Bruhat-Tits tree (Serre, Trees, Ch. II §1) I1 fixes the base edge and
both its ends, and g = tau h with h in I1, so g flips the base edge.
Its determinant valuation is odd, so it fixes no vertex, and the fixed
set of a tree automorphism is convex (Trees, Ch. I §6), so the base
edge is the only edge g flips.  So the only fixed points are x = 1 and
x = tau, and every g in I2 has exactly 2.

The count still computes that 2 rather than asserting it: it walks the
word tree of coset representatives carrying x^-1 g x, to word lengths 1
and 2, and adds the I2 nodes it finds to the 2 at level 0.  Words
alternate two letters, with edges s_1(t) = [[-t, 1], [-1, 0]] and
s_0(t) = [[0, e^-1], [-e, t]] for t in range(q), and the walk steps with
letter 1 only: tau^-1 s_1(t) tau = -s_0(t), the sign cancels in a
conjugation, and tau^2 = e I is central, so tau C tau^-1 = tau^-1 C tau
and s_0(t)^-1 C s_0(t) = tau^-1 (s_1(t)^-1 (tau^-1 C tau) s_1(t)) tau.
So the words that start with letter 0 below C are the tau-conjugates of
the words that start with letter 1 below tau^-1 C tau.  Class is
tau-invariant, so each level has the I2 count of the letter-1 words
below g and below g' = tau^-1 g tau.  Each level reads the pieces of the
one above, formed from the root's entries and t, so the walk builds no
matrix but g and g'.  A walk that undoes its last letter first returns
to the base coset at level 2, so a backtracking walk shows there as a
false I2 node.
"""

import math
from dataclasses import dataclass
from functools import partial

from . import laurent, linalg
from .errors import BudgetError, InternalConsistencyError, PreconditionError
from .laurent import LaurentScalar, least_prime_factor, quadratic

# The nodes a fixed-point walk may classify: the size of
# witt.ORACLE_PAIR_BUDGET.
WALK_NODE_BUDGET = 200000


def _classify(a, b, c, d):
    """"I1", "I2", or "neither" for [[a, b], [c, d]] given by the
    valuations of its entries."""
    # I1: m is forced to be v(a); a zero a rules I1 out.
    if a != math.inf and d == a and b >= a and c >= a + 1:
        return "I1"
    # I2 with the entries read as [[c,d],[a,b]]: m is forced to be v(d),
    # sitting in the upper right.
    if b != math.inf and c == b + 1 and d >= b + 1 and a >= b + 1:
        return "I2"
    return "neither"


def iwahori_class(M):
    """"I1", "I2", or "neither" per the two membership displays."""
    (a, b), (c, d) = M
    return _classify(a.valuation(), b.valuation(), c.valuation(),
                     d.valuation())


def i2_normal_form(M):
    """Strip the e^m shift of an I2 matrix: returns (m, a, b, c, d) with
    M = e^m * [[e*c, d], [e*a, e*b]], a and d units."""
    if iwahori_class(M) != "I2":
        raise PreconditionError("matrix is not in the odd Iwahori coset")
    (C, D), (A, B) = M
    m = D.valuation()
    return (m,
            A.shift(-(m + 1)),
            B.shift(-(m + 1)),
            C.shift(-(m + 1)),
            D.shift(-m))


def discriminant_valuation(M):
    """Valuation of the squared eigenvalue difference of an I2 matrix,
    evaluated on the shift-normalized entries.

    The expansion used is e^2(b+c)^2 - 4e^2 bc - e a d; its leading term
    e*a*d has unit coefficient in every characteristic, so the result is
    asserted to be exactly 1.
    """
    _, a, b, c, d = i2_normal_form(M)
    expr = ((b + c) * (b + c) - b * c * 4).shift(2) - (a * d).shift(1)
    v = expr.valuation()
    if v != 1:
        raise InternalConsistencyError(
            f"discriminant valuation {v} != 1 for an I2 matrix")
    return v


# -- coset enumeration -------------------------------------------------

def _exact_inverse(M):
    """Inverse of a matrix whose determinant is a monomial c e^v: the
    adjugate times det^-1."""
    inv = laurent.mat_det(M).inverse()
    return ((M[1][1] * inv, -M[0][1] * inv), (-M[1][0] * inv, M[0][0] * inv))


def _tau_conjugate(C):
    """tau^-1 C tau = [[d, c/e], [e b, a]] for tau = [[0, 1], [e, 0]]."""
    (a, b), (c, d) = C
    return ((d, c.shift(-1)), (b.shift(1), a))


def _pieces(C):
    """The t-independent scalars of the q children s^-1 C s, s = s_1(t)
    and t in range(q), of the word tree below C: [[d + t c, -c],
    [-b + t (d - a) + t^2 c, a - t c]].  Each entry of a child is
    x0 + t x1 + t^2 x2 with scalars that depend only on C; the four
    entries come as (x0, x1, x2) triples, None marking an absent term."""
    (a, b), (c, d) = C
    neg_c = -c
    return ((d, c, None), (neg_c, None, None),
            (-b, d - a, c), (a, neg_c, None))


def _entry_pairs(piece, q):
    """The valuations of x0 + t x1 + t^2 x2 for t in range(q), equal to
    those of the scalars `laurent.quadratic` builds: x0's own at t = 0;
    otherwise the first exponent where the coefficient sum is nonzero
    modulo q."""
    x0, x1, x2 = piece
    first = x0.valuation()
    if x1 is None:
        return [first] * q
    c0, c1 = x0.coeffs, x1.coeffs
    c2 = {} if x2 is None else x2.coeffs
    vals = [first] + [math.inf] * (q - 1)
    pending = range(1, q)
    for e in sorted(set(c0).union(c1, c2)):
        if not pending:
            break
        k0, k1, k2 = c0.get(e, 0), c1.get(e, 0), c2.get(e, 0)
        unresolved = []
        for t in pending:
            if (k0 + t * (k1 + t * k2)) % q:
                vals[t] = e
            else:
                unresolved.append(t)
        pending = unresolved
    return vals


def _child_branches(C, pieces, q):
    """The branches below C's q children X = s^-1 C s, t in range(q),
    formed from C's entries, its pieces `_pieces(C)` and t without
    building X: X goes on with letter 0, so by the module docstring a
    branch carries `_pieces(_tau_conjugate(X))`.  Each branch is
    (b-piece, c-piece, thunk), and the thunk forms its (a-piece,
    d-piece); a walk calls it only for a branch where some child passes
    v(c) = v(b) + 1.  The terms all t share are formed once, so a child's
    b- and c-pieces take two `laurent.quadratic` calls."""
    # tau^-1 X tau = [[a - t c, e^-1 (-b + t (d - a) + t^2 c)],
    # [-e c, d + t c]], whose pieces are (d + t c, -e c), (e c),
    # (e^-1 (b + t (a - d) - t^2 c), (d - a) + t (c + c), -e c) and
    # (a - t c, e c)
    (a, b), (c, d) = C
    (neg_c, _, _), (_, d_a, _) = pieces[1:3]
    c0, c1, c2 = b.shift(-1), (-d_a).shift(-1), neg_c.shift(-1)
    two_c, ec, neg_ec = c + c, c.shift(1), neg_c.shift(1)
    pb = (ec, None, None)

    def branch(t):
        pc = (quadratic(t, c0, c1, c2), quadratic(t, d_a, two_c), neg_ec)
        return pb, pc, partial(ad, t)

    def ad(t):
        return (quadratic(t, d, c), neg_ec, None), \
            (quadratic(t, a, neg_c), ec, None)
    return [branch(t) for t in range(q)]


def _i2_children(branches, q):
    """The number of I2 children of a level's branches.

    The I2 rule decides on v(c) = v(b) + 1 before it reads a or d, so each
    branch forms the valuations of its b- and c-pieces for every t, its
    a- and d-pieces and their valuations only when some t passes, and
    `_classify` decides those t alone."""
    count = 0
    for pb, pc, ad in branches:
        bs, cs = _entry_pairs(pb, q), _entry_pairs(pc, q)
        passing = [t for t in range(q)
                   if bs[t] != math.inf and cs[t] == bs[t] + 1]
        if passing:
            pa, pd = ad()
            as_, ds = _entry_pairs(pa, q), _entry_pairs(pd, q)
            count += sum(_classify(as_[t], bs[t], cs[t], ds[t]) == "I2"
                         for t in passing)
    return count


def fixed_point_count(g, prec=None):
    """Number of cosets x I1 with x^-1 g x in I2, for g in I2: the 2 of
    level 0 (g and its tau-conjugate) plus twice the I2 nodes of word
    lengths 1 and 2, read from valuations without building a node: each
    level sums `_i2_children` over the roots g and g' = tau^-1 g tau,
    level 1 from `_pieces(root)` and level 2 from `_child_branches`.  The
    module docstring shows why that covers the words of both letters,
    that the answer is 2 and why the walk goes to level 2.  `prec` is
    accepted and unused: `perfbench/worker.py` passes it.

    Levels 1 and 2 hold 2q and 2q^2 nodes.  Before it classifies any of
    them the count raises BudgetError if the 1 + 2q + 2q^2 nodes pass
    WALK_NODE_BUDGET."""
    if iwahori_class(g) != "I2":
        raise PreconditionError("element must lie in the odd Iwahori coset")
    q = g[0][0].q
    nodes = 1 + 2 * q + 2 * q * q
    if nodes > WALK_NODE_BUDGET:
        raise BudgetError(
            f"fixed-point walk to word length 2 would classify {nodes}"
            f" nodes, more than the budget of {WALK_NODE_BUDGET}")
    roots = (g, _tau_conjugate(g))
    pieces = [_pieces(root) for root in roots]
    level_1 = [(pb, pc, lambda pa=pa, pd=pd: (pa, pd))
               for pa, pb, pc, pd in pieces]
    level_2 = [branch for root, root_pieces in zip(roots, pieces)
               for branch in _child_branches(root, root_pieces, q)]
    return 2 + 2 * (_i2_children(level_1, q) + _i2_children(level_2, q))


def random_i2(q, rng, degree=6):
    """A random matrix in the odd Iwahori coset, exact entries: units a,
    d and integers b, c with `degree` digits each, drawn in that order,
    then the shift m, giving [[e^(m+1) c, e^m d], [e^(m+1) a, e^(m+1) b]].
    Each entry is built once, at its shifted exponents."""
    def unit():
        first = rng.randrange(1, q)
        return [first] + [rng.randrange(q) for _ in range(1, degree)]

    def integer():
        return [rng.randrange(q) for _ in range(degree)]

    def entry(digits, shift):
        return LaurentScalar(q, {k + shift: c for k, c in enumerate(digits)})

    a, d = unit(), unit()
    b, c = integer(), integer()
    m = rng.randrange(-2, 3)
    return (
        (entry(c, m + 1), entry(d, m)),
        (entry(a, m + 1), entry(b, m + 1)),
    )


def random_i1(q, rng, length=4):
    """A random element of I1 with exactly invertible determinant,
    built from unipotent and diagonal-unit generators."""
    one = LaurentScalar.one(q)
    zero = LaurentScalar.zero(q)
    mat = laurent.identity_matrix(q)
    for _ in range(length):
        kind = rng.randrange(3)
        if kind == 0:
            c = LaurentScalar(q, {k: rng.randrange(q) for k in range(3)})
            step = ((one, c), (zero, one))
        elif kind == 1:
            c = LaurentScalar(q, {k: rng.randrange(q) for k in range(1, 4)})
            step = ((one, zero), (c, one))
        else:
            u = LaurentScalar(q, {0: rng.randrange(1, q)})
            step = ((u, zero), (zero, one))
        mat = laurent.mat_mul(mat, step)
    return mat


def conjugate_exact(g, h):
    """h^-1 g h for h with monomial-unit determinant."""
    return laurent.mat_mul(_exact_inverse(h), laurent.mat_mul(g, h))


# -- homology window models --------------------------------------------

@dataclass(frozen=True)
class RecurrenceModule:
    """Window model of the degree -2 homology: basis b_n for |n| <= N,
    s_i b_n = -b_n when n and i have the same parity, and
    s_i b_n = b_n + b_{n-1} + b_{n+1} otherwise (interior n only)."""
    N: int

    def _index(self, n):
        return n + self.N

    def action_matrix(self, i):
        size = 2 * self.N + 1
        mat = [[0] * size for _ in range(size)]
        for n in range(-self.N + 1, self.N):
            col = self._index(n)
            if (n - i) % 2 == 0:
                mat[col][col] = -1
            else:
                mat[col][col] = 1
                mat[self._index(n - 1)][col] = 1
                mat[self._index(n + 1)][col] = 1
        return tuple(tuple(row) for row in mat)

    def basis_vector(self, n):
        return tuple(int(k == self._index(n)) for k in range(2 * self.N + 1))


def module_generation_check(N):
    """True iff b_0 and b_1 generate the interior of the window, plus
    the coinvariant rank of the interior quotient (always 0 here, since
    -2 b_n lies in the augmentation image for every parity)."""
    if N < 2:
        raise PreconditionError("window must extend at least two steps")
    module = RecurrenceModule(N)
    mats = [module.action_matrix(1), module.action_matrix(2)]
    # Closure under both involutions: every vector that enlarges the
    # span is mapped through each action matrix exactly once.
    span = linalg.EchelonBasis()
    pending = [module.basis_vector(0), module.basis_vector(1)]
    while pending:
        vec = pending.pop()
        if span.add(vec):
            pending.extend(linalg.mat_vec(mat, vec) for mat in mats)
    generated = all(span.contains(module.basis_vector(n))
                    for n in range(-N + 1, N))
    # Coinvariants of the interior: quotient by (s_i - 1) images,
    # projected to interior coordinates.
    interior = range(1, 2 * N)
    eye = linalg.identity_mat(2 * N + 1)
    relations = [
        tuple(mat[row][col] - eye[row][col] for row in interior)
        for mat in mats for col in interior
    ]
    coinvariant_rank = len(interior) - linalg.rank(relations)
    return generated, coinvariant_rank


def recurrence_solution_space(N=4):
    """Dimension and closed-form basis of the sequences u on the window
    |n| <= N that both involutions send to -u: u (s_i + 1) b_n = 0 for
    interior n, which holds outright when n and i have the same parity
    and reads -u_n = u_n + u_{n-1} + u_{n+1} otherwise.  The dimension is
    the nullity of those relations, through `linalg.rank`: 2N + 1
    unknowns, 2N - 1 independent relations.  The closed forms (-1)^n and
    (-1)^n * n must satisfy every relation and be independent."""
    module = RecurrenceModule(N)
    size = 2 * N + 1
    relations = [tuple(mat[row][col] + (row == col) for row in range(size))
                 for mat in (module.action_matrix(1), module.action_matrix(2))
                 for col in range(1, size - 1)]
    dim = size - linalg.rank(relations)
    basis = (
        ("(-1)^n", tuple((-1) ** abs(n) for n in range(-N, N + 1))),
        ("(-1)^n*n", tuple((-1) ** abs(n) * n for n in range(-N, N + 1))),
    )
    values = [u for _, u in basis]
    if any(sum(r * x for r, x in zip(rel, u)) for rel in relations
           for u in values):
        raise InternalConsistencyError("closed form fails the recurrence")
    if linalg.rank(values) != len(values):
        raise InternalConsistencyError("closed forms are dependent")
    return dim, tuple(name for name, _ in basis)


def _is_prime_power(q):
    """True iff q = p^k for a prime p and k >= 1."""
    if q < 2:
        return False
    p = least_prime_factor(q)
    while q % p == 0:
        q //= p
    return q == 1


def almost_char_44(q):
    """The almost-character value 2q: the recurrence solution dimension
    scaled by the declared weight-q Frobenius convention."""
    if not _is_prime_power(q):
        raise PreconditionError(f"{q} is not a prime power")
    dim, _ = recurrence_solution_space()
    return q * dim
