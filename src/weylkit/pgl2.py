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

Membership reads each entry only through its valuation, and the
discriminant is read the same way: `discriminant_valuation` scans the
coefficients of its expansion, B^2 - 2BC + C^2 - AD, from the least
possible exponent up and stops at the first nonzero one, with no
product of Laurent polynomials.  It reads that first coefficient off
the entries' least keys, one product per term.  A random I1-conjugate
is formed on the entries' coefficient dicts as well, and its four
scalars are built at the end.

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
below g and below g' = tau^-1 g tau, whose coefficient dicts are g's
shifted: A' = D, B'(k) = C(k+1), C'(k) = B(k-1), D' = A.

Below a root C = [[a, b], [c, d]], conjugation by s_1(t), whose inverse
is [[0, -1], [1, -t]], gives the level-1 node

    X_t = [[d + t c, -c], [-b + t (d - a) + t^2 c, a - t c]].

X_t goes on with letter 0, so the level-2 node (t, s) is the
tau-conjugate, of the same class, of the letter-1 child s of
tau^-1 X_t tau = [[a - t c, e^-1 c'], [-e c, d + t c]], c' the lower
left entry of X_t:

    [[d + t c - s e c, e c],
     [e^-1 (b + t (a - d) - t^2 c) + s (d - a) + 2 s t c - s^2 e c,
      a - t c + s e c]].

So level L's nodes are the points of F_q^L, and the coefficient of e^k
in a node's a-, c- or d-entry is a polynomial in its letters over the
monomials 1, t, t^2 (level 1) or 1, t, t^2, s, s t, s^2 (level 2): its
column, of integer sums of the root's coefficients of e^(k-1), e^k and
e^(k+1), read modulo q at the node.  The b-entry is -c or e c, so v(b) =
v(c) + L - 1.  The count scans each level once, by two rules.

(a) A bounded scan.  The I2 rule reads c only as v(c) = v(b) + 1, and a
and d only as v(a), v(d) >= v(b) + 1.  So a node is in I2 iff v(b) is
finite, its a-, c- and d-columns vanish at every e^k, k <= v(b), and its
c-column at e^(v(b)+1) does not: the scan stops at v(b) + 1, reading no
root coefficient above e^(v(c)+3).  It starts at the least exponent j
the root stores (j - 1 at level 2), below which every column is 0, and
crosses no long gap: below e^(v(c)+1-L) no column reads c, so the a- and
d-columns are the constants d_k and a_k and the c-column is -b_k or
b_(k+1) unless a or d is stored at k or k + 1.  So if j < v(c) + 1 - L,
a constant a- or d-column at e^j, or else the unit c-column at
e^(j+1-L), drops every node; otherwise a level reads at most 5 keys.
Both bounds are read off the root's four entry valuations, j as their
least and v(b) + 1 as v(c) + L, and the count reads only g's: those of
tau^-1 g tau are their shift (v(d), v(c) - 1, v(b) + 1, v(a)).

(b) A constant column settles every node at once: if its non-constant
coefficients are 0 modulo q, it has one value at all pending nodes and
drops all or none.  Only a column that depends on the node lists nodes,
so a level reads its constant columns, at every key, before the others:
a nonzero one drops every node before any is listed.

An I2 root has j = v(b) = m, v(c) = m + 1 and v(a), v(d) >= m + 1, so
each level reads a zero a-column and then the constant c-column -b_m (at
e^m) or b_m (at e^(m-1)), a unit, which drops every node unlisted.  A
walk that undoes its last letter first returns to the base coset at
level 2, so a backtracking walk shows there as a false I2 node.
"""

import math
from dataclasses import dataclass

from . import laurent, linalg
from .errors import (
    InternalConsistencyError,
    PreconditionError,
    charge,
    require_int,
    require_prime,
)

# The nodes a fixed-point walk may classify: the size of
# witt.ORACLE_PAIR_BUDGET.
WALK_NODE_BUDGET = 200000

# The elimination work a recurrence window |n| <= N may start: the cube
# of its 2N + 1 basis vectors.  C8's windows N = 4, 6 and 10 weigh 729,
# 2,197 and 9,261; N = 28, the largest admitted, weighs 185,193.
WINDOW_WORK_BUDGET = 200000


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


def _valuations(M):
    """(v(a), v(b), v(c), v(d)) for M = [[a, b], [c, d]]."""
    (a, b), (c, d) = M
    return a.valuation(), b.valuation(), c.valuation(), d.valuation()


def iwahori_class(M):
    """"I1", "I2", or "neither" per the two membership displays."""
    return _classify(*_valuations(M))


def i2_normal_form(M):
    """The e^m shift of an I2 matrix M = [[C, D], [A, B]] and the
    coefficient dicts of its entries: returns (m, A, B, C, D) with
    M = e^m * [[e*c, d], [e*a, e*b]], a and d units.  The normal-form
    entry a has the coefficient A[k + m + 1] at e^k, and so do b and c
    with B and C; d has D[k + m].  No entry is shifted."""
    valuations = _valuations(M)
    if _classify(*valuations) != "I2":
        raise PreconditionError("matrix is not in the odd Iwahori coset")
    (C, D), (A, B) = M
    return valuations[1], A.coeffs, B.coeffs, C.coeffs, D.coeffs


def _product_sum_valuation(terms, q):
    """The valuation of the sum of w * X * Y over the terms (w, X, Y), w
    an integer and X, Y coefficient dicts over F_q, read one coefficient
    at a time: the least exponent whose coefficient is nonzero modulo q,
    else inf.

    The coefficient of e^k is the residue of the integer sum of
    w * X[i] * Y[k - i] over the terms and the stored exponents i of X,
    so it is 0 unless k = i + j for stored i of X and j of Y in some
    term.  The least such sum is k0, the least min(X) + min(Y) over the
    terms, and a stored pair (i, j) with i + j = k0 has i = min(X) and
    j = min(Y), since i >= min(X), j >= min(Y) and min(X) + min(Y) >=
    k0.  So the coefficient at k0 is the sum of w * X[min X] * Y[min Y]
    over the terms that reach k0, one product each.  Only when it is 0
    modulo q does the scan go on, trying the later sums i + j in
    increasing order."""
    k, first = math.inf, 0
    for w, X, Y in terms:
        if X and Y:
            i, j = min(X), min(Y)
            if i + j < k:
                k, first = i + j, 0
            if i + j == k:
                first += w * X[i] * Y[j]
    if k == math.inf or first % q:
        return k
    while True:
        k = min((i + j for _, X, Y in terms for i in X for j in Y
                 if i + j > k), default=math.inf)
        if k == math.inf or sum(w * x * Y.get(k - i, 0) for w, X, Y in terms
                                for i, x in X.items()) % q:
            return k


def discriminant_valuation(M):
    """Valuation of the squared eigenvalue difference of an I2 matrix,
    evaluated on the shift-normalized entries.

    The expansion used is e^2(b+c)^2 - 4e^2 bc - e a d; its leading term
    e*a*d has unit coefficient in every characteristic, so the result is
    asserted to be exactly 1.

    The valuation is scanned, not multiplied out.  With M = [[C, D],
    [A, B]] = e^m [[e c, d], [e a, e b]],

        (B + C)^2 - 4 B C - A D = e^(2m) (e^2 (b+c)^2 - 4 e^2 bc - e a d),

    so the valuation is that of the left side, read off M's entries,
    minus 2m.  (B + C)^2 - 4 B C = B^2 - 2 B C + C^2 is one integer
    polynomial in the integer coefficients of B and C, so the left side
    is the sum of w * X * Y over the terms (1, B, B), (-2, B, C), (1, C,
    C) and (-1, A, D).  Reduction modulo q is a ring map, so the
    coefficient of e^k on the left is the residue of the integer sum over
    those terms of w * X[i] * Y[k - i] over the stored exponents i of X.
    It is 0 unless k = i + j for stored exponents i of X and j of Y in
    some term, so the scan tries those sums in increasing order, from the
    least one, and the first whose residue is nonzero is the least
    exponent of a nonzero coefficient: the valuation of the product
    formula.  When none is nonzero the formula is 0, of valuation inf.
    So the scan returns the same valuation for every input, and builds
    no scalar.  On an I2 matrix it stops at its first exponent, 2m + 1,
    where the coefficient is -a_0 d_0, a product of units.
    """
    m, A, B, C, D = i2_normal_form(M)
    v = _product_sum_valuation(((1, B, B), (-2, B, C), (1, C, C),
                                (-1, A, D)), M[0][0].q) - 2 * m
    if v != 1:
        raise InternalConsistencyError(
            f"discriminant valuation {v} != 1 for an I2 matrix")
    return v


# -- coset enumeration -------------------------------------------------

def _roots(g):
    """The coefficient dicts (A, B, C, D) of g = [[a, b], [c, d]] and, by
    index shift, of tau^-1 g tau = [[d, c/e], [e b, a]]."""
    (a, b), (c, d) = g
    A, B, C, D = a.coeffs, b.coeffs, c.coeffs, d.coeffs
    return ((A, B, C, D), (D, {k - 1: x for k, x in C.items()},
                           {k + 1: x for k, x in B.items()}, A))


def _columns(level, root, k):
    """The columns of a level's a-, c- and d-entries at e^k below a root
    given by its coefficient dicts (A, B, C, D)."""
    A, B, C, D = root
    a, b, c, d = A.get(k, 0), B.get(k, 0), C.get(k, 0), D.get(k, 0)
    if level == 1:
        return (d, c, 0), (-b, d - a, c), (a, -c, 0)
    a1, b1, d1 = A.get(k + 1, 0), B.get(k + 1, 0), D.get(k + 1, 0)
    c0, c1 = C.get(k - 1, 0), C.get(k + 1, 0)
    return ((d, c, 0, -c0, 0, 0), (b1, a1 - d1, -c1, d - a, 2 * c, -c0),
            (a, -c, 0, c0, 0, 0))


def _vanishing_nodes(column, pending, q, level):
    """The nodes of `pending` where a column is 0 modulo q, listed: node
    n has letters t = n at level 1 and (t, s) = divmod(n, q) at 2."""
    out = []
    for n in pending:
        t, s = divmod(n, q) if level == 2 else (n, 0)
        if sum(w * y for w, y in zip(
                column, (1, t, t * t, s, s * t, s * s))) % q == 0:
            out.append(n)
    return out


def _varies(column, q):
    """Whether a column depends on the node (rule (b))."""
    return any(w % q for w in column[1:])


def _scan_bounds(a, b, c, d):
    """The (start, v(c)) of the scans below g and below tau^-1 g tau, by
    rule (a), from g's entry valuations (a, b, c, d)."""
    return (min(a, b, c, d), c), (min(d, c - 1, b + 1, a), b + 1)


def _level_count(root, start, vc, level, q):
    """The I2 nodes of a level below a root, by the scan of rule (a) from
    the unlisted nodes range(q^level), constant columns first (rule
    (b)).  `start` is the least exponent the root stores and `vc` the
    valuation of its c, which must be finite."""
    top = vc + level  # v(b) + 1
    varying = []
    for k in range(start + 1 - level, top):
        for column in _columns(level, root, k):
            if _varies(column, q):
                varying.append(column)
            elif column[0] % q:
                return 0
    pending = range(q ** level)
    for column in varying:
        pending = _vanishing_nodes(column, pending, q, level)
    c = _columns(level, root, top)[1]
    if not _varies(c, q):
        return len(pending) if c[0] % q else 0
    return len(pending) - len(_vanishing_nodes(c, pending, q, level))


def fixed_point_count(g, prec=None):
    """Number of cosets x I1 with x^-1 g x in I2, for g in I2: the 2 of
    level 0 (g and its tau-conjugate) plus twice the I2 nodes of word
    lengths 1 and 2 below g and g' = tau^-1 g tau, each level read by the
    module docstring's scan.  `prec` is accepted and unused:
    `perfbench/worker.py` passes it.  Levels 1 and 2 hold 2q and 2q^2
    nodes; the count charges all 1 + 2q + 2q^2, the most its scans may
    list, against WALK_NODE_BUDGET before it classifies any."""
    valuations = _valuations(g)
    if _classify(*valuations) != "I2":
        raise PreconditionError("element must lie in the odd Iwahori coset")
    q = g[0][0].q
    nodes = 1 + 2 * q + 2 * q * q
    charge(f"fixed-point walk to word length 2 of {nodes} nodes", nodes,
           WALK_NODE_BUDGET)
    # g in I2 has a finite v(b) and v(c) = v(b) + 1, the v(c) of both roots
    return 2 + 2 * sum(_level_count(root, start, vc, level, q)
                       for root, (start, vc) in zip(
                           _roots(g), _scan_bounds(*valuations))
                       for level in (1, 2))


def random_i2(q, rng, degree=6):
    """A random matrix in the odd Iwahori coset, exact entries: units a,
    d and integers b, c with `degree` digits each, drawn in that order,
    then the shift m, giving [[e^(m+1) c, e^m d], [e^(m+1) a, e^(m+1) b]].

    The law is uniform on digit strings: each of b and c on the q^degree
    strings of `degree` digits in range(q), each of a and d on the
    (q - 1) q^(degree - 1) strings whose lowest digit is nonzero, and m
    on range(-2, 3), all independent.  Each entry takes one draw.  An
    integer is n = rng.randrange(q^degree), whose base-q digits, lowest
    first, are its digits: n -> (n mod q, n // q mod q, ...) is a
    bijection from range(q^degree) onto the digit strings.  A unit is
    divmod(rng.randrange((q - 1) q^(degree - 1)), q - 1) = (h, r), a
    bijection onto range(q^(degree - 1)) x range(q - 1), read as the
    lowest digit 1 + r, which ranges over the nonzero digits, and the
    base-q digits of h above it.  So five draws make a matrix.  q is
    tested for primality once, and each entry is built once, at its
    shifted exponents, from its nonzero digits."""
    require_prime(q)
    require_int("degree", degree)
    if degree < 1:
        raise PreconditionError(f"degree {degree} is less than 1")

    a, d = (divmod(rng.randrange((q - 1) * q ** (degree - 1)), q - 1)
            for _ in range(2))
    b, c = (rng.randrange(q ** degree) for _ in range(2))
    m = rng.randrange(-2, 3)

    def digits(n, low):
        """The nonzero base-q digits of n at exponents low, low + 1, ..."""
        out = {}
        while n:
            n, r = divmod(n, q)
            if r:
                out[low] = r
            low += 1
        return out

    def unit(high_r, low):
        high, r = high_r
        return laurent._raw(q, {low: 1 + r, **digits(high, low + 1)})

    return (
        (laurent._raw(q, digits(c, m + 1)), unit(d, m)),
        (unit(a, m + 1), laurent._raw(q, digits(b, m + 1))),
    )


def random_i1_conjugate(g, rng, length=4):
    """h^-1 g h for a random h in I1: h = s_1 ... s_length, each s_i a
    generator drawn with its kind, [[1, x], [0, 1]] with x at e^0..e^2,
    [[1, 0], [x, 1]] with x at e^1..e^3, or [[u, 0], [0, 1]] with u a
    nonzero constant.  Each generator draws its kind and then its x or u,
    and g is conjugated by it as soon as it is drawn:
    h^-1 g h = s_length^-1 (... (s_1^-1 g s_1) ...) s_length.

    For g = [[a, b], [c, d]] the three steps are these.  The upper
    generator has inverse [[1, -x], [0, 1]], and

        g s = [[a, a x + b], [c, c x + d]],
        s^-1 g s = [[a - x c, b + x (a - d) - x^2 c], [c, d + x c]],

    so with y = x c the entries become (a - y, b + x (a - d - y), c,
    d + y).  The lower generator has inverse [[1, 0], [-x, 1]], and

        g s = [[a + b x, b], [c + d x, d]],
        s^-1 g s = [[a + x b, b], [c + x (d - a) - x^2 b, d - x b]],

    so with y = x b they become (a + y, b, c + x (d - a - y), d - y).
    The diagonal one gives [[a, b u^-1], [c u, d]]: u is a unit of F_q,
    so scaling each coefficient of b by u^-1 and of c by u modulo q
    keeps them in [1, q).

    Each step works on the entries' coefficient dicts, with no Laurent
    operator.  An upper step forms y = x c as integer sums, then a - y,
    reduced modulo q, then b + x (a' - d) from that new a' = a - y,
    since a - d - y = a' - d, and d + y, each entry reduced once; a lower
    step forms y = x b, a' = a + y, c + x (d - a') and d - y the same
    way.  Reduction modulo q is a ring map, so each entry is the one the
    operators, which reduce after every sum and product, would give.  x
    keeps only its nonzero draws, which it still draws in order, so the
    generator ends in the same state.  A step forms at most two products
    and no inverse, and the four scalars are built once, at the end.  q
    is that of g's entries, checked when they were built."""
    (a, b), (c, d) = g
    q = a.q
    A, B, C, D = a.coeffs, b.coeffs, c.coeffs, d.coeffs
    plus, product, reduced = laurent._plus, laurent._product, laurent._reduced
    for _ in range(length):
        kind = rng.randrange(3)
        if kind == 0:
            x = {k: t for k in range(3) if (t := rng.randrange(q))}
            y = product(x, C)
            A = reduced(q, plus(A, y, -1))
            B = reduced(q, plus(B, product(x, plus(A, D, -1))))
            D = reduced(q, plus(D, y))
        elif kind == 1:
            x = {k: t for k in range(1, 4) if (t := rng.randrange(q))}
            y = product(x, B)
            A = reduced(q, plus(A, y))
            C = reduced(q, plus(C, product(x, plus(D, A, -1))))
            D = reduced(q, plus(D, y, -1))
        else:
            u = rng.randrange(1, q)
            v = pow(u, -1, q)
            B = {k: t * v % q for k, t in B.items()}
            C = {k: t * u % q for k, t in C.items()}
    return ((laurent._raw(q, A), laurent._raw(q, B)),
            (laurent._raw(q, C), laurent._raw(q, D)))


# -- homology window models --------------------------------------------

@dataclass(frozen=True)
class RecurrenceModule:
    """Window model of the degree -2 homology: basis b_n for |n| <= N,
    s_i b_n = -b_n when n and i have the same parity, and
    s_i b_n = b_n + b_{n-1} + b_{n+1} otherwise (interior n only; s_i
    sends b_-N and b_N to 0).  `act` applies this rule to a coordinate
    vector, and the matrix of s_i is read off it, one basis vector per
    column, so the closure and the relations read the one rule."""
    N: int

    def act(self, i, vec):
        """s_i applied to the coordinates `vec` of sum vec[n + N] b_n, by
        the rule, in one pass over the interior."""
        out = [0] * len(vec)
        for col in range(1, 2 * self.N):
            c = vec[col]
            if not c:
                continue
            if (col - self.N - i) % 2 == 0:
                out[col] -= c
            else:
                out[col - 1] += c
                out[col] += c
                out[col + 1] += c
        return tuple(out)

    def action_matrix(self, i):
        """The matrix of s_i: column n + N is act(i, b_n)."""
        return tuple(zip(*(self.act(i, self.basis_vector(n))
                           for n in range(-self.N, self.N + 1))))

    def basis_vector(self, n):
        vec = [0] * (2 * self.N + 1)
        vec[n + self.N] = 1
        return tuple(vec)


def _charge_window(N):
    """Charge the window |n| <= N against WINDOW_WORK_BUDGET."""
    size = 2 * N + 1
    charge(f"recurrence window N={N} of {size} basis vectors, which would"
           f" weigh {size ** 3} (their number cubed),", size ** 3,
           WINDOW_WORK_BUDGET)


def module_generation_check(N):
    """True iff b_0 and b_1 generate the interior of the window, plus
    the coinvariant rank of the interior quotient (always 0 here, since
    -2 b_n lies in the augmentation image for every parity).  A window N
    that is not an int >= 2 raises PreconditionError, and one past
    WINDOW_WORK_BUDGET BudgetError, before the module is built."""
    require_int("window", N)
    if N < 2:
        raise PreconditionError("window must extend at least two steps")
    _charge_window(N)
    module = RecurrenceModule(N)
    # Closure under both involutions: every vector that enlarges the
    # span is mapped through each of them exactly once.
    span = linalg.EchelonBasis()
    pending = [module.basis_vector(0), module.basis_vector(1)]
    while pending:
        vec = pending.pop()
        if span.add(vec):
            pending.extend(module.act(i, vec) for i in (1, 2))
    generated = all(span.contains(module.basis_vector(n))
                    for n in range(-N + 1, N))
    # Coinvariants of the interior: quotient by (s_i - 1) images,
    # projected to interior coordinates.
    interior = range(1, 2 * N)
    eye = linalg.identity_mat(2 * N + 1)
    relations = [
        tuple(mat[row][col] - eye[row][col] for row in interior)
        for mat in (module.action_matrix(1), module.action_matrix(2))
        for col in interior
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
    (-1)^n * n must satisfy every relation and be independent; a window
    N that is not an int >= 1 raises PreconditionError first, and then
    one past WINDOW_WORK_BUDGET BudgetError."""
    require_int("window", N)
    if N < 1:
        raise PreconditionError("window must extend at least one step")
    _charge_window(N)
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

