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

Membership reads each entry only through its valuation.  The
fixed-point count walks the word tree of coset representatives (Serre,
Trees, Ch. II §1) carrying x^-1 g x; it classifies level L from the
valuations of the children of level L - 1, read off level L - 1's
t-independent pieces, and forms those pieces straight from the matrices
of level L - 2 and t.  So it builds no matrix past level L - 2, and a
count that settles at level 2 builds none but g.

tau = [[0, 1], [e, 0]] normalizes the Iwahori subgroup (Iwahori and
Matsumoto, 1965): tau^-1 [[a,b],[c,d]] tau = [[d, c/e], [e b, a]], and
both displays read the same conditions off C and off its tau-conjugate
(I1: v(a)=v(d)=m, v(b)>=m, v(c)>=m+1; I2: v(c)=v(b)+1, v(a)>=v(b)+1,
v(d)>=v(b)+1).  So a node and its tau-conjugate have the same class, and
the walk classifies each node once.  It counts only I2 members, and the
I2 rule decides on v(c)=v(b)+1 before it reads a or d, so it forms a
branch's b- and c-pieces and their valuations for every child, and its
a- and d-pieces only when some child passes.  It refuses, with
BudgetError, a level that would take it past WALK_NODE_BUDGET nodes.
"""

import math
from dataclasses import dataclass
from functools import partial

from . import laurent, linalg
from .errors import (
    BudgetError,
    IndeterminateError,
    InternalConsistencyError,
    PreconditionError,
)
from .laurent import LaurentScalar, is_prime, quadratic

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
    q = a.q
    e2 = LaurentScalar.eps(q, 2)
    e1 = LaurentScalar.eps(q, 1)
    expr = e2 * (b + c) * (b + c) - LaurentScalar.const(q, 4) * e2 * b * c \
        - e1 * a * d
    v = expr.valuation()
    if v != 1:
        raise InternalConsistencyError(
            f"discriminant valuation {v} != 1 for an I2 matrix")
    return v


# -- coset enumeration -------------------------------------------------

def _exact_inverse(M):
    """Inverse of a matrix whose determinant is a monomial times a unit
    constant."""
    det = laurent.mat_det(M)
    adj = ((M[1][1], -M[0][1]), (-M[1][0], M[0][0]))
    return tuple(tuple(x / det for x in row) for row in adj)


def _pieces(C, letter):
    """The t-independent scalars of s^-1 C s for the q edges
    s = u_letter(t) n_letter, t in range(q), of the word tree below C:
    s = [[-t, 1], [-1, 0]] for letter 1 and [[0, e^-1], [-e, t]] for
    letter 0, both of determinant 1.  Each entry of a child is
    x0 + t x1 + t^2 x2 with scalars that depend only on C; the four
    entries come as (x0, x1, x2) triples, None marking an absent term."""
    (a, b), (c, d) = C
    if letter == 1:
        # ((d + t c, -c), (-b + t (d - a) + t^2 c, a - t c))
        neg_c = -c
        return ((d, c, None), (neg_c, None, None),
                (-b, d - a, c), (a, neg_c, None))
    # ((d - t eb, -c e^-2 + t (a - d) e^-1 + t^2 b), (-b e^2, a + t eb))
    eb = b.shift(1)
    return ((d, -eb, None), (-c.shift(-2), (a - d).shift(-1), b),
            (-b.shift(2), None, None), (a, eb, None))


def _children(pieces, q):
    """The q children s^-1 C s, t in range(q), from C's pieces: at most
    three `laurent.quadratic` constructions each."""
    def entry(t, piece):
        x0, x1, x2 = piece
        return x0 if x1 is None else quadratic(t, x0, x1, x2)

    p00, p01, p10, p11 = pieces
    return [((entry(t, p00), entry(t, p01)), (entry(t, p10), entry(t, p11)))
            for t in range(q)]


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


def _tau_conjugate(C):
    """tau^-1 C tau for the normalizing element tau = [[0, 1], [e, 0]]."""
    (a, b), (c, d) = C
    return ((d, c.shift(-1)), (b.shift(1), a))


def _child_branches(C, letter, pieces, q):
    """The branches of C's q children s^-1 C s, t in range(q), for the
    letter their words take next, formed straight from C's entries, its
    pieces `_pieces(C, letter)` and t, without building the children.
    Each branch is (b-piece, c-piece, thunk) and the thunk forms its
    (a-piece, d-piece); the pieces equal `_pieces` of the child that
    `_children` builds.  The terms all t share are formed once, or read
    from C's pieces where those hold them, so a child's b- and c-pieces
    take two `laurent.quadratic` calls; the terms only the a- and
    d-pieces read are formed in the thunk, which a walk calls only for a
    branch where some child passes v(c) = v(b) + 1."""
    (a, b), (c, d) = C
    if letter == 1:
        # child [[d + t c, -c], [-b + t (d - a) + t^2 c, a - t c]], whose
        # letter-0 pieces are (a - t c, e c), (e^-2 (b + t (a - d) - t^2 c),
        # e^-1 ((d - a) + t (c + c)), -c), (e^2 c) and (d + t c, -e c)
        (neg_c, _, _), (_, d_a, _) = pieces[1:3]
        b0, b1, b2 = b.shift(-2), (-d_a).shift(-2), neg_c.shift(-2)
        x10, x11 = d_a.shift(-1), (c + c).shift(-1)
        pc = (c.shift(2), None, None)

        def branch(t):
            pb = (quadratic(t, b0, b1, b2), quadratic(t, x10, x11), neg_c)
            return pb, pc, partial(ad, t)

        def ad(t):
            return (quadratic(t, a, neg_c), c.shift(1), None), \
                (quadratic(t, d, c), neg_c.shift(1), None)
    else:
        # child [[d - t eb, -e^-2 c + t e^-1 (a - d) + t^2 b], [-e^2 b,
        # a + t eb]], whose letter-1 pieces are (a + t eb, -e^2 b),
        # (e^2 b), (e^-2 c + t e^-1 (d - a) - t^2 b, (a - d) + t (eb + eb),
        # -e^2 b) and (d - t eb, e^2 b)
        (_, neg_eb, _), (neg_c0, a_d1, _), (neg_e2b, _, _), (_, eb, _) = pieces
        c0, c1, c2 = -neg_c0, -a_d1, -b
        x10, x11 = a_d1.shift(1), eb + eb
        e2b = -neg_e2b
        pb = (e2b, None, None)

        def branch(t):
            pc = (quadratic(t, c0, c1, c2), quadratic(t, x10, x11), neg_e2b)
            return pb, pc, partial(ad, t)

        def ad(t):
            return (quadratic(t, a, eb), neg_e2b, None), \
                (quadratic(t, d, neg_eb), e2b, None)
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


def _tree(g):
    """The word tree below g, one level per step: for word lengths
    0, 1, 2, ..., the list of (x^-1 g x, branches) over the level's
    coset representatives x I1, where branches holds (letter, pieces)
    for each letter that extends x's word.  Each length-l word in the
    two alternating letters contributes q^l nodes; the tree carries
    x^-1 g x down, never x, and builds a level only when the consumer
    asks for it."""
    q = g[0][0].q
    frontier = [(g, None)]
    while True:
        nodes = [(conj, [(letter, _pieces(conj, letter))
                         for letter in (0, 1) if letter != last])
                 for conj, last in frontier]
        yield nodes
        frontier = [(child, letter)
                    for _, branches in nodes
                    for letter, pieces in branches
                    for child in _children(pieces, q)]


def _walk(g):
    """For word lengths 0, 1, 2, ..., the branches of that level's
    nodes, one (b-piece, c-piece, a/d thunk) per node and letter that
    extends its word, in the order of `_tree`: g's from its own pieces,
    and level l + 1's from the nodes and pieces of level l through
    `_child_branches`.  So the walk builds level l's matrices only when
    asked for level l + 1's branches, whose valuations classify level
    l + 2."""
    q = g[0][0].q
    levels = _tree(g)
    nodes = next(levels)
    yield [(pb, pc, lambda pa=pa, pd=pd: (pa, pd))
           for _, branches in nodes for _, (pa, pb, pc, pd) in branches]
    while True:
        yield [branch for conj, branches in nodes
               for letter, pieces in branches
               for branch in _child_branches(conj, letter, pieces, q)]
        nodes = next(levels)


def conjugate_levels(g):
    """Yield, for word lengths 0, 1, 2, ..., the conjugates x^-1 g x over
    that level's coset representatives x I1, each followed by its
    tau-conjugate."""
    for nodes in _tree(g):
        yield [m for conj, _ in nodes for m in (conj, _tau_conjugate(conj))]


def fixed_point_count(g, prec=None, max_length=8):
    """Number of cosets x I1 with x^-1 g x in I2, enumerated over
    truncated Bruhat-cell representatives.  Stabilization is declared
    when the counts at word-length bounds L and L+2 agree.  `prec` is
    accepted and unused: `perfbench/worker.py` passes it.

    Membership reads only the valuation of each entry, so a level is
    classified from the pieces of the level above it: each child's
    valuations come from its t-polynomials without building it.  The
    pieces of level L - 1 come straight from the matrices of level L - 2
    and t (`_child_branches`), so classifying level L builds no matrix
    past level L - 2, and a count that settles at level 2 builds none
    but g.  A node and its tau-conjugate have the same class, so each
    node counts 2 [C in I2]; the walk reads the valuations of each
    branch's b- and c-pieces for every t, and those of its a- and
    d-pieces only when some t has v(c) = v(b) + 1, the test the I2 rule
    makes first.

    Level L >= 1 of the walk has 2 q^L nodes.  Before it forms a level
    that would take the nodes classified past WALK_NODE_BUDGET, the count
    raises BudgetError."""
    if max_length < 0:
        raise PreconditionError(f"max_length={max_length} is negative")
    if iwahori_class(g) != "I2":
        raise PreconditionError("element must lie in the odd Iwahori coset")
    q = g[0][0].q
    walk = _walk(g)
    # g itself is in I2 (checked above), and so is its tau-conjugate
    running = 2
    cumulative = [running]
    classified = 1
    for length in range(1, max_length + 1):
        classified += 2 * q ** length
        if classified > WALK_NODE_BUDGET:
            raise BudgetError(
                f"fixed-point walk to word length {length} would classify"
                f" {classified} nodes, more than the budget of"
                f" {WALK_NODE_BUDGET}")
        running += 2 * _i2_children(next(walk), q)
        cumulative.append(running)
        if length >= 2 and cumulative[length - 2] == running:
            return running
    raise IndeterminateError(
        f"count did not stabilize by word length {max_length}",
        partial=running)


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


def recurrence_solution_space(window=8):
    """Dimension and closed-form basis of sequences with
    -u_n = u_n + u_{n-1} + u_{n+1}: dimension 2, basis (-1)^n and
    (-1)^n * n, verified on the window."""
    def step(u0, u1, n_steps):
        seq = [u0, u1]
        for _ in range(n_steps):
            seq.append(-2 * seq[-1] - seq[-2])
        return seq

    basis = (
        ("(-1)^n", [(-1) ** n for n in range(window)]),
        ("(-1)^n*n", [((-1) ** n) * n for n in range(window)]),
    )
    for _, values in basis:
        iterated = step(values[0], values[1], window - 2)
        if iterated != values:
            raise InternalConsistencyError("closed form fails the recurrence")
    return 2, tuple(name for name, _ in basis)


def steinberg_value(q):
    return 2 * q - 1


def _is_prime_power(q):
    """True iff q = p^k for a prime p and k >= 1."""
    if q < 2:
        return False
    if is_prime(q):
        return True
    p = next(d for d in range(2, q) if q % d == 0)  # least prime factor
    while q % p == 0:
        q //= p
    return q == 1


def almost_char_44(q):
    """The almost-character value 2q: the recurrence solution dimension
    scaled by the declared weight-q Frobenius convention, cross-checked
    against the Steinberg value plus the unit contribution."""
    if not _is_prime_power(q):
        raise PreconditionError(f"{q} is not a prime power")
    dim, _ = recurrence_solution_space()
    value = q * dim
    if value - steinberg_value(q) != 1:
        raise InternalConsistencyError("bookkeeping 2q = (2q-1) + 1 failed")
    return value


def a_space_dims():
    """Hom-space dimensions {degree: dim} against the degree -2
    recurrence model."""
    dim, _ = recurrence_solution_space()
    return {2: dim}
