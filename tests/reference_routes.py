"""Reference routes the tests compare the library with.

Each builds what the library's own route avoids building: every matrix
of a level of the fixed-point walk as a product of matrices, the
discriminant as a product of Laurent polynomials, an I1-conjugate as a
random element of I1 and two 2x2 products with its inverse, a Weyl element
multiplied out letter by letter and inverted by transposes, the reduced
word of each conjugate a coset generator makes, the coset geometry's
tables from full Weyl lifts and Schreier products, the Witt zero from
its components, Phi_m by Fraction long division of x^m - 1 by each
Phi_d, d a proper divisor of m, a cyclotomic scalar with a Fraction per
coefficient instead of one denominator, the Hermite form of a lattice's
dual by the general elimination, the Hermite form itself by a
Euclid minimum search instead of extended-gcd steps, a torus point as
one Fraction per coordinate taken mod 1, a character norm as one
reduced Cyc per character value, summed on their numerators, and the
Fourier pairing as a sum of Cyc products, each with a conjugate, over
characters whose values are Cyc.zeta at each element's own order, and
the square of a matrix by Cyc products and sums, one operation each.
No command, check or benchmark runs them, so they live here, beside the
tests that read them.
"""

import functools
import itertools
import operator
from collections.abc import Sequence
from fractions import Fraction
from math import gcd, lcm

from weylkit import alcove, lattices, laurent, linalg, pgl2, reps, weyl, witt
from weylkit.cyclotomic import Cyc, _new, _reduce, _table
from weylkit.errors import PreconditionError, require_int, require_prime
from weylkit.laurent import LaurentScalar


@functools.cache
def edge(letter, t, q):
    """The edge s_letter(t) of the word tree: [[-t, 1], [-1, 0]] for
    letter 1 and [[0, e^-1], [-e, t]] for letter 0, both of determinant
    1.  Built once per (letter, t, q): no caller changes a scalar."""
    one, zero = LaurentScalar(q, {0: 1}), LaurentScalar(q, {})
    scalar = LaurentScalar(q, {0: t})
    if letter == 1:
        return ((-scalar, one), (-one, zero))
    return ((zero, LaurentScalar(q, {-1: 1})),
            (LaurentScalar(q, {1: -1}), scalar))


def _conjugate(C, s, s_inv):
    """s_inv C s, multiplied out."""
    return laurent.mat_mul(s_inv, laurent.mat_mul(C, s))


def children(C, letter, q):
    """The q children s^-1 C s, s = s_letter(t) and t in range(q), each
    a product with the edge and its adjugate, its inverse."""
    out = []
    for t in range(q):
        s = edge(letter, t, q)
        (a, b), (c, d) = s
        out.append(_conjugate(C, s, ((d, -b), (-c, a))))
    return out


@functools.cache
def _tau_and_inverse(q):
    """tau = [[0, 1], [e, 0]] and tau^-1 = [[0, e^-1], [1, 0]] over F_q,
    built once per q."""
    one, zero = LaurentScalar(q, {0: 1}), LaurentScalar(q, {})
    return (((zero, one), (LaurentScalar(q, {1: 1}), zero)),
            ((zero, LaurentScalar(q, {-1: 1})), (one, zero)))


def tau_conjugate(C):
    """tau^-1 C tau for the normalizing element tau = [[0, 1], [e, 0]],
    multiplied out."""
    return _conjugate(C, *_tau_and_inverse(C[0][0].q))


def conjugate_levels(g):
    """Yield, for word lengths 0, 1, 2, ..., the conjugates x^-1 g x over
    that level's coset representatives x I1, each followed by its
    tau-conjugate.  Each length-l word in the two alternating letters
    contributes q^l nodes, each built as a matrix: the reference the
    tests compare the count's valuation route with.  The levels carry
    x^-1 g x down, never x."""
    q = g[0][0].q
    frontier = [(g, None)]
    while True:
        yield [m for conj, _ in frontier for m in (conj, tau_conjugate(conj))]
        frontier = [(child, letter)
                    for conj, last in frontier
                    for letter in (0, 1) if letter != last
                    for child in children(conj, letter, q)]


def monomial(q, n):
    """e^n over F_q, which multiplies a scalar's exponents up by n."""
    return LaurentScalar(q, {n: 1})


def discriminant_by_products(M):
    """The valuation of e^2(b+c)^2 - 4e^2 bc - e a d for the normal form
    `pgl2.i2_normal_form` gives M, each entry shifted to its normal-form
    exponents by a power of e and the formula multiplied out."""
    q = M[0][0].q
    m, A, B, C, D = pgl2.i2_normal_form(M)
    a, b, c = (LaurentScalar(q, X) * monomial(q, -(m + 1))
               for X in (A, B, C))
    d = LaurentScalar(q, D) * monomial(q, -m)
    expr = ((b + c) * (b + c) - b * c * 4) * monomial(q, 2) \
        - a * d * monomial(q, 1)
    return expr.valuation()


def random_i1(q, rng, length=4):
    """A random element of I1 with exactly invertible determinant: the
    identity times `length` generators, each drawn with its kind,
    [[1, x], [0, 1]] with x at e^0..e^2, [[1, 0], [x, 1]] with x at
    e^1..e^3, or [[u, 0], [0, 1]] with u a nonzero constant.  A generator
    changes one column of the product, so each step forms two products:
    the second column gains x times the first, the first gains x times
    the second, or the first is scaled by u.  q is tested for primality
    once."""
    require_prime(q)
    one, zero = laurent._raw(q, {0: 1}), laurent._raw(q, {})
    (a, b), (c, d) = (one, zero), (zero, one)
    for _ in range(length):
        kind = rng.randrange(3)
        if kind == 0:
            x = laurent._new(q, {k: rng.randrange(q) for k in range(3)})
            b, d = a * x + b, c * x + d
        elif kind == 1:
            x = laurent._new(q, {k: rng.randrange(q) for k in range(1, 4)})
            a, c = a + b * x, c + d * x
        else:
            u = laurent._raw(q, {0: rng.randrange(1, q)})
            a, c = a * u, c * u
    return ((a, b), (c, d))


def exact_inverse(M):
    """Inverse of a matrix whose determinant is a monomial c e^v: the
    adjugate times det^-1."""
    inv = laurent.mat_det(M).inverse()
    return ((M[1][1] * inv, -M[0][1] * inv), (-M[1][0] * inv, M[0][0] * inv))


def conjugate_exact(g, h):
    """h^-1 g h for h with monomial-unit determinant, multiplied out."""
    return _conjugate(g, h, exact_inverse(h))


def from_word(datum, word):
    """The Weyl element s_word[0] s_word[1] ..., multiplied out."""
    w = weyl.identity(datum)
    for i in word:
        w = weyl.multiply(w, weyl.simple_reflection(datum, i))
    return w


def contragredient(w):
    """The matrix of w on V in the b-basis: s_i acts on V by the
    transpose of its V-dagger matrix, so this is the product of those
    transposes along w's reduced word."""
    out = linalg.identity_mat(w.datum.n + 1)
    for i in w.word():
        s = weyl.simple_reflection(w.datum, i).mat
        out = linalg.mat_mul(out, tuple(zip(*s)))
    return out


def inverse(w):
    """w^-1, whose V-dagger matrix is the transpose of w's contragredient
    (mat(w)^-1 = dual(w)^T), so no elimination is needed."""
    return weyl.WeylElement(w.datum, tuple(zip(*contragredient(w))))


def is_min_coset_generator(w, J):
    """Whether w normalizes W_J and is minimal in its coset w W_J, by word
    extraction: the reduced word of each w s_j w^-1, j in J, uses only
    letters of J, and w has no right descent in J, that is, w^-1 has no
    left descent in J."""
    winv = inverse(w)
    for j in J:
        conj = w * weyl.simple_reflection(w.datum, j) * winv
        if any(letter not in J for letter in conj.word()):
            return False
    return not any(j in J for j in weyl.left_descents(winv))


def hnf_by_euclid(rows):
    """Row-style Hermite normal form by a Euclid minimum search: each
    column is cleared below its pivot row by moving the remaining row of
    least nonzero absolute entry up and subtracting quotients of it until
    one nonzero entry is left, and the entries above the pivot are then
    reduced into [0, pivot).  Zero rows are dropped."""
    mat = [list(row) for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    r = 0
    for c in range(ncols):
        while True:
            nz = [i for i in range(r, nrows) if mat[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(mat[i][c]))
            mat[r], mat[i0] = mat[i0], mat[r]
            if mat[r][c] < 0:
                mat[r] = [-x for x in mat[r]]
            done = True
            for i in range(r + 1, nrows):
                if mat[i][c] != 0:
                    q = mat[i][c] // mat[r][c]
                    mat[i] = [x - q * y for x, y in zip(mat[i], mat[r])]
                    if mat[i][c] != 0:
                        done = False
            if done:
                break
        if r < nrows and mat[r][c] != 0:
            # a later pivot row is zero in every column before its own,
            # so reducing above the pivot once is enough
            for i in range(r):
                q = mat[i][c] // mat[r][c]
                if q:
                    mat[i] = [x - q * y for x, y in zip(mat[i], mat[r])]
            r += 1
            if r == nrows:
                break
    return tuple(tuple(row) for row in mat[:r])


def coset_tables(datum, J):
    """The tables of `alcove.CosetGeometry(datum, J)` by full Weyl
    elements: each quotient element restricted to z_J through the
    u-basis u_k = b'_k - (n_k / n_k0) b'_k0 in Fraction arithmetic, a
    lift carried along each word as a full element, every Schreier
    element lift_t^-1 ss_k lift_i multiplied out, its displacement of
    b'_k0 / n_k0 read in the u-basis, and the rational Hermite form of
    those displacements.  Inverses in the quotient are looked up by
    inverting the matrices.  Returns quotient, quotient_left,
    quotient_inverse, torus_actions, the inverse of the L'-basis matrix
    (binv) and the displacements times n_k0 as integer rows
    (translations), keyed by those names."""
    J = tuple(sorted(set(J)))
    marks = datum.marks
    jcheck = tuple(k for k in range(datum.n + 1) if k not in J)
    k0, dim = jcheck[0], len(jcheck) - 1
    ubasis = []
    for k in jcheck[1:]:
        u = [Fraction(0)] * (datum.n + 1)
        u[k], u[k0] = Fraction(1), -Fraction(marks[k], marks[k0])
        ubasis.append(tuple(u))

    def ucoords(vec):
        assert all(vec[j] == 0 for j in J), "not supported on Jc"
        assert sum(m * x for m, x in zip(marks, vec)) == 0, "not level 0"
        return tuple(Fraction(vec[k]) for k in jcheck[1:])

    def restriction(mat):
        cols = [ucoords(linalg.mat_vec(mat, u)) for u in ubasis]
        return tuple(tuple(cols[c][r] for c in range(dim))
                     for r in range(dim))

    generators = weyl.min_coset_generators(datum, J)
    eye = restriction(weyl.identity(datum).mat)
    quotient, lifts, index = [eye], [weyl.identity(datum)], {eye: 0}
    left = {k: [] for k, _ in generators}
    head = 0
    while head < len(quotient):
        for k, g in generators:
            lift = g * lifts[head]
            new = restriction(lift.mat)
            if new not in index:
                index[new] = len(quotient)
                quotient.append(new)
                lifts.append(lift)
            left[k].append(index[new])
        head += 1
    tables = {"quotient": quotient,
              "quotient_left": {k: tuple(p) for k, p in left.items()},
              "quotient_inverse": tuple(index[linalg.mat_inv(r)] if dim else 0
                                        for r in quotient)}
    if dim == 0:
        return dict(tables, torus_actions=[()] * len(quotient), binv=None,
                    translations=None)
    base = [Fraction(0)] * (datum.n + 1)
    base[k0] = Fraction(1, marks[k0])
    vectors = []
    for k, g in generators:
        for i, t in enumerate(tables["quotient_left"][k]):
            schreier = inverse(lifts[t]) * g * lifts[i]
            assert restriction(schreier.mat) == eye, "not a translation"
            moved = linalg.mat_vec(schreier.mat, base)
            vectors.append(ucoords([a - b for a, b in zip(moved, base)]))
    denom = 1
    for v in vectors:
        for x in v:
            denom = denom * x.denominator // gcd(denom, x.denominator)
    rows = hnf_by_euclid([[int(x * denom) for x in v] for v in vectors])
    assert len(rows) == dim, "deficient rank"
    bmat = tuple(tuple(Fraction(rows[c][r], denom) for c in range(dim))
                 for r in range(dim))
    binv = linalg.mat_inv(bmat)
    actions = [linalg.mat_mul(binv, linalg.mat_mul(r, bmat)) for r in quotient]
    assert all(x.denominator == 1 for a in actions for row in a for x in row)
    scaled = {tuple(x * marks[k0] for x in v) for v in vectors}
    assert all(x.denominator == 1 for v in scaled for x in v)
    return dict(tables, torus_actions=actions, binv=binv, translations=scaled)


def witt_zero(p, m):
    return witt.WittScalar(p, m, (0,) * m)


def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_divmod(a, b):
    """Quotient and remainder of Fraction long division, low degree
    first, each without trailing zeros."""
    a = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    inv = Fraction(1, 1) / b[-1]
    for i in range(len(a) - len(b), -1, -1):
        coeff = a[i + len(b) - 1] * inv
        if coeff:
            q[i] = coeff
            for j, y in enumerate(b):
                a[i + j] -= coeff * y
    return _poly_trim(q), _poly_trim(a)


_by_division = {}


def cyclotomic_by_division(m):
    """Phi_m, low degree first: x^m - 1 divided by Phi_d for every
    proper divisor d of m, each by long division."""
    if m not in _by_division:
        poly = [Fraction(-1)] + [Fraction(0)] * (m - 1) + [Fraction(1)]
        for d in range(1, m):
            if m % d == 0:
                poly, rem = poly_divmod(poly, cyclotomic_by_division(d))
                assert not rem, "cyclotomic division left a remainder"
        _by_division[m] = poly
    return _by_division[m]


def _coerce(c):
    """An exact rational as an int, or a Fraction that is not an integer.
    Exact means an int (a bool is one, and gives 0 or 1) or a Fraction;
    anything else, a float or a str say, raises PreconditionError."""
    if type(c) is int:
        return c
    if isinstance(c, int):
        return int(c)
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise PreconditionError(f"{type(c).__name__} is not an exact rational")


def _frac(m, coeffs):
    """A FractionCyc from an already reduced tuple of int/Fraction
    coefficients."""
    z = object.__new__(FractionCyc)
    z.m = m
    z.coeffs = coeffs
    return z


class FractionCyc:
    """An element of Q(zeta_m) as phi(m) coefficients, each an int or a
    Fraction: the scalar `cyclotomic.Cyc` stored before it kept one
    denominator.  Reduction reads the library's table, which
    `cyclotomic_by_division` checks."""

    __slots__ = ("m", "coeffs")
    __hash__ = None

    def __init__(self, m, coeffs):
        require_int("conductor", m)
        if not isinstance(coeffs, Sequence):
            raise PreconditionError(f"coefficients {coeffs!r} are not a"
                                    f" sequence")
        deg, _ = _table(m)
        coeffs = tuple(_coerce(c) for c in coeffs)
        if len(coeffs) != deg:
            coeffs = _reduce(coeffs, m)
        self.m = m
        self.coeffs = coeffs

    @staticmethod
    def rational(x):
        return _frac(1, (_coerce(x),))

    @staticmethod
    def zeta(m, k=1):
        require_int("conductor", m)
        require_int("exponent", k)
        deg, rows = _table(m)
        coeffs = [0] * deg
        for i, c in rows[k % m]:
            coeffs[i] = c
        return _frac(m, tuple(coeffs))

    def promote(self, big):
        if big == self.m:
            return self
        if big % self.m != 0:
            raise PreconditionError("conductor must divide the target")
        step = big // self.m
        lifted = [0] * (len(self.coeffs) * step)
        lifted[::step] = self.coeffs
        return _frac(big, _reduce(lifted, big))

    def _rational_side(self, other):
        """(z, c) when one operand is rational of conductor 1: c is its
        one coefficient and z the other operand.  None when both are
        scalars of larger conductor.  An operand that is neither a FractionCyc
        nor exact raises PreconditionError, which the operators turn into
        NotImplemented."""
        if not isinstance(other, FractionCyc):
            return self, _coerce(other)
        if other.m == 1:
            return self, other.coeffs[0]
        if self.m == 1:
            return other, self.coeffs[0]
        return None

    def _pair(self, other):
        if other.m == self.m:
            return self, other
        m = self.m * other.m // gcd(self.m, other.m)
        return self.promote(m), other.promote(m)

    def __add__(self, other):
        try:
            split = self._rational_side(other)
        except PreconditionError:
            return NotImplemented
        if split:
            z, c = split
            return _frac(z.m, (z.coeffs[0] + c,) + z.coeffs[1:])
        a, b = self._pair(other)
        return _frac(a.m, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return _frac(self.m, tuple(-x for x in self.coeffs))

    def __sub__(self, other):
        try:
            split = self._rational_side(other)
        except PreconditionError:
            return NotImplemented
        if split:
            z, c = split
            if z is self:
                return _frac(z.m, (z.coeffs[0] - c,) + z.coeffs[1:])
            return _frac(z.m, (c - z.coeffs[0],)
                        + tuple(-x for x in z.coeffs[1:]))
        a, b = self._pair(other)
        return _frac(a.m, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        try:
            split = self._rational_side(other)
        except PreconditionError:
            return NotImplemented
        if split:
            # A zero factor leaves the int 0, as the convolution below does.
            z, c = split
            return _frac(z.m, tuple(x * c if x and c else 0 for x in z.coeffs))
        a, b = self._pair(other)
        bc = b.coeffs
        product = [0] * (len(a.coeffs) + len(bc) - 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(bc, i):
                    if y:
                        product[j] += x * y
        return _frac(a.m, _reduce(product, a.m))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, FractionCyc):
            if not other.is_rational():
                raise PreconditionError("division only by rational scalars")
            other = other.to_fraction()
        elif not isinstance(other, (int, Fraction)):
            return NotImplemented
        if not other:
            raise PreconditionError("division by zero")
        inv = Fraction(1, 1) / Fraction(other)
        return _frac(self.m, tuple(_coerce(x * inv) for x in self.coeffs))

    def __eq__(self, other):
        if not isinstance(other, (int, Fraction, FractionCyc)):
            return NotImplemented
        split = self._rational_side(other)
        if split:
            z, c = split
            return z.coeffs[0] == c and not any(z.coeffs[1:])
        a, b = self._pair(other)
        return a.coeffs == b.coeffs

    def conjugate(self):
        m = self.m
        deg, rows = _table(m)
        out = [0] * deg
        for k, c in enumerate(self.coeffs):
            if c:
                for i, r in rows[-k % m]:
                    out[i] += c * r
        return _frac(m, tuple(out))

    def is_rational(self):
        return all(c == 0 for c in self.coeffs[1:])

    def to_fraction(self):
        if not self.is_rational():
            raise PreconditionError("value is not rational")
        return Fraction(self.coeffs[0])

    def render(self):
        """Human-readable polynomial in z{m}."""
        if self.is_rational():
            return str(self.coeffs[0])
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                var = f"z{self.m}" + (f"^{k}" if k > 1 else "")
                if c == 1:
                    parts.append(var)
                elif c == -1:
                    parts.append(f"-{var}")
                else:
                    parts.append(f"{c}*{var}")
        return "+".join(parts).replace("+-", "-") or "0"

    def __repr__(self):
        return f"FractionCyc({self.render()})"


def sharp_by_canonical(z):
    """The dual of z by back-substitution, its rows reduced modulo
    p^(2n) with the units 1/4 and 1/8, then `lattices.canonical`, the
    general Hermite form over every row and column."""
    (d0, x01, x02), (_, d1, x12), (_, _, d2) = z.basis
    scale = z.p ** (2 * z.n)
    quarter = pow(4, -1, scale)
    eighth = pow(8, -1, scale)
    exact = lattices._exact
    y22 = exact(scale, d2)
    y21 = exact(-x12 * y22, d1)
    y20 = exact(-x01 * y21 - x02 * y22, d0)
    y11 = exact(scale, d1)
    y10 = exact(-x01 * y11, d0)
    y00 = exact(scale, d0)
    return lattices.canonical(z.p, z.n, (
        (y22 * quarter, y21 * eighth, y20 * quarter),
        (0, y11 * eighth, y10 * quarter),
        (0, 0, y00 * quarter)))


def p_J_by_fractions(datum, J, d):
    """The torus point p_J(d) as one Fraction in [0, 1) per coordinate:
    its L'-coordinates, each taken mod 1."""
    geo = alcove.geometry(datum, J)
    if any(c < 0 for c in d.coords) or any(d.coords[j] for j in geo.J):
        raise PreconditionError("d must lie in a cell C_S with S inside Jc")
    gamma = geo.lattice_coords(tuple(d.coords[k] for k in geo.jcheck[1:]))
    return tuple(g % 1 for g in gamma)


def order_by_fractions(values):
    """The order of a torus point of Fraction values: the lcm of their
    denominators."""
    return lcm(*(v.denominator for v in values))


def torus_act_by_fractions(tables, element_index, values):
    """The quotient element's integer matrix from `coset_tables` on the
    Fraction values, each taken mod 1."""
    return tuple(v % 1 for v in linalg.mat_vec(
        tables["torus_actions"][element_index], values))


def character_values(rep, t_order):
    """chi(x, w_i) for x in range(M)^rank, lexicographic, and for each x
    every quotient index i, M = max(1, t_order), in the order of
    `reps._trace_rows`: each value one integer row over the exponents
    mod M, read off the points' Fraction values and reduced modulo Phi_M
    once."""
    M = max(1, t_order)
    if any(M % v.denominator for point in rep.points for v in point.values):
        raise PreconditionError(
            f"the module's torus points have an order that does not"
            f" divide {M}")
    numerators = [tuple((v * M).numerator for v in point.values)
                  for point in rep.points]
    fin_diagonals = []
    for i in range(len(rep.geometry.quotient_words)):
        perm, scalars = rep.finite_image(i)
        fin_diagonals.append([(pos, scalars[pos])
                              for pos in range(rep.dimension)
                              if perm[pos] == pos])
    for x in itertools.product(range(M), repeat=rep.geometry.dim):
        ks = [sum(map(operator.mul, x, num)) % M for num in numerators]
        for entries in fin_diagonals:
            row = [0] * M
            for pos, f in entries:
                row[ks[pos]] += f
            yield Cyc(M, row)


def norm_sum(values):
    """The sum of z * conj(z) over the Cyc scalars `values`, reduced
    modulo Phi_m once per conductor m and denominator: a scalar nums/den
    lifts to a = sum of nums[i] x^i in Z[x]/(x^m - 1), and a * iota(a),
    iota: x -> x^-1, is the sum of nums[i] nums[j] x^((i - j) mod m),
    which x -> zeta_m carries to den^2 z conj(z) (see `cyclotomic`)."""
    sums = {}  # (m, den^2) -> the running sum in Z[x]/(x^m - 1) as m ints
    for z in values:
        key = z.m, z.den * z.den
        row = sums.get(key)
        if row is None:
            row = sums[key] = [0] * z.m
        nonzero = [(i, x) for i, x in enumerate(z.nums) if x]
        for i, x in nonzero:
            for j, y in nonzero:
                row[i - j] += x * y  # a negative i - j is (i - j) mod m
    total = Cyc.rational(0)
    for (m, den), row in sums.items():
        total = total + _new(m, _reduce(row, m), den)
    return total


def cyc_characters(gamma, members):
    """The irreducible characters of the subgroup `members` of the
    `fourier` group gamma, as dicts member -> Cyc: the abelian ones by
    trying every Cyc.zeta value at each member's order, the symmetric
    group on three letters by its table.  Ordered by degree, then by how
    many members go to 1, then by the render of each value."""
    mult, order = gamma.mult, gamma.order_of
    if all(mult[a, b] == mult[b, a] for a in members for b in members):
        chars = []
        for values in itertools.product(*(
                [Cyc.zeta(order[a], k) for k in range(order[a])]
                for a in members)):
            chi = dict(zip(members, values))
            if all(chi[mult[a, b]] == chi[a] * chi[b]
                   for a in members for b in members):
                chars.append(chi)
    else:
        table = {1: (1, 1, 2), 2: (1, -1, 0), 3: (1, 1, -1)}
        chars = [{a: Cyc.rational(table[order[a]][i]) for a in members}
                 for i in range(3)]

    def key(chi):
        ones = sum(1 for a in members if chi[a] == 1)
        return (chi[gamma.identity].coeffs[0], -ones,
                tuple(chi[a].render() for a in members))
    return sorted(chars, key=key)


def cyc_pairing_matrix(gamma):
    """The (x, sigma) labels of M(gamma) and its pairing matrix, each
    entry a sum of Cyc products s(g y g^-1) conj(t(g^-1 x g)) over
    |Z(x)| |Z(y)|."""
    pairs = [(cl[0], i, chi) for cl in gamma.classes
             for i, chi in enumerate(
                 cyc_characters(gamma, gamma.centralizer(cl[0])))]

    def entry(x, s, y, t):
        total = Cyc.rational(0)
        for g in gamma.elements:
            ygy = gamma.conjugate(g, y)
            if gamma.mult[x, ygy] != gamma.mult[ygy, x]:
                continue
            xgx = gamma.conjugate(gamma.inverse[g], x)
            total = total + s[ygy] * t[xgx].conjugate()
        return total / (len(gamma.centralizer(x)) * len(gamma.centralizer(y)))
    return ([(x, i) for x, i, _ in pairs],
            tuple(tuple(entry(x, s, y, t) for y, _, t in pairs)
                  for x, _, s in pairs))


def cyc_matrix_square(matrix):
    """matrix times itself, each entry a sum of Cyc products, one
    operator call per product and per sum."""
    n = len(matrix)
    return tuple(tuple(sum((matrix[i][k] * matrix[k][j] for k in range(n)),
                           Cyc.rational(0))
                       for j in range(n))
                 for i in range(n))


def squares_to_identity(matrix):
    """Whether the Cyc-operator square of `matrix` is the identity."""
    return all(entry == (1 if i == j else 0)
               for i, row in enumerate(cyc_matrix_square(matrix))
               for j, entry in enumerate(row))
