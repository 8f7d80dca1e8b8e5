"""Exact arithmetic in cyclotomic fields Q(zeta_m).

A scalar is a polynomial residue modulo the m-th cyclotomic polynomial,
stored as (m, nums, den): phi(m) integer numerators, the coefficients of
1, zeta, ..., zeta^(phi-1) times den, over one positive integer
denominator, as FLINT's fmpq_poly stores a rational polynomial.  The
form is canonical: gcd(content of nums, den) = 1, so zero is stored
with den 1.  A residue has exactly one coefficient vector v, and that
gcd is 1 exactly when den is the least positive d with d v integral (a
prime p dividing both leaves (den / p) v integral, and a larger den is
that least d times a factor of both), so within one conductor two
scalars are equal exactly when their (nums, den) tuples are.  Every
result is divided by that gcd once, when it is built (`_new`).  Phi_m is
an integer product of the binomials x^d - 1 (see
`_cyclotomic_polynomial`) and is monic, so reduction goes through one
integer table per conductor: the rows of x^k mod Phi_m for k < m.

A rational operand (an int, a Fraction, or a scalar of conductor 1) acts
on the other operand's coefficients: it shifts coefficient 0 under + and
-, scales every coefficient under *, and under == it must equal
coefficient 0 while every other coefficient is zero.  Under * so does a
rational scalar whose conductor divides the other's.  A bool is the
int it is.  Any other operand, a float, a complex or a str say, is
refused: the operators return NotImplemented and the constructors raise
PreconditionError, as Cyc does for coefficients that are not a sequence
(None, an int, or a dict, whose keys iteration would read).  Two
scalars of larger conductor are unified to the least common multiple.
Only the operations the character computations need are provided: ring
arithmetic, complex conjugation and division by rationals.

A sum of terms s zeta_M^i conj(t zeta_M^j) is formed in integers: let
pi: R = Z[x]/(x^M - 1) -> Q(zeta_M) be the ring map x -> zeta_M, which
`Cyc(M, row)` evaluates on a row of M ints.  Inversion iota: x -> x^-1 =
x^(M-1) is a ring automorphism of R, and pi . iota and conj . pi are
ring maps that agree on x (both give zeta_M^-1), so they are equal.  So
s t x^((i - j) mod M) lifts the term, pi is additive, and a sum of terms
is one row, reduced modulo Phi_M once (`reps.character_norm`,
`fourier.pairing`).
"""

from collections.abc import Sequence
from fractions import Fraction
from math import gcd, lcm

from .errors import PreconditionError, charge, least_prime_factor, require_int

_table_cache = {}

# The entries a reduction table may hold: `_table(m)` builds m rows of
# phi(m) entries.  The largest conductor a command reaches, 76 (`reps
# --denominator 38`), costs 2,736.  A sum of scalars is formed at the lcm
# of their conductors: 1980 = lcm(9, 11, 20) costs 950,400, and the
# prime 2003 would cost 4,010,006.
TABLE_ENTRY_BUDGET = 1000000


def _prime_factors(m):
    """The distinct primes dividing the conductor m, least first, by trial
    division; PreconditionError for an m that is not positive."""
    if m < 1:
        raise PreconditionError(f"conductor {m} is not positive")
    primes = []
    rest = m
    while rest > 1:
        p = least_prime_factor(rest)
        primes.append(p)
        while rest % p == 0:
            rest //= p
    return primes


def _cyclotomic_polynomial(m):
    """Coefficient list of Phi_m, low degree first, as ints; `_table`
    calls it once the table's m phi(m) entries are charged.

    Since x^m - 1 is the product of Phi_d over the divisors d of m,
    Moebius inversion gives

      Phi_m = prod over d | m of (x^d - 1)^mu(m/d).

    mu(m/d) is nonzero only when m/d is a product of distinct primes of
    m, so the factors are d = m / prod(S) over the sets S of primes
    dividing m, with exponent (-1)^|S|.  The product of the factors with
    exponent +1 is Phi_m times the product of those with exponent -1.
    So multiply by the first kind (a shift and a subtract), then divide
    by the second kind one at a time: each division leaves Phi_m times
    the factors still to divide, so it is exact.  If p = q (x^d - 1),
    then p_i = q_(i-d) - q_i, so q_i = q_(i-d) - p_i from the bottom
    up: x^d - 1 is monic, and every step stays in the integers.
    """
    factors = [(m, 1)]  # (d, mu(m/d)) over squarefree m/d
    for p in _prime_factors(m):
        factors += [(d // p, -mu) for d, mu in factors]
    poly = [1]
    for d, mu in factors:
        if mu == 1:
            shifted = [0] * d + poly
            for i, c in enumerate(poly):
                shifted[i] -= c
            poly = shifted
    for d, mu in factors:
        if mu == -1:
            quotient = []
            for i in range(len(poly) - d):
                quotient.append((quotient[i - d] if i >= d else 0) - poly[i])
            poly = quotient
    return poly


def _table(m):
    """(phi(m), rows): rows[k] lists the nonzero (index, int) terms of
    x^k mod Phi_m for k < m.  Built once per conductor, after its m phi(m)
    entries are charged against TABLE_ENTRY_BUDGET; phi(m) is read off
    the primes of m, which trial division finds within its own budget."""
    if m in _table_cache:
        return _table_cache[m]
    entries = m
    for p in _prime_factors(m):
        entries = entries // p * (p - 1)
    entries *= m
    charge(f"a reduction table for conductor {m} of {entries} entries",
           entries, TABLE_ENTRY_BUDGET)
    phi = _cyclotomic_polynomial(m)
    deg = len(phi) - 1
    # x^deg = -(phi_0 + ... + phi_{deg-1} x^(deg-1)); Phi_m is monic.
    top = [-c for c in phi[:-1]]
    rows = []
    dense = [0] * deg
    for k in range(m):
        if k < deg:
            dense = [0] * deg
            dense[k] = 1
        else:  # x^k = x * x^(k-1)
            carry = dense[-1]
            dense = [0] + dense[:-1]
            if carry:
                dense = [d + carry * t for d, t in zip(dense, top)]
        rows.append(tuple((i, c) for i, c in enumerate(dense) if c))
    _table_cache[m] = (deg, rows)
    return deg, rows


def _reduce(coeffs, m):
    """Reduce a coefficient list modulo x^m - 1 and then Phi_m."""
    deg, rows = _table(m)
    if len(coeffs) > m:
        folded = [0] * m
        for k, c in enumerate(coeffs):
            folded[k % m] += c
    else:
        folded = list(coeffs)
    out = folded[:deg]
    out += [0] * (deg - len(out))
    for k in range(deg, len(folded)):
        c = folded[k]
        if c:
            for i, r in rows[k]:
                out[i] += c * r
    return tuple(out)


def _lowest(nums, den):
    """nums/den divided by gcd(content of nums, den): the canonical form."""
    g = gcd(den, *nums)
    if g == 1:
        return nums, den
    return tuple(n // g for n in nums), den // g


def _new(m, nums, den=1):
    """The Cyc nums/den of conductor m, from a reduced tuple of ints and a
    positive int den."""
    if den != 1:
        nums, den = _lowest(nums, den)
    z = object.__new__(Cyc)
    z.m = m
    z.nums = nums
    z.den = den
    return z


def _pad(r, z):
    """The rational scalar r (of conductor 1) at the conductor of z, built
    without `promote`: its one numerator becomes coefficient 0."""
    return _new(z.m, r.nums + (0,) * (len(z.nums) - 1), r.den)


def _ratio(x):
    """(numerator, denominator) of an exact rational: an int (a bool is
    one, and gives 0 or 1) or a Fraction; anything else, a float or a str
    say, raises PreconditionError."""
    if isinstance(x, int):
        return int(x), 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise PreconditionError(f"{type(x).__name__} is not an exact rational")


_INT = {int}


def _operand(x):
    """x as a Cyc, an exact rational as one of conductor 1; None for
    anything else."""
    if isinstance(x, Cyc):
        return x
    if isinstance(x, (int, Fraction)):
        return Cyc.rational(x)
    return None


class Cyc:
    """An element of Q(zeta_m), nums/den in the basis 1, zeta, ...,
    zeta^(phi(m)-1)."""

    __slots__ = ("m", "nums", "den")
    __hash__ = None

    def __init__(self, m, coeffs):
        require_int("conductor", m)
        # list and tuple first: they skip the slower ABC check
        if not isinstance(coeffs, (list, tuple, Sequence)):
            raise PreconditionError(f"coefficients {coeffs!r} are not a"
                                    f" sequence")
        if _INT.issuperset(map(type, coeffs)):
            nums, den = coeffs, 1
        else:
            ratios = [_ratio(c) for c in coeffs]
            den = lcm(*(d for _, d in ratios))
            nums = [n * (den // d) for n, d in ratios]
        nums = _reduce(nums, m)
        if den != 1:
            nums, den = _lowest(nums, den)
        self.m, self.nums, self.den = m, nums, den

    @staticmethod
    def rational(x):
        n, d = _ratio(x)
        return _new(1, (n,), d)

    @staticmethod
    def zeta(m, k=1):
        require_int("conductor", m)
        require_int("exponent", k)
        deg, rows = _table(m)
        nums = [0] * deg
        for i, c in rows[k % m]:
            nums[i] = c
        return _new(m, tuple(nums))

    @property
    def coeffs(self):
        """The coefficients: the numerators when den is 1, else each
        numerator over den as a Fraction."""
        if self.den == 1:
            return self.nums
        return tuple(Fraction(n, self.den) for n in self.nums)

    def promote(self, big):
        """self at the conductor big, a positive multiple of self.m.  big
        is checked, and its reduction table read (trial division and
        TABLE_ENTRY_BUDGET refuse a big past their budgets), before the
        lifted list is allocated."""
        require_int("target conductor", big)
        if big < 1 or big % self.m != 0:
            raise PreconditionError(f"target conductor {big} is not a"
                                    f" positive multiple of {self.m}")
        if big == self.m:
            return self
        _table(big)
        step = big // self.m
        lifted = [0] * (len(self.nums) * step)
        lifted[::step] = self.nums
        return _new(big, _reduce(lifted, big), self.den)

    def _pair(self, other):
        """self and the Cyc other at one conductor.  A rational side is
        padded, not promoted; two scalars of larger conductor are promoted
        to the least common multiple."""
        if other.m == self.m:
            return self, other
        if other.m == 1:
            return self, _pad(other, self)
        if self.m == 1:
            return _pad(self, other), other
        m = lcm(self.m, other.m)
        return self.promote(m), other.promote(m)

    def _plus(self, other, sign):
        """self + sign * other over the lcm of the denominators, or
        NotImplemented for an operand that is not exact."""
        other = _operand(other)
        if other is None:
            return NotImplemented
        a, b = self._pair(other)
        g = gcd(a.den, b.den)
        sa, sb = b.den // g, sign * (a.den // g)
        return _new(a.m, tuple(x * sa + y * sb
                               for x, y in zip(a.nums, b.nums)), a.den * sa)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _new(self.m, tuple(-x for x in self.nums), self.den)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self)._plus(other, 1)

    def __mul__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        den = self.den * other.den
        # a rational side whose conductor divides the other's scales it
        for z, r in ((self, other), (other, self)):
            if r.is_rational() and z.m % r.m == 0:
                c = r.nums[0]
                return _new(z.m, tuple(x * c for x in z.nums), den)
        a, b = self._pair(other)
        bn = b.nums
        product = [0] * (2 * len(bn) - 1)
        for i, x in enumerate(a.nums):
            if x:
                for j, y in enumerate(bn, i):
                    if y:
                        product[j] += x * y
        return _new(a.m, _reduce(product, a.m), den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        if not other.is_rational():
            raise PreconditionError("division only by rational scalars")
        n, d = other.nums[0], other.den
        if not n:
            raise PreconditionError("division by zero")
        if n < 0:
            n, d = -n, -d
        return _new(self.m, tuple(x * d for x in self.nums), self.den * n)

    def __eq__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        a, b = self._pair(other)
        return a.nums == b.nums and a.den == b.den

    def conjugate(self):
        m = self.m
        deg, rows = _table(m)
        out = [0] * deg
        for k, c in enumerate(self.nums):
            if c:
                for i, r in rows[-k % m]:
                    out[i] += c * r
        return _new(m, tuple(out), self.den)

    def is_rational(self):
        return not any(self.nums[1:])

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
        return f"Cyc({self.render()})"
