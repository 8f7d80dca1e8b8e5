"""Exact arithmetic in cyclotomic fields Q(zeta_m).

A scalar is a polynomial residue modulo the m-th cyclotomic polynomial,
stored as its phi(m) coefficients.  Coefficients are ints; a Fraction
appears only where division by a rational creates one.  Phi_m is an
integer product of the binomials x^d - 1 (see `cyclotomic_polynomial`)
and is monic, so reduction goes through one integer table per
conductor: the rows of x^k mod Phi_m for k < m.  A rational operand
(an int, a Fraction, or a scalar of conductor 1) acts on the other
operand's coefficients in the basis 1, zeta, ..., zeta^(phi-1): it
shifts coefficient 0 under + and -, scales every coefficient under *,
and under == it must equal coefficient 0 while every other coefficient
is zero.  Any other operand, a float or a str say, is refused: the
operators return NotImplemented and the constructors raise
PreconditionError, as Cyc does for coefficients that are not a sequence
(None, an int, or a dict, whose keys iteration would read).  Two scalars
of larger conductor are unified to the least common multiple; equality
is then coefficient equality.  Only the operations the character
computations need are provided: ring arithmetic, complex conjugation,
and division by rationals.
"""

from collections.abc import Sequence
from fractions import Fraction
from math import gcd

from .errors import PreconditionError, least_prime_factor, require_int

_table_cache = {}


def cyclotomic_polynomial(m):
    """Coefficient list of Phi_m, low degree first, as ints.

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
    if m < 1:
        raise PreconditionError(f"conductor {m} is not positive")
    factors = [(m, 1)]  # (d, mu(m/d)) over squarefree m/d
    rest = m
    while rest > 1:
        p = least_prime_factor(rest)
        factors += [(d // p, -mu) for d, mu in factors]
        while rest % p == 0:
            rest //= p
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
    x^k mod Phi_m for k < m.  Built once per conductor."""
    if m in _table_cache:
        return _table_cache[m]
    phi = cyclotomic_polynomial(m)
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


def _new(m, coeffs):
    """A Cyc from an already reduced tuple of int/Fraction coefficients."""
    z = object.__new__(Cyc)
    z.m = m
    z.coeffs = coeffs
    return z


class Cyc:
    """An element of Q(zeta_m)."""

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
        return _new(1, (_coerce(x),))

    @staticmethod
    def zeta(m, k=1):
        require_int("conductor", m)
        require_int("exponent", k)
        deg, rows = _table(m)
        coeffs = [0] * deg
        for i, c in rows[k % m]:
            coeffs[i] = c
        return _new(m, tuple(coeffs))

    def promote(self, big):
        if big == self.m:
            return self
        if big % self.m != 0:
            raise PreconditionError("conductor must divide the target")
        step = big // self.m
        lifted = [0] * (len(self.coeffs) * step)
        lifted[::step] = self.coeffs
        return _new(big, _reduce(lifted, big))

    def _rational_side(self, other):
        """(z, c) when one operand is rational of conductor 1: c is its
        one coefficient and z the other operand.  None when both are
        scalars of larger conductor.  An operand that is neither a Cyc
        nor exact raises PreconditionError, which the operators turn into
        NotImplemented."""
        if not isinstance(other, Cyc):
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
            return _new(z.m, (z.coeffs[0] + c,) + z.coeffs[1:])
        a, b = self._pair(other)
        return _new(a.m, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return _new(self.m, tuple(-x for x in self.coeffs))

    def __sub__(self, other):
        try:
            split = self._rational_side(other)
        except PreconditionError:
            return NotImplemented
        if split:
            z, c = split
            if z is self:
                return _new(z.m, (z.coeffs[0] - c,) + z.coeffs[1:])
            return _new(z.m, (c - z.coeffs[0],)
                        + tuple(-x for x in z.coeffs[1:]))
        a, b = self._pair(other)
        return _new(a.m, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))

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
            return _new(z.m, tuple(x * c if x and c else 0 for x in z.coeffs))
        a, b = self._pair(other)
        bc = b.coeffs
        product = [0] * (len(a.coeffs) + len(bc) - 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(bc, i):
                    if y:
                        product[j] += x * y
        return _new(a.m, _reduce(product, a.m))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Cyc):
            if not other.is_rational():
                raise PreconditionError("division only by rational scalars")
            other = other.to_fraction()
        elif not isinstance(other, (int, Fraction)):
            return NotImplemented
        if not other:
            raise PreconditionError("division by zero")
        inv = Fraction(1, 1) / Fraction(other)
        return _new(self.m, tuple(_coerce(x * inv) for x in self.coeffs))

    def __eq__(self, other):
        if not isinstance(other, (int, Fraction, Cyc)):
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
        return _new(m, tuple(out))

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
        return f"Cyc({self.render()})"
