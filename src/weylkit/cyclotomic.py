"""Exact arithmetic in cyclotomic fields Q(zeta_m).

A scalar is a polynomial residue modulo the m-th cyclotomic polynomial,
stored as its phi(m) coefficients.  Coefficients are ints; a Fraction
appears only where division by a rational creates one.  Phi_m is monic
over Z, so reduction goes through one integer table per conductor: the
rows of x^k mod Phi_m for k < m.  Mixed conductors are unified to the
least common multiple on demand; equality is coefficient equality after
unification.  Only the operations the character computations need are
provided: ring arithmetic, complex conjugation, and division by
rationals.
"""

from fractions import Fraction
from math import gcd

from .errors import PreconditionError

_cyclo_cache = {}
_table_cache = {}


def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_divmod(a, b):
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


def cyclotomic_polynomial(m):
    """Coefficient list of Phi_m, low degree first, exact."""
    if m in _cyclo_cache:
        return _cyclo_cache[m]
    poly = [Fraction(-1)] + [Fraction(0)] * (m - 1) + [Fraction(1)]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            poly, rem = _poly_divmod(poly, cyclotomic_polynomial(d))
            if rem:
                raise AssertionError("cyclotomic division left a remainder")
    _cyclo_cache[m] = poly
    return poly


def _table(m):
    """(phi(m), rows): rows[k] lists the nonzero (index, int) terms of
    x^k mod Phi_m for k < m.  Built once per conductor."""
    if m in _table_cache:
        return _table_cache[m]
    if m < 1:
        raise PreconditionError(f"conductor {m} is not positive")
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    # x^deg = -(phi_0 + ... + phi_{deg-1} x^(deg-1)); Phi_m is monic.
    top = [-int(c) for c in phi[:-1]]
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
    """An int, or a Fraction that is not an integer."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


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

    def _pair(self, other):
        if not isinstance(other, Cyc):
            other = Cyc.rational(other)
        if other.m == self.m:
            return self, other
        m = self.m * other.m // gcd(self.m, other.m)
        return self.promote(m), other.promote(m)

    def __add__(self, other):
        a, b = self._pair(other)
        return _new(a.m, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return _new(self.m, tuple(-x for x in self.coeffs))

    def __sub__(self, other):
        a, b = self._pair(other)
        return _new(a.m, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
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
        inv = Fraction(1, 1) / Fraction(other)
        return _new(self.m, tuple(_coerce(x * inv) for x in self.coeffs))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyc.rational(other)
        if not isinstance(other, Cyc):
            return NotImplemented
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
