"""Laurent polynomials over a prime field.

A scalar is an element of F_q[e, e^-1] inside F_q((e)): finitely many
nonzero coefficients indexed by exponents of the uniformizer e.  Every
element of G(K), K = F_q((e)), that the library forms has such entries:
parsed matrices, the random Iwahori elements and their conjugates.  So
arithmetic is exact, and a valuation is the least exponent with a
nonzero coefficient; the valuation of zero is +infinity.

Every scalar keeps one invariant: each stored coefficient lies in
[1, q).  `_new` establishes it by reducing modulo q and dropping zeros;
negation (c -> q - c) and `shift` preserve it, so they build their
result directly without that pass.
"""

import math
import re

from .errors import PreconditionError, UnsupportedRegimeError


def is_prime(k):
    """True iff the integer k is a prime (trial division)."""
    return k >= 2 and all(k % d for d in range(2, int(k ** 0.5) + 1))


def _new(q, coeffs):
    """A LaurentScalar for an already validated q from
    {exponent: integer}: reduces mod q and drops zeros in one loop."""
    x = object.__new__(LaurentScalar)
    x.q = q
    x.coeffs = {e: r for e, c in coeffs.items() if (r := c % q)}
    return x


def _raw(q, coeffs):
    """A LaurentScalar from data that already keeps the invariant."""
    x = object.__new__(LaurentScalar)
    x.q = q
    x.coeffs = coeffs
    return x


class LaurentScalar:
    """A Laurent polynomial over F_q, an element of F_q((e))."""

    __slots__ = ("q", "coeffs")
    __hash__ = None

    def __new__(cls, q, coeffs):
        if not is_prime(q):
            raise UnsupportedRegimeError(f"{q} is not prime; only prime base"
                                         " fields are supported")
        return _new(q, coeffs)

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero(q):
        return LaurentScalar(q, {})

    @staticmethod
    def one(q):
        return LaurentScalar(q, {0: 1})

    @staticmethod
    def const(q, c):
        return LaurentScalar(q, {0: c})

    @staticmethod
    def eps(q, n=1):
        return LaurentScalar(q, {n: 1})

    def valuation(self):
        """The least exponent with a nonzero coefficient; +inf for zero."""
        return min(self.coeffs) if self.coeffs else math.inf

    # -- arithmetic ----------------------------------------------------
    def _compat(self, other):
        if not isinstance(other, LaurentScalar):
            return _new(self.q, {0: other})
        if other.q != self.q:
            raise PreconditionError("mismatched base fields")
        return other

    def __add__(self, other):
        other = self._compat(other)
        out = dict(self.coeffs)
        for exp, c in other.coeffs.items():
            out[exp] = out.get(exp, 0) + c
        return _new(self.q, out)

    __radd__ = __add__

    def __neg__(self):
        q = self.q
        return _raw(q, {e: q - c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        other = self._compat(other)
        out = dict(self.coeffs)
        for exp, c in other.coeffs.items():
            out[exp] = out.get(exp, 0) - c
        return _new(self.q, out)

    def __rsub__(self, other):
        return self._compat(other) - self

    def __mul__(self, other):
        other = self._compat(other)
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return _new(self.q, out)

    __rmul__ = __mul__

    def inverse(self):
        """The inverse of a unit of the Laurent polynomials, a monomial
        c e^v: c^-1 e^-v."""
        if len(self.coeffs) != 1:
            raise PreconditionError(f"{self.render()} is not a monomial, so"
                                    " not a unit of the Laurent polynomials")
        ((v, c),) = self.coeffs.items()
        return _raw(self.q, {-v: pow(c, -1, self.q)})

    def __truediv__(self, other):
        """The quotient, when it is a Laurent polynomial.  Long division
        from the lowest exponent up: each step removes the remainder's
        lowest term, and the quotient's exponents cannot pass
        deg(self) - deg(other), so it ends with an empty remainder or
        refuses."""
        other = self._compat(other)
        if not other.coeffs:
            raise PreconditionError("cannot divide by zero")
        q = self.q
        rem = dict(self.coeffs)
        if not rem:
            return _raw(q, {})
        v = min(other.coeffs)
        top = max(rem) - max(other.coeffs)
        lead_inv = pow(other.coeffs[v], -1, q)
        out = {}
        while rem:
            low = min(rem)
            k = low - v
            if k > top:
                raise PreconditionError("the quotient is not a Laurent"
                                        " polynomial")
            c = rem[low] * lead_inv % q
            out[k] = c
            for exp, oc in other.coeffs.items():
                r = (rem.get(k + exp, 0) - c * oc) % q
                if r:
                    rem[k + exp] = r
                else:
                    rem.pop(k + exp, None)
        return _raw(q, out)

    def shift(self, n):
        """Multiply by e^n."""
        return _raw(self.q, {e + n: c for e, c in self.coeffs.items()})

    def __eq__(self, other):
        return self.coeffs == self._compat(other).coeffs

    # -- text ------------------------------------------------------------
    def render(self):
        if not self.coeffs:
            return "0"
        parts = []
        for exp in sorted(self.coeffs):
            c = self.coeffs[exp]
            if exp == 0:
                parts.append(str(c))
            elif exp == 1:
                parts.append(f"{c}e" if c != 1 else "e")
            else:
                parts.append(f"{c}e{exp}" if c != 1 else f"e{exp}")
        return "+".join(parts)

    def __repr__(self):
        return f"LaurentScalar({self.render()})"


def quadratic(t, x0, x1, x2=None):
    """x0 + t*x1 + t^2*x2 for an integer t, in one construction: the
    coefficients of x0 + x1*t + (x2*t)*t, and x0 itself for t = 0 modulo
    q.  x2 = None leaves out the t^2 term."""
    q = x0.q
    t %= q
    if not t:
        return x0
    out = dict(x0.coeffs)
    for exp, c in x1.coeffs.items():
        out[exp] = out.get(exp, 0) + t * c
    if x2 is not None:
        t2 = t * t
        for exp, c in x2.coeffs.items():
            out[exp] = out.get(exp, 0) + t2 * c
    return _new(q, out)


_TERM = re.compile(r"^(?:(\d+)\*?)?(?:e(?:\^?(-?\d+))?)?$")


def parse_scalar(text, q):
    """Parse "c0+c1e+c2e2@v": polynomial in e shifted by e^v."""
    text = text.strip()
    shift = 0
    if "@" in text:
        text, _, v = text.rpartition("@")
        try:
            shift = int(v)
        except ValueError:
            raise PreconditionError(f"cannot parse shift {v!r}") from None
    coeffs = {}
    for term in text.split("+"):
        term = term.strip()
        if not term:
            raise PreconditionError(f"empty term in scalar {text!r}")
        m = _TERM.match(term)
        if not m or (m.group(1) is None and "e" not in term):
            raise PreconditionError(f"cannot parse scalar term {term!r}")
        coeff = int(m.group(1)) if m.group(1) is not None else 1
        if "e" in term:
            exp = int(m.group(2)) if m.group(2) is not None else 1
        else:
            exp = 0
        coeffs[exp + shift] = coeffs.get(exp + shift, 0) + coeff
    return LaurentScalar(q, coeffs)


# -- 2x2 matrices ------------------------------------------------------

def mat_mul(A, B):
    (a, b), (c, d) = A
    (w, x), (y, z) = B
    return ((a * w + b * y, a * x + b * z),
            (c * w + d * y, c * x + d * z))


def mat_det(M):
    return M[0][0] * M[1][1] - M[0][1] * M[1][0]


def identity_matrix(q):
    one = LaurentScalar.one(q)
    zero = LaurentScalar.zero(q)
    return ((one, zero), (zero, one))


def parse_matrix(text, q):
    """Parse "a,b;c,d" with scalar entries."""
    rows = text.strip().split(";")
    if len(rows) != 2:
        raise PreconditionError("matrix needs two rows")
    out = []
    for row in rows:
        entries = row.split(",")
        if len(entries) != 2:
            raise PreconditionError("matrix rows need two entries")
        out.append(tuple(parse_scalar(e, q) for e in entries))
    return tuple(out)
