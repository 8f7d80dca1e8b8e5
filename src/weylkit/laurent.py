"""Precision-tracked formal Laurent series over a prime field.

A scalar is a finite window of coefficients indexed by exponents of the
uniformizer e, together with a precision bound: coefficients at
exponents >= prec are unknown.  Exact elements (Laurent polynomials,
all higher coefficients zero) carry infinite precision.  Arithmetic is
pessimistic: any operation that cannot be decided at the tracked
precision raises rather than guessing, because the downstream
valuation arguments are parity-sensitive.

The valuation of zero is +infinity.

Every scalar keeps one invariant: each stored coefficient lies in
[1, q) and each stored exponent is below prec.  `_new` establishes it by
reducing modulo q and dropping zeros and exponents at or beyond prec;
negation (c -> q - c), `shift` and `truncate` preserve it, so they build
their result directly without that pass.
"""

import math
import re

from .errors import IndeterminateError, PreconditionError, UnsupportedRegimeError


def is_prime(k):
    """True iff the integer k is a prime (trial division)."""
    return k >= 2 and all(k % d for d in range(2, int(k ** 0.5) + 1))


def _new(q, coeffs, prec):
    """A LaurentScalar for an already validated q and prec from
    {exponent: integer}: reduces mod q and drops zeros and exponents at
    or beyond prec in one loop."""
    x = object.__new__(LaurentScalar)
    x.q = q
    x.prec = prec
    if prec is math.inf:
        x.coeffs = {e: r for e, c in coeffs.items() if (r := c % q)}
    else:
        x.coeffs = {e: r for e, c in coeffs.items()
                    if (r := c % q) and e < prec}
    return x


def _raw(q, coeffs, prec):
    """A LaurentScalar from data that already keeps the invariant."""
    x = object.__new__(LaurentScalar)
    x.q = q
    x.prec = prec
    x.coeffs = coeffs
    return x


class LaurentScalar:
    """An element of F_q((e)) known modulo e^prec."""

    __slots__ = ("q", "coeffs", "prec")
    __hash__ = None

    def __new__(cls, q, coeffs, prec=math.inf):
        if not is_prime(q):
            raise UnsupportedRegimeError(f"{q} is not prime; only prime base"
                                         " fields are supported")
        if prec is not math.inf and not isinstance(prec, int):
            raise PreconditionError("precision must be an integer or infinite")
        return _new(q, coeffs, prec)

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero(q, prec=math.inf):
        return LaurentScalar(q, {}, prec)

    @staticmethod
    def one(q):
        return LaurentScalar(q, {0: 1})

    @staticmethod
    def const(q, c):
        return LaurentScalar(q, {0: c})

    @staticmethod
    def eps(q, n=1):
        return LaurentScalar(q, {n: 1})

    # -- predicates ----------------------------------------------------
    def is_exact(self):
        return self.prec is math.inf

    def is_zero_to_prec(self):
        return not self.coeffs

    def val_lower_bound(self):
        """A certified lower bound for the valuation."""
        if self.coeffs:
            return min(self.coeffs)
        return self.prec  # +inf for exact zero

    def valuation(self):
        """Exact valuation; +inf for exact zero; raises when the value is
        zero to precision but not known to be zero."""
        if self.coeffs:
            return min(self.coeffs)
        if self.is_exact():
            return math.inf
        raise IndeterminateError(
            "valuation undecidable: zero to precision "
            f"e^{self.prec}", partial=self.prec)

    # -- arithmetic ----------------------------------------------------
    def _compat(self, other):
        if not isinstance(other, LaurentScalar):
            return _new(self.q, {0: other}, math.inf)
        if other.q != self.q:
            raise PreconditionError("mismatched base fields")
        return other

    def __add__(self, other):
        other = self._compat(other)
        out = dict(self.coeffs)
        for exp, c in other.coeffs.items():
            out[exp] = out.get(exp, 0) + c
        return _new(self.q, out, min(self.prec, other.prec))

    __radd__ = __add__

    def __neg__(self):
        q = self.q
        return _raw(q, {e: q - c for e, c in self.coeffs.items()}, self.prec)

    def __sub__(self, other):
        other = self._compat(other)
        out = dict(self.coeffs)
        for exp, c in other.coeffs.items():
            out[exp] = out.get(exp, 0) - c
        return _new(self.q, out, min(self.prec, other.prec))

    def __rsub__(self, other):
        return self._compat(other) - self

    def __mul__(self, other):
        other = self._compat(other)
        a, b = self.coeffs, other.coeffs
        pa, pb = self.prec, other.prec
        inf = math.inf
        if (pa is inf and not a) or (pb is inf and not b):
            return _new(self.q, {}, inf)
        # a = A + O(e^Pa), b = B + O(e^Pb):
        # ab = AB + O(e^(v(B)+Pa)) + O(e^(v(A)+Pb)) + O(e^(Pa+Pb)).
        prec = inf
        if pb is not inf:
            prec = (min(a) if a else pa) + pb
        if pa is not inf:
            prec = min(prec, (min(b) if b else pb) + pa)
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return _new(self.q, out, prec)

    __rmul__ = __mul__

    def inverse(self, prec=None):
        """Series inverse, known modulo e^prec."""
        v = self.valuation()
        if v is math.inf:
            raise PreconditionError("cannot invert zero")
        if prec is None:
            if self.prec is math.inf:
                raise PreconditionError("an exact element needs a target"
                                        " precision for inversion")
            prec = self.prec - 2 * v
        elif self.prec is not math.inf and prec > self.prec - 2 * v:
            raise IndeterminateError(
                "inverse not known to the requested precision",
                partial=self.prec - 2 * v)
        # self = e^v * u with u a unit; invert u modulo e^(prec + v).
        length = prec + v
        if length <= 0:
            raise IndeterminateError("no significant digits at this precision",
                                     partial=prec)
        u = [0] * length
        for exp, c in self.coeffs.items():
            if exp - v < length:
                u[exp - v] = c
        lead_inv = pow(u[0], -1, self.q)
        inv = [0] * length
        inv[0] = lead_inv
        for n in range(1, length):
            acc = sum(u[k] * inv[n - k] for k in range(1, n + 1)) % self.q
            inv[n] = (-acc * lead_inv) % self.q
        return LaurentScalar(self.q,
                             {k - v: c for k, c in enumerate(inv)}, prec)

    def __truediv__(self, other):
        other = self._compat(other)
        prec = None
        if self.prec is math.inf and other.prec is math.inf:
            quotient_exact = self._exact_divide(other)
            if quotient_exact is not None:
                return quotient_exact
            raise PreconditionError("exact quotient is not a Laurent"
                                    " polynomial; truncate first")
        return self * other.inverse(prec)

    def _exact_divide(self, other):
        """Exact polynomial division when it terminates, else None."""
        v_other = other.valuation()
        if v_other is math.inf:
            raise PreconditionError("cannot invert zero")
        if not self.coeffs:
            return _new(self.q, {}, math.inf)
        rem = dict(self.coeffs)
        out = {}
        lead_inv = pow(other.coeffs[v_other], -1, self.q)
        guard = len(self.coeffs) + len(other.coeffs) + 64
        while rem:
            if guard == 0:
                return None
            guard -= 1
            lo = min(rem)
            c = (rem[lo] * lead_inv) % self.q
            out[lo - v_other] = c
            for exp, oc in other.coeffs.items():
                k = lo - v_other + exp
                rem[k] = (rem.get(k, 0) - c * oc) % self.q
                if rem[k] == 0:
                    del rem[k]
        return _new(self.q, out, math.inf)

    def truncate(self, prec):
        """The same scalar known only modulo e^prec (if that is less than
        its own precision)."""
        if prec is not math.inf and not isinstance(prec, int):
            raise PreconditionError("precision must be an integer or infinite")
        if prec >= self.prec:
            return _raw(self.q, dict(self.coeffs), self.prec)
        return _raw(self.q, {e: c for e, c in self.coeffs.items() if e < prec},
                    prec)

    def shift(self, n):
        """Multiply by e^n (exactly)."""
        prec = self.prec if self.prec is math.inf else self.prec + n
        return _raw(self.q, {e + n: c for e, c in self.coeffs.items()}, prec)

    def __eq__(self, other):
        """Equality on the common known window; raises if the values
        agree there but the windows differ and digits are left over."""
        other = self._compat(other)
        prec = min(self.prec, other.prec)
        for exp in set(self.coeffs) | set(other.coeffs):
            if exp >= prec:
                continue
            if self.coeffs.get(exp, 0) != other.coeffs.get(exp, 0):
                return False
        return True

    # -- text ------------------------------------------------------------
    def render(self):
        if not self.coeffs:
            body = "0"
        else:
            parts = []
            for exp in sorted(self.coeffs):
                c = self.coeffs[exp]
                if exp == 0:
                    parts.append(str(c))
                elif exp == 1:
                    parts.append(f"{c}e" if c != 1 else "e")
                else:
                    parts.append(f"{c}e{exp}" if c != 1 else f"e{exp}")
            body = "+".join(parts)
        if self.prec is math.inf:
            return body
        return f"{body}+O(e{self.prec})"

    def __repr__(self):
        return f"LaurentScalar({self.render()})"


def quadratic(t, x0, x1, x2=None):
    """x0 + t*x1 + t^2*x2 for an integer t, in one construction.

    The coefficients and the precision are those of the step-by-step
    arithmetic x0 + x1*t + (x2*t)*t: for t = 0 modulo q that arithmetic
    adds exact zeros, so x0 itself is returned; otherwise each term keeps
    the precision of its scalar and the result is known to the least of
    them.  x2 = None leaves out the t^2 term."""
    q = x0.q
    t %= q
    if not t:
        return x0
    out = dict(x0.coeffs)
    for exp, c in x1.coeffs.items():
        out[exp] = out.get(exp, 0) + t * c
    if x2 is None:
        return _new(q, out, min(x0.prec, x1.prec))
    t2 = t * t
    for exp, c in x2.coeffs.items():
        out[exp] = out.get(exp, 0) + t2 * c
    return _new(q, out, min(x0.prec, x1.prec, x2.prec))


_TERM = re.compile(r"^(?:(\d+)\*?)?(?:e(?:\^?(-?\d+))?)?$")


def parse_scalar(text, q, prec=math.inf):
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
    return LaurentScalar(q, coeffs, prec)


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


def parse_matrix(text, q, prec=math.inf):
    """Parse "a,b;c,d" with scalar entries."""
    rows = text.strip().split(";")
    if len(rows) != 2:
        raise PreconditionError("matrix needs two rows")
    out = []
    for row in rows:
        entries = row.split(",")
        if len(entries) != 2:
            raise PreconditionError("matrix rows need two entries")
        out.append(tuple(parse_scalar(e, q, prec) for e in entries))
    return tuple(out)
