"""Laurent polynomials over a prime field.

A scalar is an element of F_q[e, e^-1] inside F_q((e)): finitely many
nonzero coefficients indexed by exponents of the uniformizer e.  Every
element of G(K), K = F_q((e)), that the library forms has such entries:
parsed matrices, random elements of the odd Iwahori coset and the
conjugates of a matrix by random elements of I1.  So arithmetic is
exact, and a valuation is the least exponent with a nonzero
coefficient; the valuation of zero is +infinity.

Every scalar keeps one invariant: each stored coefficient lies in
[1, q).  The operators add and multiply coefficient dicts as integers
(`_plus`, `_product`), which pgl2's I1-conjugation calls on dicts too,
and `_new` establishes the invariant by reducing modulo q and dropping
zeros (`_reduced`);
negation (c -> q - c) preserves it, so it builds its result directly
without that pass.  `_new` and `_raw` check nothing, so a caller that
builds many scalars over one q, such as pgl2's random elements, checks
q once, or takes it from scalars already checked, and builds through
them.  An operator takes a scalar over the same q or an
int, and returns NotImplemented otherwise.
"""

import math
import re

from .errors import PreconditionError, require_int, require_prime


def _reduced(q, coeffs):
    """{exponent: integer} modulo q, its zeros dropped, in one loop."""
    return {e: r for e, c in coeffs.items() if (r := c % q)}


def _plus(X, Y, w=1):
    """The integer coefficients of X + w Y for {exponent: integer}
    dicts X and Y."""
    out = dict(X)
    for e, c in Y.items():
        out[e] = out.get(e, 0) + w * c
    return out


def _product(X, Y):
    """The integer coefficients of X Y for {exponent: integer} dicts X
    and Y."""
    out = {}
    for e1, c1 in X.items():
        for e2, c2 in Y.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return out


def _new(q, coeffs):
    """A LaurentScalar for an already validated q from
    {exponent: integer}: reduced mod q, zeros dropped."""
    x = object.__new__(LaurentScalar)
    x.q = q
    x.coeffs = _reduced(q, coeffs)
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
        require_prime(q)
        require_int("exponent", *coeffs)
        require_int("coefficient", *coeffs.values())
        return _new(q, coeffs)

    def valuation(self):
        """The least exponent with a nonzero coefficient; +inf for zero."""
        return min(self.coeffs) if self.coeffs else math.inf

    # -- arithmetic ----------------------------------------------------
    def _compat(self, other):
        if isinstance(other, LaurentScalar):
            if other.q != self.q:
                raise PreconditionError("mismatched base fields")
            return other
        if isinstance(other, int):
            return _new(self.q, {0: other})
        return NotImplemented

    def __add__(self, other):
        other = self._compat(other)
        if other is NotImplemented:
            return other
        return _new(self.q, _plus(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __neg__(self):
        q = self.q
        return _raw(q, {e: q - c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        other = self._compat(other)
        if other is NotImplemented:
            return other
        return _new(self.q, _plus(self.coeffs, other.coeffs, -1))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        other = self._compat(other)
        if other is NotImplemented:
            return other
        return _new(self.q, _product(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def inverse(self):
        """The inverse of a unit of the Laurent polynomials, a monomial
        c e^v: c^-1 e^-v."""
        if len(self.coeffs) != 1:
            raise PreconditionError(f"{self.render()} is not a monomial, so"
                                    " not a unit of the Laurent polynomials")
        ((v, c),) = self.coeffs.items()
        return _raw(self.q, {-v: pow(c, -1, self.q)})

    def __eq__(self, other):
        other = self._compat(other)
        if other is NotImplemented:
            return other
        return self.coeffs == other.coeffs

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


_TERM = re.compile(r"^(?:(\d+)\*?)?(?:e(?:\^?(-?\d+))?)?$")


def _parse_scalar(text, q):
    """Parse "c0+c1e+c2e2@v": polynomial in e shifted by e^v, over F_q
    for a prime q that the caller has tested."""
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
    return _new(q, coeffs)


# -- 2x2 matrices ------------------------------------------------------

def mat_mul(A, B):
    (a, b), (c, d) = A
    (w, x), (y, z) = B
    return ((a * w + b * y, a * x + b * z),
            (c * w + d * y, c * x + d * z))


def mat_det(M):
    return M[0][0] * M[1][1] - M[0][1] * M[1][0]


def parse_matrix(text, q):
    """Parse "a,b;c,d" with scalar entries over F_q, testing once that
    q is prime."""
    require_prime(q)
    rows = text.strip().split(";")
    if len(rows) != 2:
        raise PreconditionError("matrix needs two rows")
    out = []
    for row in rows:
        entries = row.split(",")
        if len(entries) != 2:
            raise PreconditionError("matrix rows need two entries")
        out.append(tuple(_parse_scalar(e, q) for e in entries))
    return tuple(out)
