"""Truncated Witt vector arithmetic over prime fields.

The addition and multiplication structure polynomials are computed once
per (p, m) by ghost-component lifting over the integers: with
w_n = sum_i p^i X_i^(p^(n-i)), the n-th structure polynomial is
(w_n(result of the ghost operation) minus the lower contributions)
divided exactly by p^n.  Evaluating them modulo p gives the ring
W_m(F_p), which is checked elsewhere against the Z/p^m oracle.  For
evaluation each polynomial is compiled once per (p, m) into a list of
terms with coefficients reduced mod p.
"""

from dataclasses import dataclass

from .errors import PreconditionError, UnsupportedRegimeError
from .laurent import is_prime


# -- integer multivariate polynomials ({exponent tuple: coeff}) --------

def _p_add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
        if out[k] == 0:
            del out[k]
    return out


def _p_mul(a, b):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            out[k] = out.get(k, 0) + va * vb
    return {k: v for k, v in out.items() if v}


def _p_scale(a, c):
    return {k: v * c for k, v in a.items()} if c else {}


def _p_pow(a, e):
    result = None
    base = a
    while e:
        if e & 1:
            result = base if result is None else _p_mul(result, base)
        base = _p_mul(base, base)
        e >>= 1
    return result if result is not None else {}


def _p_var(index, nvars):
    key = tuple(1 if i == index else 0 for i in range(nvars))
    return {key: 1}


def _p_divide_exact(a, c):
    out = {}
    for k, v in a.items():
        if v % c:
            raise PreconditionError("inexact division in ghost lifting")
        out[k] = v // c
    return out


_struct_cache = {}
_compiled_cache = {}


def _require_prime(p):
    if not is_prime(p):
        raise UnsupportedRegimeError(f"{p} is not prime; only prime base"
                                     " fields are supported")


def structure_polynomials(p, m):
    """(sum polynomials, product polynomials) in 2m variables
    x_0..x_{m-1}, y_0..y_{m-1}, one polynomial per component."""
    _require_prime(p)
    key = (p, m)
    if key in _struct_cache:
        return _struct_cache[key]
    nvars = 2 * m

    def ghost(offset, n):
        acc = {}
        for i in range(n + 1):
            acc = _p_add(acc, _p_scale(_p_pow(_p_var(offset + i, nvars),
                                              p ** (n - i)), p ** i))
        return acc

    def solve(combine):
        polys = []
        for n in range(m):
            target = combine(ghost(0, n), ghost(m, n))
            for i, s in enumerate(polys):
                target = _p_add(target,
                                _p_scale(_p_pow(s, p ** (n - i)), -(p ** i)))
            polys.append(_p_divide_exact(target, p ** n))
        return tuple(polys)

    sums = solve(_p_add)
    prods = solve(_p_mul)
    _struct_cache[key] = (sums, prods)
    return sums, prods


def _eval_mod(poly, values, p):
    total = 0
    for exps, coeff in poly.items():
        term = coeff % p
        for v, e in zip(values, exps):
            if e:
                term = (term * pow(v, e, p)) % p
        total = (total + term) % p
    return total


def _compile(poly, p):
    """A structure polynomial as a list of (coeff mod p, ((variable,
    exponent), ...)) terms with nonzero exponents only; terms whose
    coefficient is 0 mod p are dropped."""
    terms = []
    for exps, coeff in poly.items():
        coeff %= p
        if coeff:
            terms.append((coeff, tuple((i, e) for i, e in enumerate(exps)
                                       if e)))
    return terms


def _compiled_structure(p, m):
    """(sum terms, product terms): structure_polynomials(p, m) compiled
    for evaluation over F_p."""
    key = (p, m)
    if key not in _compiled_cache:
        sums, prods = structure_polynomials(p, m)
        _compiled_cache[key] = (tuple(_compile(s, p) for s in sums),
                                tuple(_compile(s, p) for s in prods))
    return _compiled_cache[key]


def _eval_terms(terms, values, p):
    """_eval_mod of a compiled polynomial."""
    total = 0
    for coeff, factors in terms:
        for i, e in factors:
            coeff = coeff * pow(values[i], e, p) % p
        total += coeff
    return total % p


@dataclass(frozen=True)
class WittScalar:
    p: int
    m: int
    components: tuple

    def __post_init__(self):
        _require_prime(self.p)
        if len(self.components) != self.m:
            raise PreconditionError("wrong number of components")
        if any(not (0 <= c < self.p) for c in self.components):
            raise UnsupportedRegimeError(
                "components must be prime-field elements")

    def _compat(self, other):
        if (self.p, self.m) != (other.p, other.m):
            raise PreconditionError("mismatched Witt parameters")

    def __add__(self, other):
        self._compat(other)
        sums, _ = _compiled_structure(self.p, self.m)
        values = self.components + other.components
        return _new(self.p, self.m,
                    tuple(_eval_terms(s, values, self.p) for s in sums))

    def __mul__(self, other):
        self._compat(other)
        _, prods = _compiled_structure(self.p, self.m)
        values = self.components + other.components
        return _new(self.p, self.m,
                    tuple(_eval_terms(s, values, self.p) for s in prods))

    def render(self):
        return "(" + ",".join(str(c) for c in self.components) + ")"


def _new(p, m, components):
    """A WittScalar for a validated (p, m) from components in [0, p)."""
    w = object.__new__(WittScalar)
    object.__setattr__(w, "p", p)
    object.__setattr__(w, "m", m)
    object.__setattr__(w, "components", components)
    return w


def witt_zero(p, m):
    return WittScalar(p, m, (0,) * m)


def witt_one(p, m):
    return WittScalar(p, m, (1,) + (0,) * (m - 1))


def from_integer(k, p, m):
    """Image of the integer k under Z -> W_m(F_p)."""
    acc = witt_zero(p, m)
    one = witt_one(p, m)
    for _ in range(k % (p ** m)):
        acc = acc + one
    return acc


def parse_witt(text, p, m):
    """Parse a component tuple "(a0,a1,...)"."""
    body = text.strip().strip("()")
    comps = tuple(int(x) % p for x in body.split(","))
    return WittScalar(p, m, comps)


def oracle_check(p, m):
    """Exhaustively verify W_m(F_p) is isomorphic to Z/p^m as a ring,
    via k -> from_integer(k), built as image(k) = image(k-1) + 1.
    Returns True or raises."""
    order = p ** m
    one = witt_one(p, m)
    images = [witt_zero(p, m)]
    for _ in range(order - 1):
        images.append(images[-1] + one)
    if len({w.components for w in images}) != order:
        raise PreconditionError("integer images are not distinct")
    lookup = {w.components: k for k, w in enumerate(images)}
    for x in range(order):
        for y in range(order):
            s = images[x] + images[y]
            if lookup[s.components] != (x + y) % order:
                return False
            t = images[x] * images[y]
            if lookup[t.components] != (x * y) % order:
                return False
    return True
