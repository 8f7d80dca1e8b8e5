"""Truncated Witt vector arithmetic over prime fields.

Sums and products are computed on ghost components.  With
w_k(x) = sum_{i<=k} p^i x_i^(p^(k-i)), and because a = b mod p^j gives
a^p = b^p mod p^(j+1), w_k(x) mod p^(k+1) depends only on the components
of x mod p.  Component k of x o y (o is + or *) is therefore

    (w_k(x) o w_k(y) - sum_{i<k} p^i s_i^(p^(k-i))) / p^k

with every term taken mod p^(k+1), where s_0..s_{k-1} are the result
components already found; the division is exact and its quotient lies in
[0, p).  No structure polynomial is built.

W_m(F_p) is isomorphic to Z/p^m through phi(x) = sum_i p^i tau(x_i) mod
p^m, where tau(a) = a^(p^(m-1)) mod p^m is the Teichmuller lift (the
Frobenius of F_p is the identity); its inverse is digit extraction.
`oracle_check` checks the ring operations against phi on all p^(2m)
pairs and so refuses more than ORACLE_PAIR_BUDGET of them before it
starts.
"""

from dataclasses import dataclass
from operator import add, mul

from .errors import BudgetError, PreconditionError, UnsupportedRegimeError
from .laurent import is_prime

# Pairs oracle_check may walk; the size of the lattice candidate-scan budget.
ORACLE_PAIR_BUDGET = 200000


def _require_prime(p):
    if not is_prime(p):
        raise UnsupportedRegimeError(f"{p} is not prime; only prime base"
                                     " fields are supported")


def _ghost_op(p, xs, ys, op):
    """Components of the Witt vector whose ghost component w_k is
    op(w_k(xs), w_k(ys)) mod p^(k+1), for every k."""
    out = []
    for k in range(len(xs)):
        modulus = p ** (k + 1)
        wx = wy = lower = 0
        scale = 1
        for i in range(k):
            e = p ** (k - i)
            wx += scale * pow(xs[i], e, modulus)
            wy += scale * pow(ys[i], e, modulus)
            lower += scale * pow(out[i], e, modulus)
            scale *= p
        # scale is now p^k, and the i = k terms have exponent 1
        target = op(wx + scale * xs[k], wy + scale * ys[k]) - lower
        out.append(target % modulus // scale)
    return tuple(out)


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
        return _new(self.p, self.m, _ghost_op(
            self.p, self.components, other.components, add))

    def __mul__(self, other):
        self._compat(other)
        return _new(self.p, self.m, _ghost_op(
            self.p, self.components, other.components, mul))

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


def _digits(k, p, m):
    """The components of phi^-1(k mod p^m), by digit extraction: x_i is
    k mod p, then k becomes (k - tau(x_i)) / p."""
    modulus = p ** m
    k %= modulus
    out = []
    for _ in range(m):
        digit = k % p
        out.append(digit)
        k = (k - pow(digit, p ** (m - 1), modulus)) % modulus // p
    return tuple(out)


def from_integer(k, p, m):
    """Image of the integer k under Z -> W_m(F_p)."""
    return WittScalar(p, m, _digits(k, p, m))


def parse_witt(text, p, m):
    """Parse a component tuple "(a0,a1,...)"."""
    body = text.strip().strip("()")
    comps = tuple(int(x) % p for x in body.split(","))
    return WittScalar(p, m, comps)


def oracle_check(p, m):
    """Exhaustively verify that phi: W_m(F_p) -> Z/p^m is a ring
    isomorphism: the digit-extraction images of 0..p^m - 1 are distinct,
    and on every pair of them the public + and * agree with + and * mod
    p^m.  Returns True, False on a pair that disagrees, or raises;
    BudgetError before any image is built when the p^(2m) pairs exceed
    ORACLE_PAIR_BUDGET."""
    _require_prime(p)
    pairs = 1
    for _ in range(2 * m):  # stops by the 18th factor, whatever m is
        pairs *= p
        if pairs > ORACLE_PAIR_BUDGET:
            raise BudgetError(f"Witt oracle walk of {p}^{2 * m} pairs"
                              f" exceeds the budget of {ORACLE_PAIR_BUDGET}")
    order = p ** m
    images = [from_integer(k, p, m) for k in range(order)]
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
