"""Truncated Witt vector arithmetic over prime fields.

Every WittScalar carries one integer beside its components, its ghost

    ghost = w_{m-1}(x) mod p^m,   w_k(x) = sum_{i<=k} p^i x_i^(p^(k-i)),

computed once from the components.  Because a = b mod p^j gives
a^p = b^p mod p^(j+1), a^(p^j) = a^(p^(j+1)) mod p^(j+1) for every a, and
so w_k(x) = w_{m-1}(x) mod p^(k+1) for every k < m: the one integer holds
every ghost level.  The ghost map is a ring homomorphism, so the ghost of
x o y (o is + or *) is g = ghost(x) o ghost(y) mod p^m, one integer
operation, and component k of x o y is read off g by the triangular solve

    (g - sum_{i<k} p^i s_i^(p^(k-i))) / p^k

with every term taken mod p^(k+1), where s_0..s_{k-1} are the result
components already found; the division is exact and its quotient lies in
[0, p).  No structure polynomial is built, and neither operand's
components are read.

W_m(F_p) is isomorphic to Z/p^m through phi(x) = sum_i p^i tau(x_i) mod
p^m, where tau(a) = a^(p^(m-1)) mod p^m is the Teichmuller lift (the
Frobenius of F_p is the identity); its inverse is digit extraction, and
phi(x) equals the ghost by the same congruence.  `oracle_check` checks
the ring operations against phi on all p^(2m) pairs and so refuses more
than ORACLE_PAIR_BUDGET of them before it starts.  The two routes it
compares stay apart: the ghost comes from the Witt formula with exponents
p^(m-1-i), not from tau, and the readout is the ghost solve with
exponents p^(k-i), not digit extraction.  Were either routed through phi
or its inverse, + would become phi^-1(phi(x) o phi(y)) computed with the
oracle's own code, and the oracle would be true by construction.
"""

from dataclasses import dataclass, field

from .errors import BudgetError, PreconditionError, UnsupportedRegimeError
from .laurent import _require_prime

# Pairs oracle_check may walk; the size of the lattice candidate-scan budget.
ORACLE_PAIR_BUDGET = 200000


def _ghost(p, m, components):
    """w_{m-1}(x) mod p^m = sum_i p^i x_i^(p^(m-1-i)) mod p^m."""
    modulus = p ** m
    total = 0
    scale = 1
    for i, c in enumerate(components):
        total += scale * pow(c, p ** (m - 1 - i), modulus)
        scale *= p
    return total % modulus


def _readout(p, m, g):
    """The components s of the Witt vector with w_k(s) = g mod p^(k+1)
    for every k < m, by the triangular solve; s_0 is g mod p."""
    out = [g % p]
    scale = p
    for k in range(1, m):  # scale is p^k
        modulus = scale * p
        lower = 0
        weight = 1  # p^i
        e = scale  # p^(k-i)
        for s in out:
            lower += weight * pow(s, e, modulus)
            weight *= p
            e //= p
        out.append((g - lower) % modulus // scale)
        scale = modulus
    return tuple(out)


@dataclass(frozen=True)
class WittScalar:
    p: int
    m: int
    components: tuple
    ghost: int = field(compare=False, repr=False, init=False)

    def __post_init__(self):
        _require_prime(self.p)
        if len(self.components) != self.m:
            raise PreconditionError("wrong number of components")
        if any(not (0 <= c < self.p) for c in self.components):
            raise UnsupportedRegimeError(
                "components must be prime-field elements")
        object.__setattr__(self, "ghost",
                           _ghost(self.p, self.m, self.components))

    def _compat(self, other):
        if (self.p, self.m) != (other.p, other.m):
            raise PreconditionError("mismatched Witt parameters")

    def __add__(self, other):
        self._compat(other)
        return _new(self.p, self.m,
                    (self.ghost + other.ghost) % self.p ** self.m)

    def __mul__(self, other):
        self._compat(other)
        return _new(self.p, self.m,
                    self.ghost * other.ghost % self.p ** self.m)

    def render(self):
        return "(" + ",".join(str(c) for c in self.components) + ")"


def _new(p, m, g):
    """The WittScalar of a validated (p, m) whose ghost is g in
    [0, p^m); its components are read off g."""
    w = object.__new__(WittScalar)
    attrs = w.__dict__  # a frozen dataclass refuses setattr
    attrs["p"] = p
    attrs["m"] = m
    attrs["components"] = _readout(p, m, g)
    attrs["ghost"] = g
    return w


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


def oracle_check(p, m):
    """Exhaustively verify that phi: W_m(F_p) -> Z/p^m is a ring
    isomorphism.  The digit-extraction image of each k in 0..p^m - 1 (phi
    inverted through tau) must have ghost k (phi computed through the Witt
    ghost), which also makes the images distinct; then on every pair of
    images the public + and * must agree with + and * mod p^m.  Returns
    True, False on an image or a pair that disagrees, or raises;
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
    if any(w.ghost != k for k, w in enumerate(images)):
        return False
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
