"""Truncated Witt vector arithmetic over prime fields.

A WittScalar is its ghost: it stores p, m and the one integer

    ghost = w_{m-1}(x) mod p^m,   w_k(x) = sum_{i<=k} p^i x_i^(p^(k-i)),

computed from the components it is built from.  Because a = b mod p^j
gives a^p = b^p mod p^(j+1), a^(p^j) = a^(p^(j+1)) mod p^(j+1) for every
a, and so w_k(x) = w_{m-1}(x) mod p^(k+1) for every k < m: the one
integer holds every ghost level.  The ghost map is a ring homomorphism,
so the ghost of x o y (o is + or *) is ghost(x) o ghost(y) mod p^m, one
integer operation that reads no component.  The components are read off
the ghost g on each access by the triangular solve

    s_k = (g - sum_{i<k} p^i s_i^(p^(k-i))) / p^k

with every term taken mod p^(k+1), where s_0..s_{k-1} are the components
already found; the division is exact and its quotient lies in [0, p).  No
structure polynomial is built.  Equality and hash key on (p, m, ghost),
which is equality of components: the ghost is a bijection from F_p^m
onto Z/p^m, as the oracle's first pass shows.

W_m(F_p) is isomorphic to Z/p^m through phi(x) = sum_i p^i tau(x_i) mod
p^m, where tau(a) = a^(p^(m-1)) mod p^m is the Teichmuller lift (the
Frobenius of F_p is the identity); its inverse is digit extraction, and
phi(x) equals the ghost by the same congruence.  `oracle_check` refuses
more than ORACLE_PAIR_BUDGET of the p^(2m) pairs before it starts, then
checks the isomorphism in three passes, with digits[k] the digit
extraction of k:

1. the ghost of digits[k] is k, for every k < p^m;
2. the readout of the ghost k is digits[k], for every k < p^m;
3. the ghost of x o y is x o y mod p^m, for every pair of images x, y,
   through the public + and *.

This loses nothing against looking each result up by its components.
Pass 1 makes the p^m vectors digits[k] distinct, so they are all of
F_p^m, and the ghost a bijection F_p^m -> Z/p^m with inverse k ->
digits[k].  Pass 2 makes the readout that inverse.  A result with ghost g
in [0, p^m) has the components digits[g], so its ghost equals x o y mod
p^m exactly when its components are those of the image of x o y; a
result with a ghost outside [0, p^m) fails pass 3 outright.  Pass 2 reads
each of the p^m readouts once, and pass 3 reads none.  Pass 2 compares
with digits[k], not with the images' own components, which are readouts
and would make it true by construction.

The routes the passes compare stay apart: the ghost comes from the Witt
formula with exponents p^(m-1-i), not from tau, and the readout is the
ghost solve with exponents p^(k-i), not digit extraction.  Were either
routed through phi or its inverse, + would become phi^-1(phi(x) o
phi(y)) computed with the oracle's own code, and the oracle would be
true by construction.
"""

from .errors import (
    BudgetError,
    PreconditionError,
    UnsupportedRegimeError,
    require_int,
    require_prime,
)

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


class WittScalar:
    """An element of W_m(F_p), held as its ghost in [0, p^m)."""

    __slots__ = ("p", "m", "ghost")

    def __init__(self, p, m, components):
        require_prime(p)
        require_int("Witt length", m)
        if m < 1:
            raise PreconditionError(f"Witt length m={m} is not positive")
        if len(components) != m:
            raise PreconditionError("wrong number of components")
        require_int("component", *components)
        if any(not (0 <= c < p) for c in components):
            raise UnsupportedRegimeError(
                "components must be prime-field elements")
        self.p = p
        self.m = m
        self.ghost = _ghost(p, m, components)

    @property
    def components(self):
        return _readout(self.p, self.m, self.ghost)

    def __eq__(self, other):
        if not isinstance(other, WittScalar):
            return NotImplemented
        return (self.p, self.m, self.ghost) == (other.p, other.m, other.ghost)

    def __hash__(self):
        return hash((self.p, self.m, self.ghost))

    def __repr__(self):
        return f"WittScalar({self.p}, {self.m}, {self.components})"

    def _compat(self, other):
        if (self.p, self.m) != (other.p, other.m):
            raise PreconditionError("mismatched Witt parameters")

    def __add__(self, other):
        if not isinstance(other, WittScalar):
            return NotImplemented
        self._compat(other)
        return _new(self.p, self.m,
                    (self.ghost + other.ghost) % self.p ** self.m)

    def __mul__(self, other):
        if not isinstance(other, WittScalar):
            return NotImplemented
        self._compat(other)
        return _new(self.p, self.m,
                    self.ghost * other.ghost % self.p ** self.m)

    def render(self):
        return "(" + ",".join(str(c) for c in self.components) + ")"


def _new(p, m, g):
    """The WittScalar of a validated (p, m) whose ghost is g in [0, p^m)."""
    w = object.__new__(WittScalar)
    w.p = p
    w.m = m
    w.ghost = g
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
    isomorphism, in the three passes of the module docstring.  Returns
    True, False on a value or a pair that disagrees, or raises;
    UnsupportedRegimeError for a p that is not a prime, PreconditionError
    for m < 1 and BudgetError when the p^(2m) pairs exceed
    ORACLE_PAIR_BUDGET, all before any image is built.  (p, m) is gated
    once: each image is built from its ghost, since digits[k] are m ints
    in [0, p)."""
    require_prime(p)
    require_int("Witt length", m)
    if m < 1:
        raise PreconditionError(f"Witt length m={m} is not positive")
    pairs = 1
    for _ in range(2 * m):  # stops by the 18th factor, whatever m is
        pairs *= p
        if pairs > ORACLE_PAIR_BUDGET:
            raise BudgetError(f"Witt oracle walk of {p}^{2 * m} pairs"
                              f" exceeds the budget of {ORACLE_PAIR_BUDGET}")
    order = p ** m
    digits = [_digits(k, p, m) for k in range(order)]
    images = [_new(p, m, _ghost(p, m, xs)) for xs in digits]
    if any(w.ghost != k for k, w in enumerate(images)):
        return False
    if any(w.components != xs for w, xs in zip(images, digits)):
        return False
    for x in range(order):
        for y in range(order):
            if (images[x] + images[y]).ghost != (x + y) % order:
                return False
            if (images[x] * images[y]).ghost != x * y % order:
                return False
    return True
