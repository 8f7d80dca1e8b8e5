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
a size whose p^(2m) passes ORACLE_PAIR_BUDGET before it starts, then
checks the isomorphism in four passes, with digits[k] the digit
extraction of k and images[k] the WittScalar of ghost k:

1. the ghost of digits[k] is k, for every k < p^m;
2. the readout of the ghost k is digits[k], for every k < p^m;
3. the successor walk: t_0 = 0 and t_{k+1} = t_k (+) 1 under the sum law
   of W_m(F_p) on components give t_k = digits[k] for every k < p^m, and
   t_{p^m} = 0;
4. images[k] + images[1] has the ghost k + 1, and images[k] * images[c]
   the ghost k c, mod p^m, for every k and for c in (p + 1, p), through
   the public + and *.

The sum law, over Z.  W is a functor and Z -> F_p a ring map, and the
sum polynomials S_n of Witt vectors have integer coefficients, so the
components of x (+) y in W_m(F_p) are those of x~ (+) y~ in W_m(Z),
reduced mod p, for the lifts x~ and y~ of x and y in [0, p).  Z has no
p-torsion, so its ghost map is injective and those components are the
one solution s of w_n(s) = w_n(x~) + w_n(y~) for n < m:

    s_n = (w_n(x~) + w_n(y~) - sum_{i<n} p^i s_i^(p^(n-i))) / p^n.

The division is exact.  For every integer vector a, w_n(a) = w_{n-1}(a)
mod p^n: their difference is p^n a_n plus the terms p^i (a_i^(p^(n-i)) -
a_i^(p^(n-1-i))), and the congruence above puts p^(n-i) in each bracket.
The sum over i < n is w_n(s_0, ..., s_{n-1}, 0), which is therefore
w_{n-1}(s) mod p^n, and w_{n-1}(s) = w_{n-1}(x~) + w_{n-1}(y~) by the
step before; w_n(x~) and w_n(y~) are w_{n-1}(x~) and w_{n-1}(y~) mod p^n
as well, so the numerator is 0 mod p^n.  This route uses no mod p^m
congruence, no Teichmuller lift, no readout and no + or * of a
WittScalar: it works in Z and reduces mod p once per step.

Why passes 1-3 prove the ring isomorphism, with no pair.  Z is the
initial ring: k -> k 1 is the only ring map iota: Z -> W_m(F_p), and
k 1 is the k-fold sum of 1 under the sum law, so t_k = iota(k).  Pass 3
makes iota(k) = digits[k] for k < p^m and iota(p^m) = 0, so iota factors
through a ring map Z/p^m -> W_m(F_p) that sends k to digits[k].  Pass 1
makes the digits[k] distinct, so that map is injective, and then a
bijection, as both sides have p^m elements: digit extraction is the ring
isomorphism Z/p^m -> W_m(F_p).  It respects * because iota does, since
W_m(F_p) is distributive ((a 1)(b 1) = (a b) 1), so no product and no
pair of sums needs a check of its own.  Pass 1 makes the ghost the
inverse of digit extraction, and pass 2 makes the readout the inverse of
the ghost, so a WittScalar's ghost is its image in Z/p^m, and ghost
arithmetic mod p^m is the law of W_m(F_p) carried over.  Pass 2 compares
with digits[k], not with the images' own components, which are readouts
and would make it true by construction.

What pass 4 covers.  Passes 1-3 prove the law and read neither + nor *;
pass 4 checks that the operators carry it out: one sum per element with
the operand 1, and one product per element with each of the unit p + 1
and the non-unit p, 3 p^m operations in all.  It checks the operators,
not the law, and tries no other operand: an operator wrong only there
would pass.  A result with ghost g in [0, p^m) has the components
digits[g] by passes 1 and 2, and one with a ghost outside [0, p^m) fails
outright, so comparing ghosts loses nothing against comparing
components.

The routes the passes compare stay apart: the ghost comes from the Witt
formula with exponents p^(m-1-i), not from tau, the readout is the ghost
solve with exponents p^(k-i), not digit extraction, and the walk never
leaves the components.  Were any of them routed through phi or its
inverse, the oracle would compare phi with itself and be true by
construction.

The budget.  ORACLE_PAIR_BUDGET bounds p^(2m), the pairs of elements,
though no pass visits a pair: p^(2m) <= 200,000 is p^m <= 447, so every
pass is at most 447 steps, and m <= 8.  A step of the walk takes
sum_{n<m} (3n + 2) <= 2 m^2 powers, each with an exponent of at most
p^(m-1).  Its integers stay small: at the walk's steps y~ = 1, and
|s_n| <= p^(p^n) by induction on n.  Indeed w_n(x~) = x_0^(p^n) + p
w_{n-1}(x_1, ..., x_n), so w_n(x~) < p^(p^n) by induction as well, and
each p^i |s_i|^(p^(n-i)) with i < n is at most p^i p^(p^n); so |p^n s_n|
<= p^(p^n) (1 + (1 + p + ... + p^(n-1))) <= p^n p^(p^n).  Every
numerator is then at most p^(p^(m-1) + m - 1) in size, which within the
budget is at most 144 bits (at p = 7, m = 3).
"""

from collections.abc import Sequence

from .errors import (
    PreconditionError,
    UnsupportedRegimeError,
    capped_power,
    charge,
    require_int,
    require_prime,
)

# The largest p^(2m) oracle_check accepts: p^m <= 447 steps per pass (see
# the module docstring for what a step costs).
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
        if not isinstance(components, Sequence):
            raise PreconditionError(f"components {components!r} are not a"
                                    f" sequence")
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


def _lift_sum(p, xs, ys):
    """The components of x + y in W_m(Z), m = len(xs), for integer
    vectors xs and ys: s_n = (w_n(x) + w_n(y) - sum_{i<n} p^i
    s_i^(p^(n-i))) / p^n, an exact division (see the module docstring)."""
    out = []
    for n in range(len(xs)):
        total = sum(p ** i * (x ** p ** (n - i) + y ** p ** (n - i))
                    for i, (x, y) in enumerate(zip(xs[:n + 1], ys)))
        total -= sum(p ** i * s ** p ** (n - i) for i, s in enumerate(out))
        out.append(total // p ** n)
    return out


def _successor_walk(p, m, digits):
    """Whether t_k = digits[k] for every k < p^m and t_{p^m} = 0, where
    t_0 = 0 and t_{k+1} = t_k + 1 under the sum law of W_m(F_p): the Witt
    sum of the lifts over Z, reduced mod p."""
    one = (1,) + (0,) * (m - 1)
    t = (0,) * m
    for xs in digits:
        if t != xs:
            return False
        t = tuple(s % p for s in _lift_sum(p, t, one))
    return t == (0,) * m


def oracle_check(p, m):
    """Exhaustively verify that phi: W_m(F_p) -> Z/p^m is a ring
    isomorphism, in the four passes of the module docstring.  Returns
    True, False on a value or a step that disagrees, or raises;
    UnsupportedRegimeError for a p that is not a prime, PreconditionError
    for m < 1 and BudgetError when p^(2m) exceeds ORACLE_PAIR_BUDGET, all
    before any image is built.  (p, m) is gated once: each image is built
    from its ghost, since digits[k] are m ints in [0, p)."""
    require_prime(p)
    require_int("Witt length", m)
    if m < 1:
        raise PreconditionError(f"Witt length m={m} is not positive")
    charge(f"Witt oracle of {p}^{2 * m} pairs of {p}^{m} elements",
           capped_power(p, 2 * m, ORACLE_PAIR_BUDGET), ORACLE_PAIR_BUDGET)
    order = p ** m
    digits = [_digits(k, p, m) for k in range(order)]
    images = [_new(p, m, _ghost(p, m, xs)) for xs in digits]
    if any(w.ghost != k for k, w in enumerate(images)):
        return False
    if any(w.components != xs for w, xs in zip(images, digits)):
        return False
    if not _successor_walk(p, m, digits):
        return False
    for k, w in enumerate(images):
        if (w + images[1]).ghost != (k + 1) % order:
            return False
        for c in (p + 1, p):
            if (w * images[c % order]).ghost != k * c % order:
                return False
    return True
