"""The set M(Gamma) and the nonabelian Fourier transform matrix.

For a finite group the pairing is

    {(x,s),(y,t)} = |Z(x)|^-1 |Z(y)|^-1
        * sum over g in Gamma with x g y g^-1 = g y g^-1 x
          of s(g y g^-1) * conjugate(t(g^-1 x g)).

A group is its display labels and the permutations of range(d) they
name, so its product, composition, is associative, and closure is the
one check.  N, the lcm of the element orders, is one conductor for the
whole group: every character value of every centralizer is integer
terms {k: c} for sum c zeta_N^k.  An abelian centralizer's characters
are its exponent maps, k(ab) = k(a) + k(b) mod N, found by brute force;
the one nonabelian curated case, the symmetric group on three letters,
has a table of ints.  A pairing adds s t x^((i - j) mod N) over the
terms s zeta_N^i and t zeta_N^j of the two values into one integer row
of Z[x]/(x^N - 1), reduced once: x -> x^-1 lifts complex conjugation
(see the `cyclotomic` docstring).

The transform of the infinite group C* . <r> of the rank-2
verification factors through the Z/2 component matrix (the four
displayed half-sum identities), which C5 compares with the Z/2 pairing.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .cyclotomic import Cyc
from .errors import (
    PreconditionError,
    StructuralError,
    UnsupportedLabelError,
    require_int,
)

# Character values of the symmetric group on three letters by element
# order: the trivial, sign and standard characters.
_S3_TABLE = {1: (1, 1, 2), 2: (1, -1, 0), 3: (1, 1, -1)}


class FiniteGroupTable:
    """The permutations `perms` of range(d), each named by the label in
    the same place of `labels`; a b is the composition i -> a(b(i))."""

    def __init__(self, labels, perms):
        self.elements = tuple(labels)
        perms = tuple(map(tuple, perms))
        n = len(perms)
        if len(self.elements) != n or not n:
            raise StructuralError(f"{len(self.elements)} labels for {n}"
                                  f" permutations")
        points = list(range(len(perms[0])))
        if any(sorted(p) != points for p in perms):
            raise StructuralError("not all permutations of one range(d)")
        label = dict(zip(perms, self.elements))
        if len(label) != n or len(set(self.elements)) != n:
            raise StructuralError("a label or a permutation is repeated")
        self.mult = {}
        for a, p in zip(self.elements, perms):
            for b, q in zip(self.elements, perms):
                product = tuple(p[i] for i in q)
                if product not in label:
                    raise StructuralError(
                        "the permutations are not closed under composition")
                self.mult[a, b] = label[product]
        self.identity = label[tuple(points)]
        self.inverse = {a: b for (a, b), c in self.mult.items()
                        if c == self.identity}
        self.order_of = {}
        for a in self.elements:
            power, k = a, 1
            while power != self.identity:
                power, k = self.mult[power, a], k + 1
            self.order_of[a] = k
        self.exponent = lcm(*self.order_of.values())
        self.classes = self._conjugacy_classes()
        # |Z(x)| = |G| / |class of x|, orbit and stabilizer
        self.centralizer_order = {x: n // len(cl)
                                  for cl in self.classes for x in cl}

    def conjugate(self, g, x):
        return self.mult[self.mult[g, x], self.inverse[g]]

    def _conjugacy_classes(self):
        seen = set()
        classes = []
        for x in self.elements:
            if x in seen:
                continue
            orbit = {self.conjugate(g, x) for g in self.elements}
            seen |= orbit
            classes.append(tuple(sorted(orbit, key=self.elements.index)))
        classes.sort(key=lambda cl: (self.order_of[cl[0]],
                                     self.elements.index(cl[0])))
        return tuple(classes)

    def centralizer(self, x):
        return tuple(g for g in self.elements
                     if self.mult[g, x] == self.mult[x, g])

    def characters(self, members):
        """Irreducible characters of the subgroup `members`, each a dict
        member -> terms {k: c}, ordered by degree, then by how many
        members they send to 1, then by the `render` of each value at its
        member's own order."""
        n, order = self.exponent, self.order_of
        if all(self.mult[a, b] == self.mult[b, a]
               for a in members for b in members):
            chars = []  # k(a) is a multiple of N / order(a)
            for ks in itertools.product(*(range(0, n, n // order[a])
                                          for a in members)):
                k = dict(zip(members, ks))
                if all(k[self.mult[a, b]] == (k[a] + k[b]) % n
                       for a in members for b in members):
                    chars.append({a: {k[a]: 1} for a in members})
        elif len(members) == 6:
            chars = [{a: {0: _S3_TABLE[order[a]][i]} for a in members}
                     for i in range(3)]
        else:
            raise UnsupportedLabelError(
                "character tables are curated for abelian groups and S3")

        def render(a, terms):
            row = [0] * order[a]
            for k, c in terms.items():
                row[k * order[a] // n] += c
            return Cyc(order[a], row).render()

        def key(chi):
            ones = sum(1 for a in members if chi[a] == {0: 1})
            return (chi[self.identity][0], -ones,
                    tuple(render(a, chi[a]) for a in members))
        return tuple(sorted(chars, key=key))


def group_trivial():
    return FiniteGroupTable(("1",), ((0,),))


def cyclic_group(n, labels=None):
    """Z/n for an int n >= 1, its elements named by `labels` or c1, ...,
    c(n-1) and 1: c_k rotates range(n) by k."""
    require_int("group order", n)
    if n < 1:
        raise PreconditionError(f"group order {n} is not positive")
    if labels is None:
        labels = tuple(f"c{k}" if k else "1" for k in range(n))
    return FiniteGroupTable(
        labels, (tuple((i + k) % n for i in range(n)) for k in range(n)))


def group_z2():
    """The Z/2 component shadow with the display labels 1, r."""
    return cyclic_group(2, labels=("1", "r"))


def group_z2xz2():
    """Z/2 x Z/2, a = (1, 0), b = (0, 1): v acts on the bit pairs
    range(4) by i -> i xor v."""
    return FiniteGroupTable(("1", "a", "b", "ab"),
                            (tuple(i ^ v for i in range(4))
                             for v in range(4)))


def group_s3():
    perms = tuple(itertools.permutations(range(3)))
    return FiniteGroupTable(("".join(map(str, p)) for p in perms), perms)


GROUPS = {
    "trivial": group_trivial,
    "z2": group_z2,
    "z3": lambda: cyclic_group(3),
    "z2xz2": group_z2xz2,
    "s3": group_s3,
}


@dataclass(frozen=True)
class MPair:
    x: str          # class representative
    sigma: int      # index into the centralizer character list
    chi: dict       # centralizer element -> terms {k: c} of the value


def m_set(gamma):
    """One MPair per (conjugacy class, centralizer irreducible)."""
    out = []
    for cl in gamma.classes:
        x = cl[0]
        for i, chi in enumerate(gamma.characters(gamma.centralizer(x))):
            out.append(MPair(x=x, sigma=i, chi=chi))
    return out


def pairing(gamma, p, q):
    """{p, q}, summed as one row of Z[x]/(x^N - 1) (module docstring)."""
    row = [0] * gamma.exponent
    for g in gamma.elements:
        ygy = gamma.conjugate(g, q.x)
        if gamma.mult[p.x, ygy] != gamma.mult[ygy, p.x]:
            continue
        xgx = gamma.conjugate(gamma.inverse[g], p.x)
        for i, s in p.chi[ygy].items():
            for j, t in q.chi[xgx].items():
                row[i - j] += s * t  # a negative i - j is (i - j) mod N
    z = gamma.centralizer_order
    return Cyc(gamma.exponent, row) / (z[p.x] * z[q.x])


def pairing_matrix(gamma, pairs):
    """The pairing of every two entries of `pairs`, which is m_set(gamma)."""
    return tuple(
        tuple(pairing(gamma, p, q) for q in pairs) for p in pairs
    )


def b2_component_matrix():
    """The 4x4 half-sum matrix of the Z/2 component case, rows and
    columns ordered (1,1), (r,1), (1,eps), (r,eps)."""
    rows = ((1, 1, 1, 1), (1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1))
    half = Fraction(1, 2)
    return tuple(tuple(Cyc.rational(half * v) for v in row) for row in rows)
