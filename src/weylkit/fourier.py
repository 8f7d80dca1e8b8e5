"""The set M(Gamma) and the nonabelian Fourier transform matrix.

For a finite group the pairing is

    {(x,s),(y,t)} = |Z(x)|^-1 |Z(y)|^-1
        * sum over g in Gamma with x g y g^-1 = g y g^-1 x
          of s(g y g^-1) * conjugate(t(g^-1 x g)),

computed with exact cyclotomic scalars.  Character tables of the
centralizers are enumerated by brute force for abelian groups and
supplied structurally for the one nonabelian curated case (the
symmetric group on three letters).

The transform of the infinite group C* . <r> of the rank-2
verification factors through the Z/2 component matrix (the four
displayed half-sum identities), which C5 compares with the Z/2 pairing.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .cyclotomic import Cyc
from .errors import (
    PreconditionError,
    StructuralError,
    UnsupportedLabelError,
    require_int,
)


class FiniteGroupTable:
    def __init__(self, elements, mult):
        self.elements = tuple(elements)
        self.mult = dict(mult)
        self._validate()
        self.identity = next(
            e for e in self.elements
            if all(self.mult[e, x] == x for x in self.elements))
        self.inverse = {
            a: next(b for b in self.elements if self.mult[a, b] == self.identity)
            for a in self.elements
        }
        self.order_of = {a: self._element_order(a) for a in self.elements}
        self.classes = self._conjugacy_classes()

    def _validate(self):
        for a in self.elements:
            for b in self.elements:
                if (a, b) not in self.mult or self.mult[a, b] not in self.elements:
                    raise StructuralError("multiplication table incomplete")
        for a in self.elements:
            for b in self.elements:
                for c in self.elements:
                    left = self.mult[self.mult[a, b], c]
                    right = self.mult[a, self.mult[b, c]]
                    if left != right:
                        raise StructuralError("multiplication is not associative")

    def _element_order(self, a):
        power = a
        k = 1
        while not all(self.mult[power, x] == x for x in self.elements):
            power = self.mult[power, a]
            k += 1
        return k

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

    def subgroup_table(self, members):
        members = tuple(members)
        return FiniteGroupTable(
            members,
            {(a, b): self.mult[a, b] for a in members for b in members})

    def is_abelian(self):
        return all(self.mult[a, b] == self.mult[b, a]
                   for a in self.elements for b in self.elements)

    def characters(self):
        """Irreducible complex characters, deterministically ordered."""
        if self.is_abelian():
            chars = self._abelian_characters()
        elif len(self.elements) == 6:
            chars = self._s3_characters()
        else:
            raise UnsupportedLabelError(
                "character tables are curated for abelian groups and S3")
        def key(chi):
            ones = sum(1 for e in self.elements if chi[e] == 1)
            return (chi[self.identity].to_fraction(), -ones,
                    tuple(chi[e].render() for e in self.elements))
        return tuple(sorted(chars, key=key))

    def _abelian_characters(self):
        options = []
        for a in self.elements:
            m = self.order_of[a]
            options.append([Cyc.zeta(m, k) for k in range(m)])
        found = []
        for values in itertools.product(*options):
            chi = dict(zip(self.elements, values))
            if all(chi[self.mult[a, b]] == chi[a] * chi[b]
                   for a in self.elements for b in self.elements):
                found.append(chi)
        if len(found) != len(self.elements):
            raise StructuralError("abelian character count mismatch")
        return found

    def _s3_characters(self):
        triv = {e: Cyc.rational(1) for e in self.elements}
        sign = {e: Cyc.rational(1 if self.order_of[e] in (1, 3) else -1)
                for e in self.elements}
        std = {}
        for e in self.elements:
            if self.order_of[e] == 1:
                std[e] = Cyc.rational(2)
            elif self.order_of[e] == 3:
                std[e] = Cyc.rational(-1)
            else:
                std[e] = Cyc.rational(0)
        return [triv, sign, std]


def group_trivial():
    return FiniteGroupTable(("1",), {("1", "1"): "1"})


def cyclic_group(n, labels=None):
    """Z/n for an int n >= 1, its elements named by `labels` or c1, ...,
    c(n-1) and 1."""
    require_int("group order", n)
    if n < 1:
        raise PreconditionError(f"group order {n} is not positive")
    if labels is None:
        labels = tuple(f"c{k}" if k else "1" for k in range(n))
    mult = {(labels[a], labels[b]): labels[(a + b) % n]
            for a in range(n) for b in range(n)}
    return FiniteGroupTable(labels, mult)


def group_z2():
    """The Z/2 component shadow with the display labels 1, r."""
    return cyclic_group(2, labels=("1", "r"))


def group_z2xz2():
    labels = ("1", "a", "b", "ab")
    bits = {"1": (0, 0), "a": (1, 0), "b": (0, 1), "ab": (1, 1)}
    back = {v: k for k, v in bits.items()}
    mult = {}
    for x in labels:
        for y in labels:
            mult[x, y] = back[tuple((p + q) % 2 for p, q in zip(bits[x], bits[y]))]
    return FiniteGroupTable(labels, mult)


def group_s3():
    perms = list(itertools.permutations((0, 1, 2)))
    labels = {p: "".join(str(i) for i in p) for p in perms}
    mult = {}
    for p in perms:
        for q in perms:
            comp = tuple(p[q[i]] for i in range(3))
            mult[labels[p], labels[q]] = labels[comp]
    return FiniteGroupTable(tuple(labels[p] for p in perms), mult)


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
    chi: tuple      # character values as ((element, Cyc), ...) for lookup

    def chi_dict(self):
        return dict(self.chi)


def m_set(gamma):
    """One MPair per (conjugacy class, centralizer irreducible)."""
    out = []
    for cl in gamma.classes:
        x = cl[0]
        z = gamma.subgroup_table(gamma.centralizer(x))
        for i, chi in enumerate(z.characters()):
            out.append(MPair(x=x, sigma=i, chi=tuple(chi.items())))
    return out


def pairing(gamma, p, q):
    zx = gamma.centralizer(p.x)
    zy = gamma.centralizer(q.x)
    sigma = p.chi_dict()
    tau = q.chi_dict()
    total = Cyc.rational(0)
    for g in gamma.elements:
        ygy = gamma.conjugate(g, q.x)
        if gamma.mult[p.x, ygy] != gamma.mult[ygy, p.x]:
            continue
        xgx = gamma.conjugate(gamma.inverse[g], p.x)
        total = total + sigma[ygy] * tau[xgx].conjugate()
    return total / (len(zx) * len(zy))


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
