"""The set M(Gamma) and the nonabelian Fourier transform matrix.

For a finite group the pairing is

    {(x,s),(y,t)} = |Z(x)|^-1 |Z(y)|^-1
        * sum over g in Gamma with x g y g^-1 = g y g^-1 x
          of s(g y g^-1) * conjugate(t(g^-1 x g)).

A group is its display labels and the permutations of range(d) they
name, so its product, composition, is associative, and closure is the
one check.  N, the lcm of the element orders, is one conductor for the
whole group: every character value of every centralizer is integer
terms {k: c} for sum c zeta_N^k.  A pairing adds s t x^((i - j) mod N)
over the terms s zeta_N^i and t zeta_N^j of the two values into one
integer row of Z[x]/(x^N - 1), reduced once: x -> x^-1 lifts complex
conjugation (see the `cyclotomic` docstring).

A matrix is squared the same way.  Write each entry as pi(A)/D, with pi:
R = Z[x]/(x^N - 1) -> Q(zeta_N) the ring map x -> zeta_N, N the lcm of
the entries' conductors, D the lcm of their denominators and A the
entry's numerators times D over its own denominator, read as a
polynomial of degree < phi(N).  pi is additive and multiplicative, so
sum_k pi(A_ik) pi(A_kj) / D^2 = pi(sum_k A_ik A_kj) / D^2: the integer
products of the numerator vectors, a term at x^s times one at x^t added
at x^((s + t) mod N), summed into one row of R per entry (i, j), and
that row is reduced modulo Phi_N and divided by D^2 once.

The characters of a subgroup H come from its class sums by Dixon's
method modulo a prime.  With classes C_0 = {1}, ..., C_(k-1), K_i K_j =
sum_l a_ijl K_l (a_ijl counts the x in C_i with x^-1 y in C_j, y in C_l),
and chi irreducible sends K_l to w(l) = |C_l| chi(C_l) / chi(1): w is an
eigenvector of each (a_ijl)_jl, of eigenvalue w(i).  Take the least prime
p = 1 mod N with p^2 > 4|H|, and zeta_N -> z of order N mod p.  Primes of
|H| divide N < p, so sum_l |C_l| chi(C_l) psi(C_l^-1) = |H| [chi = psi]
keeps the k vectors w independent mod p, so distinct: the class matrices
split the identity's class, sum_chi chi(1)^2 / |H| w_chi, into k lines.
On one, chi(C_l) / chi(1) = w(l) / |C_l|, psi = chi gives chi(1)^2 <= |H|
< p^2 / 4, and chi(1) is its root below p/2.  x of order o has eigenvalue
zeta_o^e m_e <= chi(1) < p times, chi(x^j) = sum_e m_e zeta_o^je, so m_e
= (1/o) sum_j chi(x^j) z_o^-je mod p, z_o = z^(N/o): the term {e N/o: m_e}.

The transform of the infinite group C* . <r> of the rank-2
verification factors through the Z/2 component matrix (the four
displayed half-sum identities), which C5 compares with the Z/2 pairing.
"""

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .cyclotomic import Cyc
from .errors import (
    InternalConsistencyError,
    PreconditionError,
    StructuralError,
    charge,
    is_prime,
    require_int,
)

# Tables cost |G|^2 products, characters a constant times (|H| + p + N^2) k^2.
GROUP_WORK_BUDGET = 10 ** 6


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
        charge(f"a group table of {n}^2 products", n * n, GROUP_WORK_BUDGET)
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
        self.classes = self._conjugacy_classes(self.elements)
        # |Z(x)| = |G| / |class of x|, orbit and stabilizer
        self.centralizer_order = {x: n // len(cl)
                                  for cl in self.classes for x in cl}

    def conjugate(self, g, x):
        return self.mult[self.mult[g, x], self.inverse[g]]

    def _conjugacy_classes(self, members):
        seen = set()
        classes = []
        for x in members:
            if x in seen:
                continue
            orbit = {self.conjugate(g, x) for g in members}
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
        member's own order (Dixon's method, module docstring)."""
        n, mult, inv, h = self.exponent, self.mult, self.inverse, len(members)
        classes = self._conjugacy_classes(members)
        k = len(classes)
        index = {a: l for l, cl in enumerate(classes) for a in cl}
        p = next(q for q in itertools.count(n + 1, n)
                 if q * q > 4 * h and is_prime(q))
        charge(f"a table of {k} classes", (h + p + n * n) * k * k,
               GROUP_WORK_BUDGET)
        z = next(w for w in (pow(c, (p - 1) // n, p) for c in range(1, p))
                 if len({pow(w, j, p) for j in range(n)}) == n)
        lines = [[int(l == 0) for l in range(k)]]
        for cl in classes[1:]:
            if len(lines) == k:
                break
            step = [[l for l, (y, *_) in enumerate(classes) for x in cl
                     if index[mult[inv[x], y]] == j] for j in range(k)]
            lines = [part for u in lines for part in _components(step, u, p)]
        if len(lines) != k:
            raise InternalConsistencyError(f"{len(lines)} lines, {k} classes")
        powers = [[index[y] for y in itertools.accumulate(
            range(self.order_of[x] - 1), lambda y, _: mult[y, x],
            initial=self.identity)] for x, *_ in classes]
        tables = [[[pow(z, -j * e * n // o, p) * pow(o, -1, p) % p
                    for j in range(o)] for e in range(o)]
                  for o in map(len, powers)]  # m_e = table[e] . chi(x^j)
        keyed = []
        for w in lines:
            ratio = [c * pow(w[0] * len(cl), -1, p) % p
                     for c, cl in zip(w, classes)]
            square = h * pow(sum(len(cl) * r * ratio[index[inv[cl[0]]]]
                                 for cl, r in zip(classes, ratio)), -1, p) % p
            d, rows = _readback(ratio, square, powers, tables, p)
            terms = [{e * n // len(m): c for e, c in enumerate(m) if c}
                     for m in rows]
            shown = [Cyc(len(m), m).render() for m in rows]
            values = tuple(shown[index[a]] for a in members)
            keyed.append(((d, -values.count("1"), values),
                          {a: terms[index[a]] for a in members}))
        if sum(key[0] ** 2 for key, _ in keyed) != h:
            raise InternalConsistencyError(f"sum of squared degrees != {h}")
        return tuple(chi for _, chi in sorted(keyed, key=lambda kc: kc[0]))


def _components(step, u, p):
    """u's parts mod p in the eigenspaces of M, (M w)_j = sum of w over
    `step`[j]: (f / (x - t))(M) u for the roots t of u's minimal f."""
    k = len(u)
    krylov, pivots = [u], []
    while True:  # row: M^r u reduced, then its combination of the M^j u
        row = krylov[-1] + [int(j == len(krylov) - 1) for j in range(k + 1)]
        for col, pivot in pivots:
            if row[col]:
                row = [(a - row[col] * b) % p for a, b in zip(row, pivot)]
        col = next((c for c in range(k) if row[c]), None)
        if col is None:
            break
        inverse = pow(row[col], -1, p)
        pivots.append((col, [a * inverse % p for a in row]))
        krylov.append([sum(map(krylov[-1].__getitem__, ls)) % p
                       for ls in step])
    # Horner at each t: f / (x - t) from its leading coefficient, then f(t)
    horner = (list(itertools.accumulate(reversed(row[k:k + len(krylov)]),
                                        lambda a, c, t=t: (a * t + c) % p))
              for t in range(p))
    return [[sum(map(operator.mul, q, column)) % p for column in zip(*krylov)]
            for q in (q[-2::-1] for q in horner if q[-1] == 0)]


def _readback(ratio, square, powers, tables, p):
    """chi(1), the root of `square` below p/2, and each class's m_e."""
    d = next(d for d in range(1, p) if d * d % p == square)
    return d, [[d * sum(map(operator.mul, f, map(ratio.__getitem__, row))) % p
                for f in table] for row, table in zip(powers, tables)]


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
    """One MPair per (conjugacy class, centralizer irreducible).  Equal
    centralizers share one table: each distinct member tuple's characters
    are computed once per call."""
    tables = {}
    out = []
    for cl in gamma.classes:
        x = cl[0]
        members = gamma.centralizer(x)
        if members not in tables:
            tables[members] = gamma.characters(members)
        for i, chi in enumerate(tables[members]):
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


def matrix_square(matrix):
    """The square of a square matrix of Cyc entries, each entry one row of
    Z[x]/(x^N - 1) reduced once and divided by D^2 (module docstring)."""
    size = len(matrix)
    if any(len(row) != size for row in matrix):
        raise PreconditionError("the matrix is not square")
    entries = [e for row in matrix for e in row]
    n = lcm(*(e.m for e in entries))
    d = lcm(*(e.den for e in entries))
    terms = [[[(s, c * (d // e.den)) for s, c in enumerate(e.promote(n).nums)
               if c] for e in row] for row in matrix]
    columns = list(zip(*terms))
    square = []
    for row in terms:
        line = []
        for column in columns:
            acc = [0] * n
            for a, b in zip(row, column):
                for s, x in a:
                    for t, y in b:
                        acc[s + t - n] += x * y  # s + t < 2N: (s + t) mod N
            line.append(Cyc(n, acc) / (d * d))
        square.append(tuple(line))
    return tuple(square)


def b2_component_matrix():
    """The 4x4 half-sum matrix of the Z/2 component case, rows and
    columns ordered (1,1), (r,1), (1,eps), (r,eps)."""
    rows = ((1, 1, 1, 1), (1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1))
    half = Fraction(1, 2)
    return tuple(tuple(Cyc.rational(half * v) for v in row) for row in rows)
