"""Level-1 geometry: cells C_S, the lattices L' and L, the torus T, the
map p_J and stabilizer computations.

Points of the level-1 hyperplane carry rational coordinates c_i, one
Fraction per node: the torus point p_J(d) has finite order only when d
is rational.  A point lies in the cell C_S when no coordinate is
negative and S is its support.

For a node subset J with complement Jc, the subspace z_J is the
level-0 part of span{b'_k : k in Jc}, with basis
u_k = b'_k - (n_k / n_k0) b'_k0 for k in Jc - {k0}, k0 = min Jc.
That span is the fixed space of W_J, which each ss_k normalizes, so a
product lift_i of the ss_k maps it into itself by the product B_i of
their integer Jc x Jc blocks G_k, and restricts to z_J as an element
r_i of the quotient W_Jc.  The breadth-first search keeps r_i as its
word and two vectors, each G_k times its parent's: B_i v and
B_i e_k0 = n_k0 lift_i p0, p0 = b'_k0 / n_k0.  It records the coset of
ss_k lift_i as t = quotient_left[k][i].

The key v is the level-0 integer vector on Jc with v_k = n_k0 B^j at
the j-th node k of Jc - {k0} and v_k0 = -sum_j n_k B^j, B = 2 m^2 + 1
for the largest mark m on Jc.  lift_i acts on v by its linear part w in
W0, and by Steinberg's theorem (Humphreys, Reflection Groups and
Coxeter Groups, 1.12) a w that fixes v is a product of reflections
s_alpha with <alpha, v> = 0.  A root alpha = sum c_k alpha_k has c_0 = 0
and, up to sign, 0 <= c_k <= n_k, so each coefficient of

  n_k0 <alpha, v> = sum_j (n_k0 c_k - c_k0 n_k) B^j

is at most m^2 < B/2 in size, and the sum is 0 only when each is:
alpha(u_k) = c_k - c_k0 n_k / n_k0 = 0, so w fixes z_J pointwise.  So
r_i v = v forces r_i = 1, and the search keys element i on r_i v = B_i v.

The translation lattice L' inside z_J is spanned by the displacements
tau of p0 by the Schreier generators lift_t^-1 ss_k lift_i, each a
translation.  On each edge the search forms the level-0 integer vector

  y = G_k B_i e_k0 - B_t e_k0 = n_k0 lift_t (lift_t^-1 ss_k lift_i p0 - p0)
    = n_k0 r_t tau,

whose entries at Jc - {k0} are n_k0 times r_t tau's u-coordinates.
lift_t conjugates the translation by tau to the one by r_t tau, so L' is
W_Jc-stable and the y / n_k0 span a sublattice of L'; it contains each
tau, so is L', exactly when every r_k preserves it.  It does (the edge
of ss_k from t back to i has the row -G_k y), and the "quotient action
does not preserve L'" check certifies it.  As HNF(c M) = c HNF(M), the
Hermite basis of L' is the integer Hermite form H of the y over n_k0.
Forward substitution solves x H = n_k0 u for u's coordinates x over it,
and x H = (n_k0 r_k) H_c / n_k0 for column c of r_k's action, integral
exactly when r_k preserves L'.  When J leaves one node out, z_J = 0
and every matrix is empty.

Only the generators' integer actions on L' are kept: `act(k, t)`
applies r_k's to a torus point, and `orbit(t)` walks the search's
edges, the point of left[k][i] being act(k, .) of i's.
`torus_stabilizer` (C2) and `reps` (C3) read t's stabilizer off its
orbit.  `grid_points` is the one walk from grid points to their cells
and torus points; `reps` reads it, `act`, `orbit` and the quotient
tables as they are.

A torus point of finite order is stored in integers, as (order, nums):
order is the least M with M t integral, and nums = M t reduced into
[0, M).  That M is least exactly when gcd(M, content of nums) = 1, so
the form is canonical, and two points are equal exactly when their
int tuples are.  `p_J` forms it once per point from the Fraction
coordinates that `solve_upper` returns.  `act` multiplies nums by the
generator's integer matrix A and reduces modulo order, with no
renormalisation: A lies in GL(L), so A and A^-1 are integral, and for
any integer M', M' A t is integral exactly when M' t is.  So A t has the
order of t, its numerators A nums are again coprime to it, and reducing
them modulo the order only picks the representative in [0, M).
"""

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from . import linalg, weyl
from .errors import (
    NodeSubsetError,
    PreconditionError,
    StructuralError,
    charge,
    require_int,
)

_QUOTIENT_CAP = 200000

# The work a rational grid may start, checked before any point is
# formed: `sample_grid` counts the candidates p/k it visits, and
# `reps.grid_modules` weights each candidate by its denominator k, which
# sets the order of its torus point and so the number of character values
# its modules sum.  Denominator 20 costs 230 and 3,080 of it.
GRID_WORK_BUDGET = 20000


@dataclass(frozen=True)
class LevelOnePoint:
    datum: object
    coords: tuple  # Fractions, one per node

    def __post_init__(self):
        if len(self.coords) != self.datum.n + 1:
            raise StructuralError("wrong number of coordinates")
        if sum(m * c for m, c in zip(self.datum.marks, self.coords)) != 1:
            raise StructuralError("point does not lie on the level-1 hyperplane")


def level_one_point(datum, coords):
    """Build a LevelOnePoint from exact rationals: ints (a bool is the int
    it is) and Fractions.  Anything else, a float or a str say, raises
    PreconditionError, as Cyc does."""
    for c in coords:
        if not isinstance(c, (int, Fraction)):
            raise PreconditionError(f"coordinate {c!r} is not an exact"
                                    " rational")
    return LevelOnePoint(datum, tuple(Fraction(c) for c in coords))


@dataclass(frozen=True)
class CellLabel:
    S: tuple

    def __post_init__(self):
        if not self.S:
            raise StructuralError("cell label must be nonempty")


def cell_of(x):
    """Cell label of a level-1 point: None if any coordinate is negative,
    else its support."""
    if any(c < 0 for c in x.coords):
        return None
    return CellLabel(tuple(i for i, c in enumerate(x.coords) if c))


class TorusPoint(NamedTuple):
    """A torus point of finite order, canonical (see the module
    docstring): its values on the dual basis of L are nums[i] / order."""

    order: int   # the least M with M t integral
    nums: tuple  # M t, ints in [0, order)

    @property
    def values(self):
        """The values on the dual basis of L, as Fractions in [0, 1)."""
        return tuple(Fraction(n, self.order) for n in self.nums)


class CosetGeometry:
    """Everything attached to (datum, J): the ss_k generators, the finite
    quotient W_Jc acting on z_J, and the translation/character lattices."""

    def __init__(self, datum, J):
        self.datum = datum
        self.J = tuple(sorted(set(J)))
        self.generators = weyl.min_coset_generators(datum, self.J)
        self.jcheck = tuple(k for k in range(datum.n + 1) if k not in self.J)
        self.marks = tuple(datum.marks[k] for k in self.jcheck)
        self.dim = len(self.jcheck) - 1
        self.generator_blocks = {k: self.block(w.mat)
                                 for k, w in self.generators}
        # the key v of the module docstring, from B^j for j < dim
        powers = [(2 * max(self.marks) ** 2 + 1) ** j for j in range(self.dim)]
        self.key_vector = (-sum(map(operator.mul, self.marks[1:], powers)),
                           *(self.marks[0] * b for b in powers))
        self._build_lattice(self._build_quotient())

    def block(self, mat):
        """The Jc x Jc block of a V-dagger matrix, in jcheck order."""
        return tuple(tuple(mat[r][c] for c in self.jcheck)
                     for r in self.jcheck)

    def _build_quotient(self):
        """The search (see the module docstring); returns its rows y[1:]."""
        e_k0 = tuple(int(c == 0) for c in range(self.dim + 1))
        keys, base_points, words = [self.key_vector], [e_k0], [()]
        index = {self.key_vector: 0}
        left = {k: [] for k in self.generator_blocks}
        rows = set()
        head = 0
        while head < len(words):
            for k, g in self.generator_blocks.items():
                key = linalg.mat_vec(g, keys[head])
                moved = linalg.mat_vec(g, base_points[head])
                if key not in index:
                    index[key] = len(words)
                    keys.append(key)
                    base_points.append(moved)
                    words.append((k,) + words[head])
                    charge("finite quotient", len(words), _QUOTIENT_CAP)
                t = index[key]
                left[k].append(t)
                rows.add(tuple(map(operator.sub, moved, base_points[t]))[1:])
            head += 1
        # words[i] multiplies left-to-right: element i is the product of
        # the letters, and lift_i is the same product of the ss_k.
        self.quotient_words = words
        self.quotient_index = index
        # Multiplication: quotient_left[k][j] is the index of r_k times
        # element j, a permutation of the indices, so products and
        # inverses follow the words without a size^2 table.
        self.quotient_left = {k: tuple(perm) for k, perm in left.items()}
        # Each r_k is an involution, as ss_k is, so the inverse of
        # r_k1 r_k2 ... is ... r_k2 r_k1, read off the same tables.
        inverse = []
        for word in self.quotient_words:
            x = 0
            for k in word:
                x = self.quotient_left[k][x]
            inverse.append(x)
        self.quotient_inverse = tuple(inverse)
        return rows

    def quotient_product(self, i, j):
        """Index of quotient element i times quotient element j."""
        for k in reversed(self.quotient_words[i]):
            j = self.quotient_left[k][j]
        return j

    def _build_lattice(self, rows):
        """L' from the displacement rows, and each r_k's action on it."""
        n0 = self.marks[0]
        self._hermite = basis = linalg.hnf(rows)
        if len(basis) != self.dim:
            raise StructuralError("translation lattice has deficient rank")
        acts = {}
        for k, g in self.generator_blocks.items():
            scaled = weyl.level_restriction(g, self.marks)
            cols = [tuple(x / n0 for x in linalg.solve_upper(
                basis, linalg.mat_vec(scaled, row))) for row in basis]
            if any(x.denominator != 1 for col in cols for x in col):
                raise StructuralError("quotient action does not preserve L'")
            acts[k] = tuple(tuple(int(x) for x in row) for row in zip(*cols))
        self.generator_actions = acts

    def lattice_coords(self, ucoords):
        """Coordinates over the L'-basis of a z_J vector in u-coordinates."""
        n0 = self.marks[0]
        return linalg.solve_upper(self._hermite, [n0 * u for u in ucoords])

    def act(self, k, t):
        """r_k's action on the torus point t: an integer matrix on its
        numerators, modulo its order, which the action keeps."""
        order = t.order
        return TorusPoint(order, tuple(
            x % order
            for x in linalg.mat_vec(self.generator_actions[k], t.nums)))

    def orbit(self, t):
        """The point r_i . t for each quotient index i, walked along the
        search's edges: each element's parent comes before it."""
        points = [t] + [None] * (len(self.quotient_words) - 1)
        for i, point in enumerate(points):
            for k, perm in self.quotient_left.items():
                if points[perm[i]] is None:
                    points[perm[i]] = self.act(k, point)
        return points


_geometry_cache = {}


def geometry(datum, J):
    key = (datum.label, tuple(sorted(set(J))))
    if key not in _geometry_cache:
        _geometry_cache[key] = CosetGeometry(datum, J)
    return _geometry_cache[key]


def p_J(datum, J, d):
    """Finite-order torus point attached to d in D_J, measured from the
    base node k0 = min Jc."""
    geo = geometry(datum, J)
    if any(c < 0 for c in d.coords) or any(d.coords[j] for j in geo.J):
        raise PreconditionError("d must lie in a cell C_S with S inside Jc")
    # d - b'_k0 / n_k0 is level 0 and supported on Jc, so its
    # u-coordinates are d's at Jc - {k0}
    gamma = geo.lattice_coords(tuple(d.coords[k] for k in geo.jcheck[1:]))
    order = lcm(*(g.denominator for g in gamma))
    return TorusPoint(order, tuple(g.numerator * (order // g.denominator)
                                   % order for g in gamma))


def torus_stabilizer(datum, J, t, S):
    """The lift check: whether the subgroup generated by
    {ss_k : k in Sc - J} maps injectively onto the stabilizer of the
    torus point t in W_Jc.  The subgroup is finite on correct data, so its
    _QUOTIENT_CAP is no budget: passing it is a StructuralError."""
    geo = geometry(datum, J)
    lift_letters = [k for k in geo.jcheck if k not in set(S)]
    # Enumerate the subgroup of the full minimal-coset group generated by
    # the selected ss_k, tracking full matrices so injectivity is honest.
    gens = dict(geo.generators)
    seed = weyl.identity(datum)
    elements = {seed}
    frontier = [seed]
    while frontier:
        current = frontier.pop()
        for k in lift_letters:
            new = weyl.multiply(gens[k], current)
            if new not in elements:
                if len(elements) > _QUOTIENT_CAP:
                    raise StructuralError("lift subgroup is not finite")
                elements.add(new)
                frontier.append(new)
    images = {geo.quotient_index[linalg.mat_vec(geo.block(w.mat),
                                                geo.key_vector)]
              for w in elements}
    return (len(images) == len(elements)
            and images == {i for i, point in enumerate(geo.orbit(t))
                           if point == t})


def grid_nodes(datum, J):
    """The two nodes outside J that a rational grid of D_J spans.  Both
    node-subset refusals are decided from J and datum.n alone, before any
    coset geometry is built."""
    weyl.check_node_subset(datum, J)
    jcheck = tuple(k for k in range(datum.n + 1) if k not in J)
    if len(jcheck) != 2:
        raise NodeSubsetError("grid sampling needs a rank-1 configuration")
    return jcheck


def check_denominator(denominator):
    """Refuse a grid denominator that is not an int >= 1.  The grid walks
    (`sample_grid`, and so `grid_points`, and `reps.grid_modules`) run it
    after the node-subset refusals and before the budget charge."""
    require_int("grid denominator", denominator)
    if denominator < 1:
        raise PreconditionError(f"grid denominator {denominator} is not"
                                " positive")


def sample_grid(datum, J, max_denominator):
    """All rational points of D_J with denominators <= max_denominator.

    Only implemented for complements of size 2 (the configurations the
    verification suite samples, see `grid_nodes`); returns
    LevelOnePoints lying in cells C_S with S inside the complement of J.
    The denominator is checked by `check_denominator`, and the candidates
    are charged against GRID_WORK_BUDGET, before any point.
    """
    ka, kb = grid_nodes(datum, J)
    check_denominator(max_denominator)
    candidates = max_denominator * (max_denominator + 3) // 2
    charge(f"grid to denominator {max_denominator} of {candidates} candidate"
           " points", candidates, GRID_WORK_BUDGET)
    na, nb = datum.marks[ka], datum.marks[kb]
    points = []
    for q in range(1, max_denominator + 1):
        for p in range(0, q + 1):
            if gcd(p, q) != 1:  # p/q was formed at a smaller q
                continue
            a = Fraction(p, q)
            coords = [Fraction(0)] * (datum.n + 1)
            coords[ka] = a / na
            coords[kb] = (1 - a) / nb
            points.append(level_one_point(datum, coords))
    points.sort(key=lambda d: d.coords)
    return points


def grid_points(datum, J, denominator):
    """(d, cell, t) for each point d of `sample_grid(datum, J,
    denominator)`, in its order: d's cell C_S and its torus point
    t = p_J(d).  The refusals and the budget are `sample_grid`'s."""
    return [(d, cell_of(d), p_J(datum, J, d))
            for d in sample_grid(datum, J, denominator)]
