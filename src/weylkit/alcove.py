"""Level-1 geometry: cells C_S, the lattices L' and L, the torus T, the
map p_J and stabilizer computations.

The torus point p_J(d) has finite order only when d is rational, so a
point of the level-1 hyperplane is stored in integers: numerators nums
over one denominator den > 0, c_i = nums[i] / den, with
gcd(den, nums) = 1.  That form is canonical, so two points are equal
exactly when their ints are, and the point is level 1 exactly when
sum_i n_i nums[i] = den.  It lies in the cell C_S when no numerator is
negative and S is its support.  `coords`, the Fractions, is for reports
and error messages.  The grid forms p/q at node a and 1 - p/q at node b
as numerators over q lcm(n_a, n_b), and sorts by the numerators over the
lcm of all the denominators, which is the order of the coordinates.

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

Each solve is x H = w / den with w integral and den > 0, and runs in
integers over D = den prod_j H_jj.  Multiplying x_j H_jj =
w_j / den - sum_{i<j} x_i H_ij by den H_00 ... H_(j-1)(j-1) gives

  den H_00 ... H_jj x_j = H_00 ... H_(j-1)(j-1) w_j
                          - sum_{i<j} (den H_00 ... H_(j-1)(j-1) x_i) H_ij,

an integer by induction on j.  So each y_j = D x_j is an integer, and
y_j H_jj = (D / den) w_j - sum_{i<j} y_i H_ij divides exactly.

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
int tuples are.  `p_J` forms it once per point from the solve's y over
D: with g = gcd(D, y), M = D / g and nums = y / g reduced modulo M.
`act` multiplies nums by the generator's integer matrix A and reduces
modulo order, with no renormalisation: A lies in GL(L), so A and A^-1
are integral, and for any integer M', M' A t is integral exactly when
M' t is.  So A t has the order of t, its numerators A nums are again
coprime to it, and reducing them modulo the order only picks the
representative in [0, M).
"""

import operator
from fractions import Fraction
from math import gcd, lcm, prod
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


class LevelOnePoint:
    """A point of the level-1 hyperplane: coordinate i is nums[i] / den,
    canonical (see the module docstring), den > 0.  A slotted record,
    equal and hashed by (datum, nums, den), and immutable by convention:
    nothing assigns to one after `__init__`."""

    __slots__ = ("datum", "nums", "den")

    def __init__(self, datum, nums, den):
        if len(nums) != datum.n + 1:
            raise StructuralError("wrong number of coordinates")
        if sum(map(operator.mul, datum.marks, nums)) != den:
            raise StructuralError("point does not lie on the level-1 hyperplane")
        g = gcd(den, *nums)
        self.datum = datum
        self.nums = tuple(x // g for x in nums)
        self.den = den // g

    def __eq__(self, other):
        if type(other) is not LevelOnePoint:
            return NotImplemented
        return ((self.datum, self.nums, self.den)
                == (other.datum, other.nums, other.den))

    def __hash__(self):
        return hash((self.datum, self.nums, self.den))

    def __repr__(self):
        return (f"LevelOnePoint({self.datum!r}, nums={self.nums},"
                f" den={self.den})")

    @property
    def coords(self):
        """The coordinates as Fractions, one per node, for reports."""
        return tuple(Fraction(x, self.den) for x in self.nums)


def level_one_point(datum, coords, den=1):
    """Build the LevelOnePoint with coordinates c / den, c in coords, from
    exact rationals: ints (a bool is the int it is) and Fractions, over an
    int den >= 1.  Anything else, a float or a str say, raises
    PreconditionError, as Cyc does."""
    require_int("point denominator", den)
    if den < 1:
        raise PreconditionError(f"point denominator {den} is not positive")
    for c in coords:
        if not isinstance(c, (int, Fraction)):
            raise PreconditionError(f"coordinate {c!r} is not an exact"
                                    " rational")
    scale = lcm(*(c.denominator for c in coords))
    return LevelOnePoint(datum, tuple(c.numerator * (scale // c.denominator)
                                      for c in coords), den * scale)


class CellLabel:
    """The support S of a point of the cell C_S.  A slotted record, equal
    and hashed by S."""

    __slots__ = ("S",)

    def __init__(self, S):
        if not S:
            raise StructuralError("cell label must be nonempty")
        self.S = S

    def __eq__(self, other):
        if type(other) is not CellLabel:
            return NotImplemented
        return self.S == other.S

    def __hash__(self):
        return hash(self.S)

    def __repr__(self):
        return f"CellLabel(S={self.S})"


def cell_of(x):
    """Cell label of a level-1 point: None if any coordinate is negative,
    else its support."""
    if any(c < 0 for c in x.nums):
        return None
    return CellLabel(tuple(i for i, c in enumerate(x.nums) if c))


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
            cols = []
            for row in basis:
                den, col = _forward_substitution(
                    basis, linalg.mat_vec(scaled, row), n0)
                if any(x % den for x in col):
                    raise StructuralError("quotient action does not preserve"
                                          " L'")
                cols.append([x // den for x in col])
            acts[k] = tuple(zip(*cols))
        self.generator_actions = acts

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


def _forward_substitution(rows, w, den):
    """(D, y) with x = y / D solving x H = w / den, for H = `rows` square
    upper triangular with a positive diagonal, w ints and den > 0:
    D = den prod_j H_jj and y_j = ((D / den) w_j - sum_{i<j} y_i H_ij) / H_jj,
    each division exact (see the module docstring).  Not reduced."""
    scale = prod(row[j] for j, row in enumerate(rows))
    y = []
    for j, row in enumerate(rows):
        y.append((scale * w[j] - sum(y[i] * rows[i][j] for i in range(j)))
                 // row[j])
    return den * scale, y


def p_J(datum, J, d):
    """Finite-order torus point attached to d in D_J, measured from the
    base node k0 = min Jc."""
    geo = geometry(datum, J)
    nums = d.nums
    if any(c < 0 for c in nums) or any(nums[j] for j in geo.J):
        raise PreconditionError("d must lie in a cell C_S with S inside Jc")
    # d - b'_k0 / n_k0 is level 0 and supported on Jc, so its
    # u-coordinates are d's at Jc - {k0}, and x H = n_k0 u
    n0 = geo.marks[0]
    den, y = _forward_substitution(
        geo._hermite, [n0 * nums[k] for k in geo.jcheck[1:]], d.den)
    g = gcd(den, *y)
    order = den // g
    return TorusPoint(order, tuple(x // g % order for x in y))


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
    # p/q at node ka over its mark, the rest at kb, over q lcm(n_a, n_b)
    na, nb = datum.marks[ka], datum.marks[kb]
    common = lcm(na, nb)
    sa, sb = common // na, common // nb
    points = []
    for q in range(1, max_denominator + 1):
        for p in range(0, q + 1):
            if gcd(p, q) != 1:  # p/q was formed at a smaller q
                continue
            nums = [0] * (datum.n + 1)
            nums[ka], nums[kb] = p * sa, (q - p) * sb
            points.append(level_one_point(datum, nums, q * common))
    # the coordinates' order: their numerators over one denominator
    den = lcm(*(d.den for d in points))
    points.sort(key=lambda d: [x * (den // d.den) for x in d.nums])
    return points


def grid_points(datum, J, denominator):
    """(d, cell, t) for each point d of `sample_grid(datum, J,
    denominator)`, in its order: d's cell C_S and its torus point
    t = p_J(d).  The refusals and the budget are `sample_grid`'s."""
    return [(d, cell_of(d), p_J(datum, J, d))
            for d in sample_grid(datum, J, denominator)]
