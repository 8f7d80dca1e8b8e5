"""Level-1 geometry: cells C_S, the lattices L' and L, the torus T, the
map p_J and stabilizer computations.

Points of the level-1 hyperplane carry rational coordinates c_i, one
Fraction per node: the torus point p_J(d) has finite order only when d
is rational.  A point lies in the cell C_S when no coordinate is
negative and S is its support.

For a node subset J with complement Jc, the subspace z_J is the
level-0 part of span{b'_k : k in Jc}, with basis
u_k = b'_k - (n_k / n_k0) b'_k0 for k in Jc - {k0}, k0 = min Jc.
The translation lattice L' inside z_J is computed exactly via Schreier
generators of the kernel of the quotient map to the finite group W_Jc.
The breadth-first search that builds the quotient carries each
element's lift along its word (lift_j = ss_k lift_i) and records the
coset of ss_k lift_i as quotient_left[k][i], so each Schreier generator
lift_target^-1 ss_k lift_i is read from those two tables.
`CosetGeometry.stabilizer` computes the stabilizer of a torus point for
the lift check `torus_stabilizer` (C2); `reps` reads a module's
stabilizer off the orbit it computes anyway (C3), and both compare it
with the subgroup the selected ss_k generate.
`grid_points` is the one walk from grid points to their cells and torus
points; `reps` reads it, `torus_act` and the quotient tables as they
are, with no wrapper.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import linalg, weyl
from .errors import (
    BudgetError,
    NodeSubsetError,
    PreconditionError,
    StructuralError,
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
    """Build a LevelOnePoint from rationals."""
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


@dataclass(frozen=True)
class TorusPoint:
    values: tuple  # Fractions in [0,1), values on the dual basis of L

    @property
    def order(self):
        out = 1
        for v in self.values:
            out = out * v.denominator // gcd(out, v.denominator)
        return out


def _rational_hnf(vectors):
    """Canonical basis of the lattice spanned by rational vectors."""
    vectors = [v for v in vectors if any(x != 0 for x in v)]
    if not vectors:
        return ()
    denom = 1
    for v in vectors:
        for x in v:
            denom = denom * x.denominator // gcd(denom, x.denominator)
    scaled = [tuple(int(x * denom) for x in v) for v in vectors]
    rows = linalg.hnf(scaled)
    return tuple(tuple(Fraction(x, denom) for x in row) for row in rows)


class CosetGeometry:
    """Everything attached to (datum, J): the ss_k generators, the finite
    quotient W_Jc acting on z_J, and the translation/character lattices."""

    def __init__(self, datum, J):
        self.datum = datum
        self.J = tuple(sorted(set(J)))
        self.generators = weyl.min_coset_generators(datum, self.J)
        self.jcheck = tuple(k for k in range(datum.n + 1) if k not in self.J)
        self.k0 = self.jcheck[0]
        self.dim = len(self.jcheck) - 1
        self._build_ubasis()
        self._build_quotient()
        self._build_lattice()

    def _build_ubasis(self):
        n = self.datum.n
        marks = self.datum.marks
        self.ubasis = []
        for k in self.jcheck[1:]:
            vec = [Fraction(0)] * (n + 1)
            vec[k] = Fraction(1)
            vec[self.k0] = -Fraction(marks[k], marks[self.k0])
            self.ubasis.append(tuple(vec))

    def _to_ucoords(self, vec):
        """Coordinates in the u-basis of a level-0 vector supported on Jc."""
        marks = self.datum.marks
        for j in range(self.datum.n + 1):
            if j not in self.jcheck and vec[j] != 0:
                raise StructuralError("vector not supported on the complement of J")
        coords = tuple(Fraction(vec[k]) for k in self.jcheck[1:])
        rebuilt = -sum(Fraction(vec[k]) * marks[k] for k in self.jcheck[1:])
        if Fraction(vec[self.k0]) * marks[self.k0] != rebuilt:
            raise StructuralError("vector is not level 0")
        return coords

    def restriction(self, mat):
        """Matrix of a full V-dagger map on z_J in the u-basis."""
        cols = [self._to_ucoords(linalg.mat_vec(mat, u)) for u in self.ubasis]
        return tuple(tuple(cols[c][r] for c in range(self.dim))
                     for r in range(self.dim))

    def _build_quotient(self):
        eye = tuple(tuple(Fraction(1) if i == j else Fraction(0)
                          for j in range(self.dim)) for i in range(self.dim))
        gens = [(k, w, self.restriction(w.mat)) for k, w in self.generators]
        elements = [eye]
        words = [()]
        lifts = [weyl.identity(self.datum)]
        index = {eye: 0}
        left = {k: [] for k, _ in self.generators}
        head = 0
        while head < len(elements):
            current = elements[head]
            for k, g, r in gens:
                new = linalg.mat_mul(r, current)
                if new not in index:
                    index[new] = len(elements)
                    elements.append(new)
                    words.append((k,) + words[head])
                    lifts.append(weyl.multiply(g, lifts[head]))
                    if len(elements) > _QUOTIENT_CAP:
                        raise BudgetError("finite quotient exceeds the size cap")
                left[k].append(index[new])
            head += 1
        self.quotient = elements
        # words[i] multiplies left-to-right: elements[i] = prod of the
        # letters, and lifts[i] is the same product of the ss_k.
        self.quotient_words = words
        self.quotient_lifts = lifts
        self.quotient_index = index
        # Multiplication: quotient_left[k][j] is the index of r_k times
        # element j, a permutation of the indices, so products and
        # inverses follow the words without a size^2 table.
        self.quotient_left = {k: tuple(perm) for k, perm in left.items()}
        # Each r_k is an involution: ss_k permutes the simple roots of J,
        # so w0(J+k) sends them to minus a permutation of them, as w0(J)
        # does; the two commute, and ss_k^2 = 1.  The inverse of
        # r_k1 r_k2 ... is ... r_k2 r_k1, read off the same tables.
        inverse = []
        for word in self.quotient_words:
            x = 0
            for k in word:
                x = self.quotient_left[k][x]
            inverse.append(x)
        self.quotient_inverse = tuple(inverse)

    def quotient_product(self, i, j):
        """Index of quotient element i times quotient element j."""
        for k in reversed(self.quotient_words[i]):
            j = self.quotient_left[k][j]
        return j

    def _translation_ucoords(self, w):
        """Displacement of the base point b'_k0 / n_k0 under w, or None
        if the linear part of w on z_J is nontrivial."""
        if self.dim and self.restriction(w.mat) != self.quotient[0]:
            return None
        n = self.datum.n
        base = [Fraction(0)] * (n + 1)
        base[self.k0] = Fraction(1, self.datum.marks[self.k0])
        base = tuple(base)
        moved = linalg.mat_vec(w.mat, base)
        return self._to_ucoords(linalg.vec_sub(moved, base))

    def _build_lattice(self):
        if self.dim == 0:
            self.torus_actions = [()] * len(self.quotient)
            return
        # Schreier generators of the kernel of the quotient map.
        lifts = self.quotient_lifts
        vectors = []
        for k, g in self.generators:
            for i, target in enumerate(self.quotient_left[k]):
                product = weyl.multiply(g, lifts[i])
                kernel_elt = weyl.multiply(lifts[target].inverse(), product)
                vec = self._translation_ucoords(kernel_elt)
                if vec is None:
                    raise StructuralError("Schreier element is not a translation")
                vectors.append(vec)
        basis = _rational_hnf(vectors)
        if len(basis) != self.dim:
            raise StructuralError("translation lattice has deficient rank")
        bmat = tuple(tuple(basis[c][r] for c in range(self.dim))
                     for r in range(self.dim))
        binv = linalg.mat_inv(bmat)
        self._binv = binv
        # Integer matrices of the quotient action in the L'-basis.
        actions = []
        for r in self.quotient:
            nmat = linalg.mat_mul(binv, linalg.mat_mul(r, bmat))
            rows = []
            for row in nmat:
                if any(x.denominator != 1 for x in row):
                    raise StructuralError("quotient action does not preserve L'")
                rows.append(tuple(int(x) for x in row))
            actions.append(tuple(rows))
        self.torus_actions = actions

    def lattice_coords(self, ucoords):
        """Coordinates over the L'-basis of a z_J vector in u-coordinates."""
        if self.dim == 0:
            return ()
        return linalg.mat_vec(self._binv, ucoords)

    def torus_act(self, element_index, t):
        action = self.torus_actions[element_index]
        if not action:
            return t
        values = tuple(v % 1 for v in linalg.mat_vec(action, t.values))
        return TorusPoint(values=values)

    def stabilizer(self, t):
        """Indices of the quotient elements that fix the torus point t."""
        return tuple(i for i in range(len(self.quotient))
                     if self.torus_act(i, t) == t)


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
    vec = list(d.coords)
    vec[geo.k0] -= Fraction(1, datum.marks[geo.k0])
    ucoords = geo._to_ucoords(tuple(vec))
    gamma = geo.lattice_coords(ucoords)
    return TorusPoint(values=tuple(g % 1 for g in gamma))


def torus_stabilizer(datum, J, t, S):
    """The lift check: whether the subgroup generated by
    {ss_k : k in Sc - J} maps injectively onto the stabilizer of the
    torus point t in W_Jc."""
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
    images = {geo.quotient_index[geo.restriction(w.mat)] if geo.dim
              else 0 for w in elements}
    return (len(images) == len(elements)
            and images == set(geo.stabilizer(t)))


def grid_nodes(datum, J):
    """The two nodes outside J that a rational grid of D_J spans.  Both
    node-subset refusals are decided from J and datum.n alone, before any
    coset geometry is built."""
    if len(set(J)) == datum.n + 1:
        raise NodeSubsetError("J must be a proper node subset")
    if any(j < 0 or j > datum.n for j in J):
        raise PreconditionError("node index out of range")
    jcheck = tuple(k for k in range(datum.n + 1) if k not in J)
    if len(jcheck) != 2:
        raise NodeSubsetError("grid sampling needs a rank-1 configuration")
    return jcheck


def sample_grid(datum, J, max_denominator):
    """All rational points of D_J with denominators <= max_denominator.

    Only implemented for complements of size 2 (the configurations the
    verification suite samples, see `grid_nodes`); returns
    LevelOnePoints lying in cells C_S with S inside the complement of J.
    A grid of more than GRID_WORK_BUDGET candidates raises BudgetError
    before it forms a point.
    """
    ka, kb = grid_nodes(datum, J)
    candidates = max_denominator * (max_denominator + 3) // 2
    if candidates > GRID_WORK_BUDGET:
        raise BudgetError(
            f"grid to denominator {max_denominator} would visit {candidates}"
            f" candidate points, more than the budget of {GRID_WORK_BUDGET}")
    na, nb = datum.marks[ka], datum.marks[kb]
    points = []
    seen = set()
    for q in range(1, max_denominator + 1):
        for p in range(0, q + 1):
            a = Fraction(p, q)
            if a in seen:
                continue
            seen.add(a)
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
