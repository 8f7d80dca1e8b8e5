"""Finite-dimensional modules of the semidirect groups L . W_Jc.

An induced irreducible is built from a torus point t = p_J(d) and a
character rho of the subgroup generated by the selected ss_k: the
lattice acts by finite-order characters twisted along coset
representatives, the finite generators permute cosets with rho-scalars,
so every image is a monomial matrix.  All scalars are exact cyclotomics.
Products, inverses, the lattice action and the stabilizer of t are read
straight from the tables of `alcove.CosetGeometry`, and the coset
representatives are taken in index order.  `grid_modules` and
`build_irreducible` share one core, `_induced`.
"""

import itertools
from dataclasses import dataclass

from . import alcove
from .cyclotomic import Cyc
from .errors import (
    BudgetError,
    InternalConsistencyError,
    LiftCheckError,
    PreconditionError,
)


def _zeta_of(value):
    """exp(2 pi i value) for a rational value, as a cyclotomic scalar."""
    v = value % 1
    return Cyc.zeta(v.denominator, v.numerator)


def _subgroup(geo, letters):
    """Indices and generator words of the subgroup of W_Jc generated by
    the images of the given ss_k letters."""
    words = {0: ()}
    frontier = [0]
    while frontier:
        i = frontier.pop(0)
        for k in sorted(letters):
            j = geo.quotient_left[k][i]
            if j not in words:
                words[j] = (k,) + words[i]
                frontier.append(j)
    return words


def _identity(dim):
    return tuple(range(dim)), (Cyc.rational(1),) * dim


def _compose(a, b):
    """The monomial product a.b of monomials (perm, scalars), each sending
    e_c to scalars[c] e_perm[c]."""
    (pa, sa), (pb, sb) = a, b
    return (tuple(pa[c] for c in pb),
            tuple(s * sa[c] for s, c in zip(sb, pb)))


@dataclass
class FiniteDimRep:
    dimension: int
    lattice_diagonals: tuple  # per L-basis vector: tuple of dim scalars
    finite_images: dict       # generator letter k -> monomial (perm, scalars)
    geometry: object          # alcove.CosetGeometry, for evaluating elements

    def lattice_image(self, x):
        """Diagonal scalars of the lattice element with coordinates x."""
        out = [Cyc.rational(1)] * self.dimension
        for j, power in enumerate(x):
            if power == 0:
                continue
            diag = self.lattice_diagonals[j]
            for i in range(self.dimension):
                z = diag[i]
                if power < 0:
                    z = z.conjugate()  # roots of unity: inverse
                for _ in range(abs(power)):
                    out[i] = out[i] * z
        return tuple(out)

    def finite_image(self, finite_index):
        """The monomial (perm, scalars) of the quotient element."""
        mat = _identity(self.dimension)
        for k in self.geometry.quotient_words[finite_index]:
            mat = _compose(mat, self.finite_images[k])
        return mat


def _rho_on_subgroup(geo, words, rho):
    values = {}
    for idx, word in words.items():
        value = Cyc.rational(1)
        for k in word:
            value = value * rho[k]
        values[idx] = value
    # Well-definedness: extending any element by any generator letter must
    # land on the stored scalar.
    for idx in words:
        for k in rho:
            target = geo.quotient_left[k][idx]
            if target in values and rho[k] * values[idx] != values[target]:
                raise InternalConsistencyError(
                    "rho is not well-defined on the subgroup")
    return values


def build_irreducible(datum, J, S, d, rho):
    """Induced module Ind([p_J(d)] x rho) of L . W_Jc for a rational point
    d of the cell C_S; rho maps each generator letter k in Sc - J to a Cyc
    scalar."""
    cell = alcove.cell_of(d)
    if cell is None or tuple(sorted(S)) != cell.S:
        raise PreconditionError("d does not lie in the cell C_S")
    return _induced(alcove.geometry(datum, J), S, alcove.p_J(datum, J, d),
                    rho)


def _induced(geo, S, t, rho):
    """Induced module Ind([t] x rho) of L . W_Jc, geo = geometry(datum, J),
    for the torus point t of a point of the cell C_S.  Each finite
    generator moves every coset to one coset and multiplies by one value
    of rho, so its image is a monomial matrix."""
    letters = [k for k in geo.jcheck if k not in set(S)]
    if set(rho) != set(letters):
        raise PreconditionError("rho must be given exactly on Sc - J")
    sub_words = _subgroup(geo, letters)
    # The inducing subgroup must be the full stabilizer of t.
    if set(sub_words) != set(geo.stabilizer(t)):
        raise LiftCheckError("generated subgroup is not the stabilizer of t")
    rho_values = _rho_on_subgroup(geo, sub_words, rho)
    # A transversal in index order: the first unseen index of each left
    # coset iH represents it.
    reps_list = []
    coset_of = {}
    for i in range(len(geo.quotient)):
        if i not in coset_of:
            for h in sub_words:
                coset_of[geo.quotient_product(i, h)] = len(reps_list)
            reps_list.append(i)
    dim = len(reps_list)
    if dim * len(sub_words) != len(geo.quotient):
        raise InternalConsistencyError("coset representatives do not tile")

    # Lattice basis vectors act diagonally: on coset rep r_c the basis
    # vector e_j acts by t(r_c^{-1} e_j), column j of the dual action.
    lattice_diagonals = []
    for j in range(geo.dim):
        diag = []
        for i in reps_list:
            action = geo.dual_actions[geo.quotient_inverse[i]]
            val = sum(row[j] * v for row, v in zip(action, t.values))
            diag.append(_zeta_of(val))
        lattice_diagonals.append(tuple(diag))

    # A finite generator g sends the coset of r_c to the coset of
    # r_row = g r_c h^{-1}, h in the subgroup, with the scalar rho(h).
    finite_images = {}
    for k, left in sorted(geo.quotient_left.items()):
        perm, scalars = [], []
        for i in reps_list:
            u = left[i]
            row = coset_of[u]
            perm.append(row)
            h = geo.quotient_product(geo.quotient_inverse[reps_list[row]], u)
            scalars.append(rho_values[h])
        finite_images[k] = (tuple(perm), tuple(scalars))

    rep = FiniteDimRep(
        dimension=dim,
        lattice_diagonals=tuple(lattice_diagonals),
        finite_images=finite_images,
        geometry=geo,
    )
    _verify_relations(rep)
    return rep


def _verify_relations(rep):
    geo = rep.geometry
    eye = _identity(rep.dimension)
    for k, mat in rep.finite_images.items():
        if _compose(mat, mat) != eye:
            raise InternalConsistencyError(f"image of ss_{k} is not an involution")
    # Compatibility of the semidirect structure: F_k X_j = X_{g_k . e_j} F_k.
    # On e_c both sides give scalars[c] e_perm[c] times X_j[c] and
    # X_{g_k . e_j}[perm[c]] respectively; the involution check has made
    # every scalar nonzero.  g_k . e_j is column j of g_k's dual action.
    for k, (perm, _) in rep.finite_images.items():
        action = geo.dual_actions[geo.quotient_left[k][0]]
        for j, diag in enumerate(rep.lattice_diagonals):
            moved = rep.lattice_image(tuple(row[j] for row in action))
            if any(diag[c] != moved[p] for c, p in enumerate(perm)):
                raise InternalConsistencyError(
                    "lattice conjugation relation fails")


def character_values(rep, t_order):
    """chi(x, w_i) for x in range(M)^rank, lexicographic, and for each x
    every quotient index i; M = max(1, t_order).

    The image of (x, w_i) is diag(x) F_i with diag(x) diagonal and F_i
    monomial, so its trace reads only the fixed points of F_i.  Each F_i
    is built once, and diag(x) multiplies one row per lattice basis
    vector from a table of the powers diag_j^k, k < M."""
    dim = rep.dimension
    M = max(1, t_order)
    fin_diagonals = []
    for i in range(len(rep.geometry.quotient)):
        perm, scalars = rep.finite_image(i)
        fin_diagonals.append([(pos, scalars[pos]) for pos in range(dim)
                              if perm[pos] == pos])
    ones = (Cyc.rational(1),) * dim
    powers = []
    for diag in rep.lattice_diagonals:
        table = [ones]
        for _ in range(M - 1):
            table.append(tuple(z * w for z, w in zip(table[-1], diag)))
        powers.append(table)
    zero = Cyc.rational(0)
    for x in itertools.product(range(M), repeat=len(powers)):
        lat = ones
        for table, k in zip(powers, x):
            if k:
                lat = table[k] if lat is ones else tuple(
                    z * w for z, w in zip(lat, table[k]))
        for entries in fin_diagonals:
            yield sum((lat[pos] * f for pos, f in entries), zero)


def character_norm(rep, t_order):
    """<chi, chi> over the finite quotient (L / M L) . W_Jc, M = order of t."""
    total = Cyc.rational(0)
    count = 0
    for chi in character_values(rep, t_order):
        total = total + chi * chi.conjugate()
        count += 1
    return total / count


def lift_characters(geo, letters):
    """All one-dimensional +-1 characters of the subgroup generated by the
    images of the given ss_k (adequate for the involution-generated
    stabilizers the grid produces)."""
    words = _subgroup(geo, letters)
    out = []
    for signs in itertools.product((1, -1), repeat=len(letters)):
        rho = {k: Cyc.rational(s) for k, s in zip(sorted(letters), signs)}
        try:
            _rho_on_subgroup(geo, words, rho)
        except InternalConsistencyError:
            continue
        out.append(rho)
    return out


def grid_modules(datum, J, denominator):
    """(d, cell, t, index, rep) for each point (d, cell, t) of
    `alcove.grid_points(datum, J, denominator)` and each lift character
    at d, in grid order and then `lift_characters` order: the character's
    index and the induced module, built from the walk's t.  Built lazily,
    so a consumer that stops early builds nothing further.  After the
    node-subset refusals and before the grid, the candidates p/k weighted
    by k must stay within alcove.GRID_WORK_BUDGET, or BudgetError is
    raised."""
    alcove.grid_nodes(datum, J)
    work = denominator * (denominator + 1) * (denominator + 2) // 3
    if work > alcove.GRID_WORK_BUDGET:
        raise BudgetError(
            f"induced modules to denominator {denominator} would weigh"
            f" {work} (grid candidates times their denominators), more than"
            f" the budget of {alcove.GRID_WORK_BUDGET}")
    geo = alcove.geometry(datum, J)
    for d, cell, t in alcove.grid_points(datum, J, denominator):
        letters = [k for k in geo.jcheck if k not in set(cell.S)]
        for index, rho in enumerate(lift_characters(geo, letters)):
            yield d, cell, t, index, _induced(geo, cell.S, t, rho)
