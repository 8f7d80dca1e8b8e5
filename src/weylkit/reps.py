"""Finite-dimensional modules of the semidirect groups L . W_Jc.

An induced irreducible is built from a torus point t = p_J(d) and a
representation rho of the subgroup generated by the selected ss_k: the
lattice acts by finite-order characters twisted along coset
representatives, the finite generators permute cosets with rho-blocks.
All scalars are exact cyclotomics.
"""

import itertools
from dataclasses import dataclass

from . import alcove, linalg
from .cyclotomic import Cyc
from .errors import (
    InternalConsistencyError,
    LiftCheckError,
    PreconditionError,
    UnsupportedRegimeError,
)


def cyc_identity(n):
    return tuple(tuple(Cyc.rational(1 if i == j else 0) for j in range(n))
                 for i in range(n))


def cyc_trace(a):
    return sum((a[i][i] for i in range(len(a))), Cyc.rational(0))


def _zeta_of(value):
    """exp(2 pi i value) for a rational value, as a cyclotomic scalar."""
    v = value % 1
    return Cyc.zeta(v.denominator, v.numerator)


class QuotientGroup:
    """Finite quotient W_Jc with multiplication on element indices."""

    def __init__(self, geo):
        self.geo = geo
        self.size = len(geo.quotient)
        self._mul = {}
        self._inv = {}
        for i, a in enumerate(geo.quotient):
            for j, b in enumerate(geo.quotient):
                k = geo.quotient_index[linalg.mat_mul(a, b)]
                self._mul[i, j] = k
                if k == 0:
                    self._inv[i] = j
        # Dual action on the character lattice L per element.
        self.dual_actions = []
        for n in geo.torus_actions:
            if not n:
                self.dual_actions.append(())
                continue
            inv = linalg.mat_inv_int(n)
            self.dual_actions.append(linalg.transpose(inv))

    def mul(self, i, j):
        return self._mul[i, j]

    def inv(self, i):
        return self._inv[i]

    def act_lattice(self, i, x):
        action = self.dual_actions[i]
        if not action:
            return x
        return linalg.mat_vec(action, x)

    def generator_index(self, k):
        return self.geo.quotient_index[self.geo.gen_restrictions[k]]

    def subgroup(self, letters):
        """Indices and generator words of the subgroup generated by the
        images of the given ss_k letters."""
        words = {0: ()}
        frontier = [0]
        while frontier:
            i = frontier.pop(0)
            for k in sorted(letters):
                j = self.mul(self.generator_index(k), i)
                if j not in words:
                    words[j] = (k,) + words[i]
                    frontier.append(j)
        return words

    def shortlex_coset_reps(self, subgroup_indices):
        """One ShortLex-minimal word representative per left coset."""
        gens = sorted(self.geo.gen_restrictions)

        def coset_key(i):
            return frozenset(self.mul(i, h) for h in subgroup_indices)

        reps = []
        seen_cosets = set()
        seen_elements = set()
        frontier = [((), 0)]
        while frontier and len(seen_cosets) * len(subgroup_indices) < self.size:
            next_frontier = []
            for word, i in frontier:
                if i in seen_elements:
                    continue
                seen_elements.add(i)
                key = coset_key(i)
                if key not in seen_cosets:
                    seen_cosets.add(key)
                    reps.append((word, i))
                for k in gens:
                    next_frontier.append(
                        (word + (k,), self.mul(i, self.generator_index(k))))
            frontier = sorted(next_frontier)
        return reps


@dataclass
class FiniteDimRep:
    group_tag: str
    dimension: int
    lattice_diagonals: tuple  # per L-basis vector: tuple of dim scalars
    finite_images: dict       # generator letter k -> Cyc matrix
    quotient: object          # QuotientGroup, for evaluating elements

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
        mat = cyc_identity(self.dimension)
        for k in self.quotient.geo.quotient_words[finite_index]:
            mat = linalg.mat_mul(mat, self.finite_images[k])
        return mat


def _rho_on_subgroup(quotient, words, rho, rho_dim):
    values = {}
    for idx, word in words.items():
        mat = cyc_identity(rho_dim)
        for k in word:
            mat = linalg.mat_mul(mat, rho[k])
        values[idx] = mat
    # Well-definedness: extending any element by any generator letter must
    # land on the stored matrix.
    for idx, word in words.items():
        for k in rho:
            target = quotient.mul(quotient.generator_index(k), idx)
            if target in values:
                expected = linalg.mat_mul(rho[k], values[idx])
                if expected != values[target]:
                    raise InternalConsistencyError(
                        "rho is not well-defined on the subgroup")
    return values


def build_irreducible(datum, J, S, d, rho, rho_dim=1, k_J=None):
    """Induced module Ind([p_J(d)] x rho) of L . W_Jc.

    rho maps each generator letter k in Sc - J to a Cyc matrix of size
    rho_dim; d must be a rational point of the cell C_S.
    """
    geo = alcove.geometry(datum, J)
    if not isinstance(d, alcove.LevelOnePoint):
        d = alcove.level_one_point(datum, d)
    if not d.is_real():
        raise UnsupportedRegimeError("d must have rational real coordinates")
    cell = alcove.cell_of(d)
    if cell is None or tuple(sorted(S)) != cell.S:
        raise PreconditionError("d does not lie in the cell C_S")
    t = alcove.p_J(datum, J, d, k_J=k_J)
    quotient = QuotientGroup(geo)
    letters = [k for k in geo.jcheck if k not in set(S)]
    if set(rho) != set(letters):
        raise PreconditionError("rho must be given exactly on Sc - J")
    sub_words = quotient.subgroup(letters)
    # The inducing subgroup must be the full stabilizer of t.
    stab = {i for i in range(quotient.size)
            if geo.torus_act(i, t).values == t.values}
    if set(sub_words) != stab:
        raise LiftCheckError("generated subgroup is not the stabilizer of t")
    rho_values = _rho_on_subgroup(quotient, sub_words, rho, rho_dim)
    reps_list = quotient.shortlex_coset_reps(set(sub_words))
    index = len(reps_list)
    if index * len(sub_words) != quotient.size:
        raise InternalConsistencyError("coset representatives do not tile")
    dim = index * rho_dim
    rank = geo.lattice.rank

    # Lattice basis vectors act diagonally: on the block of coset rep r_i
    # the basis vector e_j acts by t(r_i^{-1} e_j).
    lattice_diagonals = []
    for j in range(rank):
        diag = []
        for _, i in reps_list:
            moved = quotient.act_lattice(quotient.inv(i),
                                         tuple(1 if a == j else 0
                                               for a in range(rank)))
            val = sum(m * v for m, v in zip(moved, t.values))
            diag.extend([_zeta_of(val)] * rho_dim)
        lattice_diagonals.append(tuple(diag))

    # Finite generators permute the coset blocks with rho twists.
    finite_images = {}
    for k in sorted(geo.gen_restrictions):
        gidx = quotient.generator_index(k)
        blocks = {}
        for col, (_, i) in enumerate(reps_list):
            u = quotient.mul(gidx, i)
            row = next(r for r, (_, rj) in enumerate(reps_list)
                       if quotient.mul(quotient.inv(rj), u) in sub_words)
            h = quotient.mul(quotient.inv(reps_list[row][1]), u)
            blocks[row, col] = rho_values[h]
        mat = [[Cyc.rational(0)] * dim for _ in range(dim)]
        for (row, col), block in blocks.items():
            for a in range(rho_dim):
                for b in range(rho_dim):
                    mat[row * rho_dim + a][col * rho_dim + b] = block[a][b]
        finite_images[k] = tuple(tuple(r) for r in mat)

    rep = FiniteDimRep(
        group_tag=f"Wtilde({datum.label}, J={list(J)})",
        dimension=dim,
        lattice_diagonals=tuple(lattice_diagonals),
        finite_images=finite_images,
        quotient=quotient,
    )
    _verify_relations(rep, t)
    return rep


def _verify_relations(rep, t):
    quotient = rep.quotient
    rank = len(rep.lattice_diagonals)
    eye = cyc_identity(rep.dimension)
    for k, mat in rep.finite_images.items():
        if linalg.mat_mul(mat, mat) != eye:
            raise InternalConsistencyError(f"image of ss_{k} is not an involution")
    # Compatibility of the semidirect structure: F_k X_j = X_{g_k . e_j} F_k.
    for k, mat in rep.finite_images.items():
        gidx = quotient.generator_index(k)
        for j in range(rank):
            left = linalg.mat_mul(
                mat, _diag_mat(rep.lattice_image(_unit(rank, j))))
            moved = quotient.act_lattice(gidx, _unit(rank, j))
            right = linalg.mat_mul(
                _diag_mat(rep.lattice_image(moved)), mat)
            if left != right:
                raise InternalConsistencyError(
                    "lattice conjugation relation fails")


def _unit(rank, j):
    return tuple(1 if a == j else 0 for a in range(rank))


def _diag_mat(diag):
    n = len(diag)
    return tuple(
        tuple(diag[i] if i == j else Cyc.rational(0) for j in range(n))
        for i in range(n)
    )


def character_values(rep, t_order):
    """chi(x, w_i) for x in range(M)^rank, lexicographic, and for each x
    every quotient index i; M = max(1, t_order).

    The image of (x, w_i) is diag(x) F_i with diag(x) diagonal, so its
    trace reads only the diagonal of F_i.  Each F_i is built once, and
    diag(x) multiplies one row per lattice basis vector from a table of
    the powers diag_j^k, k < M."""
    dim = rep.dimension
    M = max(1, t_order)
    fin_diagonals = []
    for i in range(rep.quotient.size):
        fin = rep.finite_image(i)
        fin_diagonals.append([(pos, fin[pos][pos]) for pos in range(dim)
                              if not fin[pos][pos].is_zero()])
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
    quotient = QuotientGroup(geo)
    words = quotient.subgroup(letters)
    out = []
    for signs in itertools.product((1, -1), repeat=len(letters)):
        rho = {k: ((Cyc.rational(s),),) for k, s in zip(sorted(letters), signs)}
        try:
            _rho_on_subgroup(quotient, words, rho, 1)
        except InternalConsistencyError:
            continue
        out.append(rho)
    return out


def grid_modules(datum, J, denominator):
    """(d, cell, t, index, rep) for each point d of
    `alcove.sample_grid(datum, J, denominator)` and each lift character
    at d, in grid order and then `lift_characters` order: d's cell, the
    torus point t = p_J(d), the character's index and the induced module.
    Built lazily, so a consumer that stops early builds nothing further."""
    geo = alcove.geometry(datum, J)
    for d in alcove.sample_grid(datum, J, denominator):
        cell = alcove.cell_of(d)
        letters = [k for k in geo.jcheck if k not in set(cell.S)]
        t = alcove.p_J(datum, J, d)
        for index, rho in enumerate(lift_characters(geo, letters)):
            yield d, cell, t, index, build_irreducible(datum, J, cell.S, d,
                                                        rho)
