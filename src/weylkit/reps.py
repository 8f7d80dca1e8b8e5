"""Finite-dimensional modules of the semidirect groups L . W_Jc.

An induced irreducible Ind([t] x rho) is built from a torus point
t = p_J(d) and a character rho of its stabilizer H, generated by the
selected ss_k.  By Clifford-Mackey theory its lattice part is the
W_Jc-orbit of t: a module carries the orbit point r_c . t of each coset
r_c H, and the lattice acts on that coset by that character.  The finite
generators permute cosets with rho-scalars, so every image is a monomial
matrix whose scalars are the ints 1 and -1.  Products, inverses and the
lattice action are read straight from the tables of
`alcove.CosetGeometry`.  Each module acts on t once per quotient
element: the stabilizer H is read off that orbit, as the indices whose
point is t, and checked against the subgroup the selected ss_k
generate, and the coset representatives are the first index of each new
point.  `grid_modules` and `build_irreducible` share one core,
`_induced`.

A character norm is reduced modulo Phi_M once per module.  The image of
(x, w_i) has one diagonal term f zeta_M^k per fixed coset of F_i, with f
= 1 or -1, and `_trace_rows` lists those terms (k, f): the lift of
chi(x, w_i) to R = Z[x]/(x^M - 1) is their sum of f x^k.
`character_norm` adds f f' x^((k - k') mod M) over each pair of terms of
each row into one integer row of R and reduces that row once, which
gives the sum of the chi conj(chi) exactly (x -> x^-1 lifts complex
conjugation; see the `cyclotomic` docstring).
"""

import itertools
import operator
from dataclasses import dataclass

from . import alcove
from .cyclotomic import Cyc
from .errors import (
    InternalConsistencyError,
    PreconditionError,
    StructuralError,
    charge,
)


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
    return tuple(range(dim)), (1,) * dim


def _compose(a, b):
    """The monomial product a.b of monomials (perm, scalars), each sending
    e_c to scalars[c] e_perm[c]."""
    (pa, sa), (pb, sb) = a, b
    return (tuple(pa[c] for c in pb),
            tuple(s * sa[c] for s, c in zip(sb, pb)))


@dataclass
class FiniteDimRep:
    dimension: int
    points: tuple         # per coset, in transversal order: r_c . t
    finite_images: dict   # generator letter k -> monomial (perm, scalars)
    geometry: object      # alcove.CosetGeometry, for evaluating elements

    def finite_image(self, finite_index):
        """The monomial (perm, scalars) of the quotient element."""
        mat = _identity(self.dimension)
        for k in self.geometry.quotient_words[finite_index]:
            mat = _compose(mat, self.finite_images[k])
        return mat


def _rho_on_subgroup(geo, words, rho):
    """rho's value on each subgroup index, the product along its word, or
    None when rho is not well defined on the subgroup."""
    values = {}
    for idx, word in words.items():
        value = 1
        for k in word:
            value = value * rho[k]
        values[idx] = value
    # Well-definedness: extending any element by any generator letter must
    # land on the stored scalar.
    for idx in words:
        for k in rho:
            target = geo.quotient_left[k][idx]
            if target in values and rho[k] * values[idx] != values[target]:
                return None
    return values


def build_irreducible(datum, J, S, d, rho):
    """Induced module Ind([p_J(d)] x rho) of L . W_Jc for a rational point
    d of the cell C_S; rho maps each generator letter k in Sc - J to 1 or
    -1."""
    cell = alcove.cell_of(d)
    if cell is None or tuple(sorted(S)) != cell.S:
        raise PreconditionError("d does not lie in the cell C_S")
    return _induced(alcove.geometry(datum, J), S, alcove.p_J(datum, J, d),
                    rho)


def _induced(geo, S, t, rho):
    """Induced module Ind([t] x rho) of L . W_Jc, geo = geometry(datum, J),
    for the torus point t of a point of the cell C_S.  Each finite
    generator moves every coset to one coset and multiplies by one value
    of rho, so its image is a monomial matrix.  A value of rho that is not
    the int 1 or -1 (a bool is its int) is refused."""
    letters = [k for k in geo.jcheck if k not in set(S)]
    if set(rho) != set(letters):
        raise PreconditionError("rho must be given exactly on Sc - J")
    for value in rho.values():
        if not isinstance(value, int) or value not in (1, -1):
            raise PreconditionError(f"rho value {value!r} is not 1 or -1")
    orbit = geo.orbit(t)
    sub_words = _subgroup(geo, letters)
    # The inducing subgroup must be the full stabilizer of t, the indices
    # whose orbit point is t.
    if set(sub_words) != {i for i, point in enumerate(orbit) if point == t}:
        raise StructuralError("generated subgroup is not the stabilizer of t")
    rho_values = _rho_on_subgroup(geo, sub_words, rho)
    if rho_values is None:
        raise InternalConsistencyError(
            "rho is not well-defined on the subgroup")
    # H is the stabilizer of t, so the left coset iH is the point i . t,
    # and a transversal in index order keeps the first index of each new
    # point.
    reps_list = []
    coset_of = {}
    for i, point in enumerate(orbit):
        if point not in coset_of:
            coset_of[point] = len(reps_list)
            reps_list.append(i)
    dim = len(reps_list)
    if dim * len(sub_words) != len(geo.quotient_words):
        raise InternalConsistencyError("coset representatives do not tile")

    # A finite generator g sends the coset of r_c to the coset of
    # r_row = g r_c h^{-1}, h in the subgroup, with the scalar rho(h).
    finite_images = {}
    for k, left in sorted(geo.quotient_left.items()):
        perm, scalars = [], []
        for i in reps_list:
            u = left[i]
            row = coset_of[orbit[u]]
            perm.append(row)
            h = geo.quotient_product(geo.quotient_inverse[reps_list[row]], u)
            scalars.append(rho_values[h])
        finite_images[k] = (tuple(perm), tuple(scalars))

    rep = FiniteDimRep(
        dimension=dim,
        points=tuple(orbit[i] for i in reps_list),
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
    # Compatibility of the semidirect structure: F_k X = (g_k . X) F_k.
    # On e_c, X acts by the character points[c] and after F_k by
    # points[perm[c]]; the involution check has made every scalar
    # nonzero, and the actions are integer matrices with integer
    # inverses, so the relation holds for every X exactly when g_k moves
    # points[c] to points[perm[c]].
    for k, (perm, _) in rep.finite_images.items():
        if any(geo.act(k, point) != rep.points[p]
               for point, p in zip(rep.points, perm)):
            raise InternalConsistencyError(
                "lattice conjugation relation fails")


def _trace_rows(rep, M):
    """The terms (k, f) of chi(x, w_i) = sum of f zeta_M^k, one list per
    (x, w_i): x in range(M)^rank, lexicographic, and for each x every
    quotient index i.  M must be a multiple of the order of the module's
    torus points.

    The image of (x, w_i) is diag(x) F_i with diag(x) diagonal and F_i
    monomial, so its trace reads only the fixed points of F_i.  Each F_i
    is built once.  On the coset of r_c, x acts by exp(2 pi i <x, r_c . t>);
    r_c . t has the order of t, so with M a multiple of it <x, r_c . t> M
    is the integer k = <x, nums> M / order, nums the numerators of
    r_c . t, and the scalar is zeta_M^k.

    Each scalar f of F_i is the int 1 or -1: a product of values of rho,
    each of which `_induced` requires to be 1 or -1."""
    if any(M % point.order for point in rep.points):
        raise PreconditionError(
            f"the module's torus points have an order that does not"
            f" divide {M}")
    numerators = [tuple(n * (M // point.order) for n in point.nums)
                  for point in rep.points]
    fin_diagonals = []
    for i in range(len(rep.geometry.quotient_words)):
        perm, scalars = rep.finite_image(i)
        fin_diagonals.append([(pos, scalars[pos])
                              for pos in range(rep.dimension)
                              if perm[pos] == pos])
    for x in itertools.product(range(M), repeat=rep.geometry.dim):
        ks = [sum(map(operator.mul, x, num)) % M for num in numerators]
        for entries in fin_diagonals:
            yield [(ks[pos], f) for pos, f in entries]


def character_norm(rep, t_order):
    """<chi, chi> over the finite quotient (L / M L) . W_Jc, M =
    max(1, t_order) a multiple of the order of t: the sum of
    f f' x^((k - k') mod M) over each pair of terms of each trace row, as
    one integer row in Z[x]/(x^M - 1), reduced modulo Phi_M once (see the
    module docstring), over the number of rows."""
    M = max(1, t_order)
    row = [0] * M
    count = 0
    for terms in _trace_rows(rep, M):
        count += 1
        for k, f in terms:
            for k2, f2 in terms:
                row[k - k2] += f * f2  # a negative k - k2 is (k - k2) mod M
    return Cyc(M, row) / count


def lift_characters(geo, letters):
    """All one-dimensional +-1 characters of the subgroup generated by the
    images of the given ss_k (adequate for the involution-generated
    stabilizers the grid produces)."""
    words = _subgroup(geo, letters)
    out = []
    for signs in itertools.product((1, -1), repeat=len(letters)):
        rho = dict(zip(sorted(letters), signs))
        if _rho_on_subgroup(geo, words, rho) is not None:
            out.append(rho)
    return out


def grid_modules(datum, J, denominator):
    """(d, cell, t, index, rep) for each point (d, cell, t) of
    `alcove.grid_points(datum, J, denominator)` and each lift character
    at d, in grid order and then `lift_characters` order: the character's
    index and the induced module, built from the walk's t.  Built lazily,
    so a consumer that stops early builds nothing further.  After the
    node-subset refusals and `alcove.check_denominator`, and before the
    grid, the candidates p/k weighted by k are charged against
    alcove.GRID_WORK_BUDGET."""
    alcove.grid_nodes(datum, J)
    alcove.check_denominator(denominator)
    work = denominator * (denominator + 1) * (denominator + 2) // 3
    charge(f"induced-module grid to denominator {denominator}, which would"
           f" weigh {work} (grid candidates times their denominators),", work,
           alcove.GRID_WORK_BUDGET)
    geo = alcove.geometry(datum, J)
    for d, cell, t in alcove.grid_points(datum, J, denominator):
        letters = [k for k in geo.jcheck if k not in set(cell.S)]
        for index, rho in enumerate(lift_characters(geo, letters)):
            yield d, cell, t, index, _induced(geo, cell.S, t, rho)
