"""Co-standard module data: curated filtered modules of the extended
group, validated against the filtration axioms.

A table supplies rational generator matrices for the two simple
reflections of the rank-1 world, a descending filtration by spanning
sets, and the top label zeta = (class, system) with its cell data.
Validation checks invariance of every filtration step, identifies each
layer (the curated layers are one-dimensional, either the sign or the
unit character), requires the top layer to match the Springer label of
zeta in `SPRINGER`, and requires the lower layers to have strictly
larger classes in the closure order `CLOSURE_BELOW`.  Every layer is
lattice-trivial by then: the lattice acts through gen0 gen1, and on a
layer where both generators act by the same curated character (both 1
or both -1) that product is 1.

The curated tables are the data constants `BUILTIN_A1`, which the
validator accepts, and `SWAPPED_A1`, which it rejects at layer 2.
"""

from dataclasses import dataclass, replace

from . import linalg
from .errors import TableRejectionError, UnsupportedLabelError

# Generalized Springer labels of the centralizer types SL2 and the 1-dim
# torus: (class name, component-group system) -> relative Weyl group irrep.
SPRINGER = {
    "sl2": {("regular", "triv"): "unit", ("1", "triv"): "sign",
            ("regular", "eps"): "unit"},
    "torus": {("1", "triv"): "unit"},
}

# Closure order: the pairs (c1, c2) where class c1 lies strictly below c2.
CLOSURE_BELOW = {("1", "regular")}


@dataclass(frozen=True)
class CoStandardData:
    group: str
    dim: int
    zeta: tuple        # (class name, system)
    cell: tuple        # S for the top label
    generators: tuple  # rational matrices, indexed by node letter
    filtration: tuple  # ((a, span rows), ...) descending in a


def _layer_character(span, sub, generators, layer):
    """'sign' or 'unit': the character by which the generators act on
    the one-dimensional quotient span/sub.  For v in span but not in
    sub, each image w is -v modulo sub (sign) or v modulo sub (unit)."""
    v = next(v for v in span if not linalg.in_span(sub, v))
    for label, sign in (("sign", 1), ("unit", -1)):
        if all(linalg.in_span(sub, tuple(w + sign * x for w, x in
                                         zip(linalg.mat_vec(mat, v), v)))
               for mat in generators):
            return label
    raise TableRejectionError(
        f"layer {layer} is not a curated character", layer=layer)


def layer_labels(data):
    """(degree, character label) for each graded layer, top first.  The
    curated layers are one-dimensional, acting either by the sign or the
    unit character of the finite generators."""
    chain = data.filtration
    labels = []
    for idx, (a, span) in enumerate(chain):
        sub = chain[idx - 1][1] if idx > 0 else ()
        layer_dim = linalg.rank(span) - linalg.rank(sub)
        if layer_dim == 0:
            continue
        if layer_dim != 1:
            raise TableRejectionError(
                f"layer {a} is not one-dimensional (uncurated)", layer=a)
        labels.append((a, _layer_character(span, sub, data.generators, a)))
    return tuple(labels)


def validate_costandard(data):
    """All CoStandardData invariants; raises TableRejectionError on failure."""
    if data.group != "A1":
        raise UnsupportedLabelError("only the rank-1 tables are curated")
    tag = "sl2" if len(data.cell) == 1 else "torus"
    table = SPRINGER[tag]
    if data.zeta not in table:
        raise UnsupportedLabelError(
            f"({data.zeta[0]}, {data.zeta[1]}) not in the {tag} table")
    expected_top = table[data.zeta]
    chain = data.filtration
    if chain[-1][0] != 0 or len(chain[-1][1]) != data.dim:
        raise TableRejectionError("filtration must end with the full space at 0",
                                  layer=0)
    # Invariance and descent of every step.
    previous = ()
    for a, span in chain:
        basis = linalg.EchelonBasis(span)
        if not all(basis.contains(linalg.mat_vec(mat, v))
                   for mat in data.generators for v in span):
            raise TableRejectionError(
                f"filtration step {a} is not invariant", layer=a)
        if not all(basis.contains(v) for v in previous):
            raise TableRejectionError(
                f"filtration is not descending at {a}", layer=a)
        previous = span
    # Identify the layers (curated: one-dimensional, sign or unit).
    labels = layer_labels(data)
    top_a, top_label = labels[0]
    if top_label != expected_top:
        raise TableRejectionError(
            f"top layer {top_a} is {top_label}, zeta requires {expected_top}",
            layer=top_a)
    # Lower layers: classes strictly above in closure order.
    for a, label in labels[1:]:
        if not any((data.zeta[0], cname) in CLOSURE_BELOW
                   for (cname, _), irrep in table.items() if irrep == label):
            raise TableRejectionError(
                f"layer {a} class is not strictly above zeta in closure order",
                layer=a)
    return data


BUILTIN_A1 = CoStandardData(
    group="A1", dim=2, zeta=("1", "triv"), cell=(0,),
    generators=(((-1, 1), (0, 1)), ((-1, 0), (0, 1))),
    filtration=((2, ((1, 0),)), (0, ((1, 0), (0, 1)))))

# Each generator's diagonal is swapped; gen 0's off-diagonal entry keeps
# its sign, so this is not the negated builtin table.
SWAPPED_A1 = replace(
    BUILTIN_A1, generators=(((1, 1), (0, -1)), ((1, 0), (0, -1))))
