"""Co-standard module data: curated filtered modules of the extended
group, validated against the filtration axioms.

A table supplies rational generator matrices for the two simple
reflections of the rank-1 world, a descending filtration by spanning
sets, and the top label zeta = (class, system) with its cell data.
Validation checks invariance of every filtration step, identifies each
layer (the curated layers are one-dimensional, either the sign or the
unit character), requires the top layer to match the Springer label of
zeta, and requires the lower layers to be lattice-trivial with
strictly larger classes in closure order.

The curated tables are the data constants `BUILTIN_A1`, which the
validator accepts, and `SWAPPED_A1`, which it rejects at layer 2.
"""

from dataclasses import dataclass, replace

from . import linalg, springer
from .errors import TableRejectionError, UnsupportedLabelError


@dataclass(frozen=True)
class CoStandardData:
    group: str
    dim: int
    zeta: tuple        # (class name, system)
    cell: tuple        # S for the top label
    generators: tuple  # rational matrices, indexed by node letter
    filtration: tuple  # ((a, span rows), ...) descending in a

    def translation_matrix(self):
        return linalg.mat_mul(self.generators[0], self.generators[1])


def _quotient_scalar(span, sub, mat, layer):
    """Scalar by which mat acts on the 1-dimensional quotient span/sub."""
    vec = next(v for v in span if not linalg.in_span(sub, v))
    image = linalg.mat_vec(mat, vec)
    # image = scalar * vec modulo sub: solve over span(sub + {vec}).
    rows = list(sub) + [vec]
    sol = linalg.solve(linalg.transpose(rows), image)
    if sol is None:
        raise TableRejectionError("layer is not invariant", layer=layer)
    return sol[-1]


def layer_labels(data):
    """(degree, character label, lattice scalar) for each graded layer,
    top first.  The curated layers are one-dimensional, acting either by
    the sign or the unit character of the finite generators."""
    chain = data.filtration
    translation = data.translation_matrix()
    labels = []
    for idx, (a, span) in enumerate(chain):
        sub = chain[idx - 1][1] if idx > 0 else ()
        layer_dim = linalg.rank(span) - linalg.rank(sub)
        if layer_dim == 0:
            continue
        if layer_dim != 1:
            raise TableRejectionError(
                f"layer {a} is not one-dimensional (uncurated)", layer=a)
        scalars = [_quotient_scalar(span, sub, mat, a)
                   for mat in data.generators]
        lattice_scalar = _quotient_scalar(span, sub, translation, a)
        if all(s == -1 for s in scalars):
            label = "sign"
        elif all(s == 1 for s in scalars):
            label = "unit"
        else:
            raise TableRejectionError(
                f"layer {a} is not a curated character", layer=a)
        labels.append((a, label, lattice_scalar))
    return tuple(labels)


def validate_costandard(data):
    """All CoStandardData invariants; raises TableRejectionError on failure."""
    if data.group != "A1":
        raise UnsupportedLabelError("only the rank-1 tables are curated")
    tag = "sl2" if len(data.cell) == 1 else "torus"
    expected_top = springer.springer_label(tag, data.zeta[0], data.zeta[1])
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
    top_a, top_label, _ = labels[0]
    if top_label != expected_top:
        raise TableRejectionError(
            f"top layer {top_a} is {top_label}, zeta requires {expected_top}",
            layer=top_a)
    # Lower layers: lattice-trivial, classes strictly above in closure order.
    for a, label, lattice_scalar in labels[1:]:
        if lattice_scalar != 1:
            raise TableRejectionError(
                f"lattice acts nontrivially on layer {a}", layer=a)
        matches = [pair for pair, irrep in springer.springer_table(tag).items()
                   if irrep == label]
        if not any(springer.closure_lt(tag, data.zeta[0], cname)
                   for cname, _ in matches):
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
