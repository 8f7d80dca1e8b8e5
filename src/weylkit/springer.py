"""Curated generalized Springer data for the rank-1 world.

Supported centralizer types are SL2 and the 1-dimensional torus; the
tables list unipotent classes, component-group systems, the cuspidal
blocks with their relative-Weyl-group labels, and the closure order.
"""

from dataclasses import dataclass

from .errors import PreconditionError, UnsupportedLabelError


@dataclass(frozen=True)
class UnipotentClassLabel:
    group_tag: str
    name: str
    dim: int


@dataclass(frozen=True)
class CuspidalDatum:
    J: tuple
    class_name: str
    system: str


@dataclass(frozen=True)
class SpringerBlock:
    cuspidal: CuspidalDatum
    pairs: tuple  # ((class name, system), relative Weyl irrep label)


_SL2_CLASSES = (
    UnipotentClassLabel("sl2", "1", 0),
    UnipotentClassLabel("sl2", "regular", 2),
)
_TORUS_CLASSES = (UnipotentClassLabel("torus", "1", 0),)

# Closure order: strictly-smaller pairs per group tag.
_CLOSURE = {
    "sl2": {("1", "regular")},
    "torus": set(),
}

_TABLES = {
    "sl2": (
        SpringerBlock(
            cuspidal=CuspidalDatum(J=(), class_name="", system=""),
            pairs=(
                (("regular", "triv"), "unit"),
                (("1", "triv"), "sign"),
            ),
        ),
        SpringerBlock(
            cuspidal=CuspidalDatum(J=(1,), class_name="regular", system="eps"),
            pairs=(
                (("regular", "eps"), "unit"),
            ),
        ),
    ),
    "torus": (
        SpringerBlock(
            cuspidal=CuspidalDatum(J=(), class_name="", system=""),
            pairs=(
                (("1", "triv"), "unit"),
            ),
        ),
    ),
}


def classes(group_tag):
    if group_tag == "sl2":
        return _SL2_CLASSES
    if group_tag == "torus":
        return _TORUS_CLASSES
    raise UnsupportedLabelError(f"no curated classes for {group_tag!r}")


def springer_table(group_tag):
    if group_tag not in _TABLES:
        raise UnsupportedLabelError(f"no curated Springer table for {group_tag!r}")
    return _TABLES[group_tag]


def springer_label(group_tag, class_name, system):
    for block in springer_table(group_tag):
        for pair, label in block.pairs:
            if pair == (class_name, system):
                return label
    raise UnsupportedLabelError(
        f"({class_name}, {system}) not in the {group_tag} table")


def closure_leq(group_tag, c1, c2, strict=False):
    names = {c.name for c in classes(group_tag)}
    if c1 not in names or c2 not in names:
        raise PreconditionError("unknown class name")
    if c1 == c2:
        return not strict
    return (c1, c2) in _CLOSURE[group_tag]
