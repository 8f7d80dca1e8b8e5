"""Curated generalized Springer data for the rank-1 world.

Supported centralizer types are SL2 and the 1-dimensional torus; the
tables list the unipotent class names, the relative-Weyl-group irrep of
each (class, component-group system) pair, and the closure order.
"""

from .errors import PreconditionError, UnsupportedLabelError

_CLASSES = {
    "sl2": ("1", "regular"),
    "torus": ("1",),
}

# Closure order: strictly-smaller pairs per group tag.
_CLOSURE = {
    "sl2": {("1", "regular")},
    "torus": set(),
}

# (class name, system) -> relative Weyl group irrep label.
_TABLES = {
    "sl2": {
        ("regular", "triv"): "unit",
        ("1", "triv"): "sign",
        ("regular", "eps"): "unit",
    },
    "torus": {
        ("1", "triv"): "unit",
    },
}


def classes(group_tag):
    if group_tag not in _CLASSES:
        raise UnsupportedLabelError(f"no curated classes for {group_tag!r}")
    return _CLASSES[group_tag]


def springer_table(group_tag):
    if group_tag not in _TABLES:
        raise UnsupportedLabelError(f"no curated Springer table for {group_tag!r}")
    return _TABLES[group_tag]


def springer_label(group_tag, class_name, system):
    table = springer_table(group_tag)
    if (class_name, system) not in table:
        raise UnsupportedLabelError(
            f"({class_name}, {system}) not in the {group_tag} table")
    return table[(class_name, system)]


def closure_lt(group_tag, c1, c2):
    """Whether class c1 lies strictly below c2 in closure order."""
    names = classes(group_tag)
    if c1 not in names or c2 not in names:
        raise PreconditionError("unknown class name")
    return (c1, c2) in _CLOSURE[group_tag]
