from dataclasses import replace

import pytest

from weylkit import costandard
from weylkit.costandard import BUILTIN_A1, SWAPPED_A1
from weylkit.errors import TableRejectionError, UnsupportedLabelError

FULL = ((1, 0), (0, 1))
MINUS_ONE = ((-1, 0), (0, -1))

# A second table the validator accepts: the one-dimensional sign module,
# whose single layer is the top.
TRIVIAL_A1 = costandard.CoStandardData(
    group="A1", dim=1, zeta=("1", "triv"), cell=(0,),
    generators=(((-1,),), ((-1,),)), filtration=((0, ((1,),)),))


def test_springer_labels():
    assert costandard.SPRINGER["sl2"] == {
        ("regular", "triv"): "unit",
        ("1", "triv"): "sign",
        ("regular", "eps"): "unit",
    }
    assert costandard.SPRINGER["torus"] == {("1", "triv"): "unit"}
    with pytest.raises(UnsupportedLabelError, match=r"\(1, eps\).* sl2 table"):
        costandard.validate_costandard(replace(BUILTIN_A1, zeta=("1", "eps")))


def test_closure_order():
    """1 lies below regular, and the order names only classes that the
    sl2 table pairs with a system."""
    assert costandard.CLOSURE_BELOW == {("1", "regular")}
    tabled = {class_name for class_name, _ in costandard.SPRINGER["sl2"]}
    assert {c for pair in costandard.CLOSURE_BELOW for c in pair} <= tabled


def test_costandard_builtin_accepted():
    costandard.validate_costandard(BUILTIN_A1)
    labels = costandard.layer_labels(BUILTIN_A1)
    assert labels == ((2, "sign"), (0, "unit"))
    # the top layer carries the generalized Springer label of zeta
    assert labels[0][1] == costandard.SPRINGER["sl2"][BUILTIN_A1.zeta]


def test_costandard_swapped_rejected_with_layer():
    with pytest.raises(TableRejectionError) as info:
        costandard.validate_costandard(SWAPPED_A1)
    assert info.value.layer == 2


def test_costandard_trivial_table_accepted():
    costandard.validate_costandard(TRIVIAL_A1)


def test_costandard_two_node_cell_reads_the_torus_table():
    # cell (0, 1) selects the torus table, whose (1, triv) label is unit
    data = costandard.CoStandardData(
        group="A1", dim=1, zeta=("1", "triv"), cell=(0, 1),
        generators=(((1,),), ((1,),)), filtration=((0, ((1,),)),))
    costandard.validate_costandard(data)
    assert costandard.layer_labels(data) == ((0, "unit"),)


@pytest.mark.parametrize("data, message, layer", [
    (replace(BUILTIN_A1, filtration=((2, ((1, 0),)), (1, FULL))),
     "must end with the full space at 0", 0),
    (replace(BUILTIN_A1, filtration=((2, ((0, 1),)), (0, FULL))),
     "step 2 is not invariant", 2),
    (replace(BUILTIN_A1, filtration=((0, FULL),)),
     "layer 0 is not one-dimensional", 0),
    (replace(BUILTIN_A1, generators=(((-1, 0), (0, 1)), ((1, 0), (0, 1)))),
     "layer 2 is not a curated character", 2),
    (replace(BUILTIN_A1, generators=(MINUS_ONE, MINUS_ONE),
             filtration=((2, ((1, 0),)), (1, ((0, 1),)), (0, FULL))),
     "not descending at 1", 1),
    (replace(SWAPPED_A1, zeta=("regular", "triv")),
     "class is not strictly above zeta", 0),
    # a unit lower layer names regular itself, which is not strictly above
    (replace(BUILTIN_A1, zeta=("regular", "triv"), generators=(FULL, FULL)),
     "class is not strictly above zeta", 0),
], ids=["end", "invariant", "one-dimensional", "curated", "descending",
        "closure", "closure-irreflexive"])
def test_costandard_rejections_name_their_layer(data, message, layer):
    with pytest.raises(TableRejectionError, match=message) as info:
        costandard.validate_costandard(data)
    assert info.value.layer == layer
