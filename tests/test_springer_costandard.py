from dataclasses import replace

import pytest

from weylkit import costandard, springer
from weylkit.costandard import BUILTIN_A1, SWAPPED_A1
from weylkit.errors import TableRejectionError, UnsupportedLabelError

FULL = ((1, 0), (0, 1))
MINUS_ONE = ((-1, 0), (0, -1))

# A second table the validator accepts: the one-dimensional sign module,
# whose single layer is the top.
TRIVIAL_A1 = costandard.CoStandardData(
    group="A1", dim=1, zeta=("1", "triv"), cell=(0,),
    generators=(((-1,),), ((-1,),)), filtration=((0, ((1,),)),))


def test_springer_tables_pair_only_curated_classes():
    """Every (class, system) pair in a table names a class of its group."""
    for tag in ("sl2", "torus"):
        for class_name, _system in springer.springer_table(tag):
            assert class_name in springer.classes(tag)


def test_springer_labels():
    assert springer.springer_label("sl2", "regular", "triv") == "unit"
    assert springer.springer_label("sl2", "1", "triv") == "sign"
    assert springer.springer_label("sl2", "regular", "eps") == "unit"
    with pytest.raises(UnsupportedLabelError):
        springer.springer_label("sl2", "1", "eps")


def test_closure_order():
    assert springer.closure_lt("sl2", "1", "regular")
    assert not springer.closure_lt("sl2", "regular", "1")
    assert not springer.closure_lt("sl2", "regular", "regular")


def test_costandard_builtin_accepted():
    costandard.validate_costandard(BUILTIN_A1)
    labels = costandard.layer_labels(BUILTIN_A1)
    assert labels == ((2, "sign"), (0, "unit"))
    # the top layer carries the generalized Springer label of zeta
    assert labels[0][1] == springer.springer_label("sl2", *BUILTIN_A1.zeta)


def test_costandard_swapped_rejected_with_layer():
    with pytest.raises(TableRejectionError) as info:
        costandard.validate_costandard(SWAPPED_A1)
    assert info.value.layer == 2


def test_costandard_trivial_table_accepted():
    costandard.validate_costandard(TRIVIAL_A1)


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
], ids=["end", "invariant", "one-dimensional", "curated", "descending",
        "closure"])
def test_costandard_rejections_name_their_layer(data, message, layer):
    with pytest.raises(TableRejectionError, match=message) as info:
        costandard.validate_costandard(data)
    assert info.value.layer == layer
