import pytest

from weylkit import costandard, springer
from weylkit.errors import TableRejectionError, UnsupportedLabelError

# A second table the validator accepts: the one-dimensional sign module,
# whose single layer is the top.
TRIVIAL_A1_TEXT = """\
group A1
dim 1
zeta 1 triv
cell 0
gen 0 = -1
gen 1 = -1
layer 0 = 1
"""


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
    assert springer.closure_leq("sl2", "1", "regular", strict=True)
    assert not springer.closure_leq("sl2", "regular", "1", strict=True)
    assert springer.closure_leq("sl2", "regular", "regular")


def test_costandard_builtin_accepted():
    data = costandard.load_costandard(costandard.BUILTIN_A1_TEXT)
    labels = costandard.layer_labels(data)
    assert [lab[1] for lab in labels].count("unit") >= 1


def test_costandard_swapped_rejected_with_layer():
    with pytest.raises(TableRejectionError) as info:
        costandard.load_costandard(costandard.SWAPPED_A1_TEXT)
    assert info.value.layer == 2


def test_costandard_trivial_table_accepted():
    costandard.load_costandard(TRIVIAL_A1_TEXT)
