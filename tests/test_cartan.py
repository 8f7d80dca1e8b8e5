import pytest

from weylkit.cartan import cartan_datum
from weylkit.errors import UnsupportedLabelError


def test_c2_affinization():
    datum = cartan_datum("C2")
    assert datum.marks == (1, 2, 1)
    assert datum.pairing == ((2, -2, 0), (-1, 2, -1), (0, -2, 2))


def test_a1_affinization():
    datum = cartan_datum("A1")
    assert datum.marks == (1, 1)
    assert datum.pairing == ((2, -2), (-2, 2))


def test_marks_annihilate_pairing():
    for label in ("A1", "A2", "A3", "B3", "C2", "C3", "D4", "G2", "F4"):
        datum = cartan_datum(label)
        for j in range(datum.n + 1):
            assert sum(datum.marks[k] * datum.pairing[k][j]
                       for k in range(datum.n + 1)) == 0


def test_diagonal_and_sign_pattern():
    datum = cartan_datum("G2")
    for i in range(datum.n + 1):
        assert datum.pairing[i][i] == 2
        for j in range(datum.n + 1):
            if i != j:
                assert datum.pairing[i][j] <= 0


def test_unknown_label():
    with pytest.raises(UnsupportedLabelError):
        cartan_datum("H3")
