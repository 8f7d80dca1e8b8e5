"""Every budget refusal goes through the one gate, `errors.charge`: no
module of src/weylkit but errors.py constructs or raises a BudgetError.
A module that constructs one bypasses the gate's message format, which
the command line's budget errors share.  `errors.capped_power` gives the
gate a size that grows with an exponent without forming it.
"""

import ast
from pathlib import Path

import pytest

from weylkit import fourier
from weylkit.errors import BudgetError, capped_power

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "weylkit"


def _budget_errors_made(tree):
    """Line numbers of the calls and raises of BudgetError, named bare or
    as an attribute, in the tree."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            target = node.func
        elif isinstance(node, ast.Raise) and node.exc is not None:
            target = node.exc
        else:
            continue
        name = getattr(target, "id", None) or getattr(target, "attr", None)
        if name == "BudgetError":
            lines.append(node.lineno)
    return lines


def test_budget_error_is_constructed_only_in_errors():
    made = {path.name: _budget_errors_made(ast.parse(path.read_text()))
            for path in sorted(PACKAGE.glob("*.py"))}
    assert len(made["errors.py"]) == 1
    assert {name: lines for name, lines in made.items()
            if lines and name != "errors.py"} == {}


def test_capped_power_stops_at_the_first_power_past_the_cap():
    assert capped_power(3, 0, 10000) == 1
    assert capped_power(3, 8, 10000) == 6561
    assert capped_power(97, 2, 10000) == 9409
    # past the cap: the first power that passes it, whatever the exponent
    for exponent in (9, 10, 10 ** 12):
        assert capped_power(3, exponent, 10000) == 3 ** 9
    assert capped_power(999999999989, 2, 200000) == 999999999989


def test_a_group_table_past_the_budget_is_refused_before_its_products():
    # Z/1001 would form 1001^2 = 1,002,001 products
    with pytest.raises(BudgetError, match=r"1001\^2 products exceeds the"
                                          r" budget of 1000000"):
        fourier.cyclic_group(1001)


def test_characters_past_the_budget_are_refused_before_the_split(
        monkeypatch):
    # Z/31 has 31 classes, its exponent is 31 and p = 311 is the least
    # prime = 1 mod 31: (31 + 311 + 31^2) 31^2 = 1,252,183 steps, while its
    # table is 961 products; Z/30, with p = 31, weighs 864,900
    z31 = fourier.cyclic_group(31)
    splits = []
    monkeypatch.setattr(fourier, "_components",
                        lambda *args: splits.append(args))
    with pytest.raises(BudgetError, match="^a table of 31 classes exceeds"
                                          " the budget of 1000000$"):
        z31.characters(z31.elements)
    assert splits == []

