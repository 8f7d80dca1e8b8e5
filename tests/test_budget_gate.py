"""Every budget refusal goes through the one gate, `errors.charge`: no
module of src/weylkit but errors.py constructs or raises a BudgetError.
A module that constructs one bypasses the gate's message format, which
the command line's budget errors share.  `errors.capped_power` gives the
gate a size that grows with an exponent without forming it.
"""

import ast
from pathlib import Path

from weylkit.errors import capped_power

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
