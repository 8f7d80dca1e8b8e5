"""Public constructors refuse an input that is not an int where an int is
meant: each raises PreconditionError naming the input, not a bare
TypeError from deeper in, and builds nothing that renders a float."""

from fractions import Fraction

import pytest

from weylkit import lattices
from weylkit.cyclotomic import Cyc
from weylkit.errors import PreconditionError
from weylkit.laurent import LaurentScalar
from weylkit.witt import WittScalar, oracle_check


@pytest.mark.parametrize("build, what", [
    (lambda: LaurentScalar(3, {0: 0.5}), "coefficient 0.5"),
    (lambda: LaurentScalar(3, {0: Fraction(1, 2)}), "coefficient"),
    (lambda: LaurentScalar(3, {0.5: 1}), "exponent 0.5"),
    (lambda: LaurentScalar(3.0, {0: 1}), "prime 3.0"),
    (lambda: WittScalar(3, 2, (0.5, 1)), "component 0.5"),
    (lambda: WittScalar(3.0, 2, (1, 1)), "prime 3.0"),
    (lambda: WittScalar(3, 2.0, (1, 1)), "Witt length 2.0"),
    (lambda: oracle_check(3, 2.0), "Witt length 2.0"),
    (lambda: lattices.enumerate_X_n(3.0, 1), "prime 3.0"),
    (lambda: Cyc.zeta(2.0), "conductor 2.0"),
    (lambda: Cyc.zeta(3, 1.0), "exponent 1.0"),
    (lambda: Cyc(3.0, (1, 0)), "conductor 3.0"),
])
def test_a_non_int_input_is_refused(build, what):
    with pytest.raises(PreconditionError, match=f"^{what}.* is not an int$"):
        build()


def test_a_bool_counts_as_its_int():
    assert WittScalar(3, 2, (True, False)) == WittScalar(3, 2, (1, 0))
    assert LaurentScalar(3, {0: True}).render() == "1"
