from weylkit import omega
from weylkit.cartan import cartan_datum


def test_group_orders():
    for label, order in (("A1", 2), ("A2", 3), ("A3", 4),
                         ("D4", 4), ("G2", 1), ("C2", 2)):
        assert len(omega.omega_group(cartan_datum(label))) == order


def test_group_closure_and_inverses():
    datum = cartan_datum("A3")
    group = omega.omega_group(datum)
    identity = omega.identity_automorphism(datum)
    for a in group:
        assert any(a * b == identity for b in group)
        for b in group:
            assert a * b in group
