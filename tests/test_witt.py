import itertools

import pytest
from hypothesis import given, settings, strategies as st

from weylkit import witt
from weylkit.errors import PreconditionError, UnsupportedRegimeError
from reference_routes import witt_zero


# -- reference: Witt structure polynomials over Z ({exponents: coeff}) --

def _poly_add(a, b, scale=1):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + scale * v
    return out


def _poly_mul(a, b):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            out[k] = out.get(k, 0) + va * vb
    return {k: v for k, v in out.items() if v}


def _poly_pow(a, e):
    out = a
    for _ in range(e - 1):
        out = _poly_mul(out, a)
    return out


def _structure_polynomials(p, m):
    """(sum, product) polynomials in x_0..x_{m-1}, y_0..y_{m-1}: the n-th
    is (w_n(x) o w_n(y) - sum_{i<n} p^i S_i^(p^(n-i))) / p^n over Z."""
    def ghost(offset, n):
        acc = {}
        for i in range(n + 1):
            exps = tuple(p ** (n - i) if j == offset + i else 0
                         for j in range(2 * m))
            acc = _poly_add(acc, {exps: p ** i})
        return acc

    def solve(combine):
        polys = []
        for n in range(m):
            target = combine(ghost(0, n), ghost(m, n))
            for i, s in enumerate(polys):
                target = _poly_add(target, _poly_pow(s, p ** (n - i)),
                                   -(p ** i))
            assert all(v % p ** n == 0 for v in target.values())
            polys.append({k: v // p ** n for k, v in target.items()})
        return polys

    return solve(_poly_add), solve(_poly_mul)


def _eval_mod(poly, values, p):
    total = 0
    for exps, coeff in poly.items():
        for v, e in zip(values, exps):
            coeff *= pow(v, e, p)
        total += coeff
    return total % p


def _assert_matches_structure_polynomials(p, m):
    sums, prods = _structure_polynomials(p, m)
    vectors = list(itertools.product(range(p), repeat=m))
    for xs in vectors:
        x = witt.WittScalar(p, m, xs)
        for ys in vectors:
            y = witt.WittScalar(p, m, ys)
            values = xs + ys
            assert (x + y).components == \
                tuple(_eval_mod(s, values, p) for s in sums)
            assert (x * y).components == \
                tuple(_eval_mod(s, values, p) for s in prods)


@pytest.mark.parametrize("p,m", [(3, 2), (5, 2)])
def test_the_walks_integer_sums_reduce_to_the_structure_polynomials(p, m):
    # the oracle's sum over Z, reduced mod p, is S_n of every pair
    sums, _ = _structure_polynomials(p, m)
    vectors = list(itertools.product(range(p), repeat=m))
    for xs in vectors:
        for ys in vectors:
            assert [s % p for s in witt._lift_sum(p, xs, ys)] == \
                [_eval_mod(s, xs + ys, p) for s in sums]


@pytest.mark.parametrize("p,m", [(2, 8), (3, 5), (7, 3)])
def test_the_walks_integers_stay_within_the_derived_bound(p, m):
    # every component of t_k + 1 over Z is at most p^(p^n) in size, the
    # bound the module docstring derives for the budget
    one = (1,) + (0,) * (m - 1)
    for k in range(p ** m):
        sums = witt._lift_sum(p, witt._digits(k, p, m), one)
        assert all(abs(s) <= p ** p ** n for n, s in enumerate(sums))


def test_structure_polynomials_p3_m2_first_components():
    add, mul = _structure_polynomials(3, 2)
    # first component of the sum is plain addition of the first coordinates
    assert _eval_mod(add[0], (1, 0, 1, 0), 3) == 2
    one = witt.WittScalar(3, 2, (1, 0))
    assert (one + one).components[0] == 2
    # first component of the product is the product
    assert _eval_mod(mul[0], (2, 0, 2, 0), 3) == 1
    two = witt.WittScalar(3, 2, (2, 0))
    assert (two * two).components[0] == 1


@pytest.mark.parametrize("p,m", [(3, 2), (5, 2)])
def test_compiled_structure_matches_eval_mod_on_every_input(p, m):
    # the ghost-component + and * against _eval_mod of the structure
    # polynomials, on every input of 2m prime-field values
    _assert_matches_structure_polynomials(p, m)


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 3), (2, 4)])
def test_sum_and_product_match_structure_polynomials(p, m):
    _assert_matches_structure_polynomials(p, m)


def test_ring_identities_small():
    for p, m in ((3, 2), (5, 2), (3, 3)):
        zero = witt_zero(p, m)
        one = witt.witt_one(p, m)
        assert zero + one == one
        assert one * one == one
        assert zero * one == zero


def test_oracle_isomorphism():
    assert witt.oracle_check(3, 2)
    assert witt.oracle_check(5, 2)
    assert witt.oracle_check(3, 3)


def _teichmuller_image(x):
    """phi(x) = sum_i p^i x_i^(p^(m-1)) mod p^m."""
    p, m = x.p, x.m
    return sum(p ** i * pow(c, p ** (m - 1), p ** m)
               for i, c in enumerate(x.components)) % p ** m


@pytest.mark.parametrize("p,m", [(2, 1), (3, 2), (5, 2), (11, 2), (3, 3),
                                 (2, 4), (7, 3), (2, 6)])
def test_from_integer_inverts_the_teichmuller_map(p, m):
    # digit extraction gives the repeated-addition image k * 1, and phi
    # maps it back to k
    one = witt.witt_one(p, m)
    acc = witt_zero(p, m)
    for k in range(p ** m):
        x = witt.from_integer(k, p, m)
        assert x == acc
        assert _teichmuller_image(x) == k
        acc = acc + one
    assert witt.from_integer(-1, p, m) == witt.from_integer(p ** m - 1, p, m)


def test_oracle_rejects_a_ring_relabelled_by_base_p_digits(monkeypatch):
    # phi'(x) = sum_i x_i p^i is a bijection onto Z/p^m as well, so the
    # ring it carries over is isomorphic to Z/p^m, but it is not W_m(F_p):
    # its 1 is (1, 0) and its images k * 1 are the base-p digits of k.  An
    # oracle whose images are built with the + under test accepts it.
    p, m = 3, 2

    def relabelled(op):
        def apply(x, y):
            value = op(sum(c * p ** i for i, c in enumerate(x.components)),
                       sum(c * p ** i for i, c in enumerate(y.components)))
            value %= p ** m
            return witt.WittScalar(
                p, m, tuple(value // p ** i % p for i in range(m)))
        return apply

    monkeypatch.setattr(witt.WittScalar, "__add__",
                        relabelled(lambda a, b: a + b))
    monkeypatch.setattr(witt.WittScalar, "__mul__",
                        relabelled(lambda a, b: a * b))
    one = witt.witt_one(p, m)
    images = [witt_zero(p, m)]
    for _ in range(p ** m - 1):
        images.append(images[-1] + one)
    lookup = {w.components: k for k, w in enumerate(images)}
    assert all(lookup[(images[x] + images[y]).components] == (x + y) % 9
               and lookup[(images[x] * images[y]).components] == x * y % 9
               for x in range(9) for y in range(9))
    assert witt.oracle_check(p, m) is False


@pytest.mark.parametrize("p,m", [(3, 2), (5, 2)])
def test_the_successor_walk_rejects_base_p_digits(p, m):
    # k -> the base-p digits of k is a bijection onto F_p^m, but k + 1
    # under the Witt sum law leaves it at the first carry
    digits = [witt._digits(k, p, m) for k in range(p ** m)]
    assert witt._successor_walk(p, m, digits)
    base_p = [tuple(k // p ** i % p for i in range(m)) for k in range(p ** m)]
    assert not witt._successor_walk(p, m, base_p)


def test_from_integer_is_additive():
    p, m = 3, 2
    for a in range(9):
        for b in range(9):
            left = witt.from_integer(a, p, m) + witt.from_integer(b, p, m)
            assert left == witt.from_integer(a + b, p, m)


def test_from_integer_is_multiplicative():
    p, m = 5, 2
    for a in range(25):
        for b in range(0, 25, 3):
            left = witt.from_integer(a, p, m) * witt.from_integer(b, p, m)
            assert left == witt.from_integer(a * b, p, m)


def test_p_image_is_not_p_times_one_componentwise():
    # the image of p is (0, 1, ...) rather than (p mod p, 0, ...)
    x = witt.from_integer(3, 3, 2)
    assert x.components[0] == 0
    assert x.components[1] != 0


def test_component_validation():
    with pytest.raises(UnsupportedRegimeError):
        witt.WittScalar(3, 2, (5, 0))
    with pytest.raises(PreconditionError):
        witt.WittScalar(3, 2, (1,))


@pytest.mark.parametrize("p,m", [(2, 4), (3, 3), (5, 2), (7, 3)])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_results_carry_the_ghost_of_their_components(p, m, data):
    vector = st.tuples(*[st.integers(0, p - 1)] * m)
    x = witt.WittScalar(p, m, data.draw(vector))
    y = witt.WittScalar(p, m, data.draw(vector))
    for s in (x + y, x * y):
        # w_{m-1}(s) mod p^m, from the components alone
        assert s.ghost == sum(p ** i * c ** p ** (m - 1 - i)
                              for i, c in enumerate(s.components)) % p ** m
        rebuilt = witt.WittScalar(p, m, s.components)
        assert rebuilt == s and hash(rebuilt) == hash(s)
        assert rebuilt.ghost == s.ghost


@pytest.mark.parametrize("p,m", [(2, 4), (3, 3), (5, 2), (7, 3)])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_a_scalar_is_its_ghost(p, m, data):
    # the components come back from the ghost, and == and hash on the
    # ghost agree with == on the components
    vector = st.tuples(*[st.integers(0, p - 1)] * m)
    xs, ys = data.draw(vector), data.draw(vector)
    x, y = witt.WittScalar(p, m, xs), witt.WittScalar(p, m, ys)
    assert x.components == xs and y.components == ys
    assert (x == y) == (xs == ys)
    assert (hash(x) == hash(y)) == (xs == ys)
    assert not x == 5 and x != 5
    assert not x == None  # noqa: E711


@pytest.mark.parametrize("p,m", [(3, 2), (5, 2), (3, 3), (2, 4)])
def test_the_oracle_reads_each_value_once_and_operations_never(
        monkeypatch, p, m):
    # and it runs p^m sums and 2 p^m products, a linear pass, not one
    # over pairs
    readouts = []
    readout = witt._readout
    monkeypatch.setattr(witt, "_readout",
                        lambda *args: readouts.append(args) or readout(*args))
    calls = []
    for name in ("__add__", "__mul__"):
        op = getattr(witt.WittScalar, name)
        monkeypatch.setattr(
            witt.WittScalar, name,
            lambda x, y, name=name, op=op: calls.append(name) or op(x, y))
    assert witt.oracle_check(p, m)
    assert sorted(readouts) == [(p, m, k) for k in range(p ** m)]
    assert calls.count("__add__") == p ** m
    assert calls.count("__mul__") == 2 * p ** m
    x, y = witt.from_integer(p + 1, p, m), witt.from_integer(-1, p, m)
    readouts.clear()
    x + y
    x * y
    assert readouts == []


@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_random_triples_against_integer_oracle(a, b, c):
    p, m = 3, 2
    wa, wb, wc = (witt.from_integer(x, p, m) for x in (a, b, c))
    assert wa + wb == witt.from_integer(a + b, p, m)
    assert wa * wb == witt.from_integer(a * b, p, m)
    assert wa * (wb + wc) == witt.from_integer(a * (b + c), p, m)


@pytest.mark.parametrize("m", [0, -1])
def test_a_length_below_one_is_refused(monkeypatch, m):
    # a vector of W_0 has no components, but a readout returns at least
    # one; the oracle refuses before it forms any digit vector or image
    with pytest.raises(PreconditionError, match=f"m={m} is not positive"):
        witt.WittScalar(3, m, ())
    with pytest.raises(PreconditionError):
        witt.witt_one(3, m)
    with pytest.raises(PreconditionError):
        witt.from_integer(2, 3, m)
    monkeypatch.setattr(witt, "_digits", None)
    with pytest.raises(PreconditionError, match=f"m={m} is not positive"):
        witt.oracle_check(3, m)


def test_non_prime_field_is_rejected():
    with pytest.raises(UnsupportedRegimeError):
        witt.WittScalar(4, 1, (1,))
    with pytest.raises(UnsupportedRegimeError):
        witt.oracle_check(9, 2)
