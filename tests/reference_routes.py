"""Reference routes the tests compare the library with.

Each builds what the library's own route avoids building: every matrix
of a level of the fixed-point walk as a product of matrices, the
discriminant as a product of Laurent polynomials, a Weyl element
multiplied out letter by letter, the reduced word of each conjugate a
coset generator makes, the Witt zero from its components.
No command, check or benchmark runs them, so they live here, beside the
tests that read them.
"""

from weylkit import laurent, pgl2, weyl, witt
from weylkit.laurent import LaurentScalar


def edge(letter, t, q):
    """The edge s_letter(t) of the word tree: [[-t, 1], [-1, 0]] for
    letter 1 and [[0, e^-1], [-e, t]] for letter 0, both of determinant
    1."""
    one, zero = LaurentScalar(q, {0: 1}), LaurentScalar(q, {})
    scalar = LaurentScalar(q, {0: t})
    if letter == 1:
        return ((-scalar, one), (-one, zero))
    return ((zero, LaurentScalar(q, {-1: 1})),
            (LaurentScalar(q, {1: -1}), scalar))


def _conjugate(C, s, s_inv):
    """s_inv C s, multiplied out."""
    return laurent.mat_mul(s_inv, laurent.mat_mul(C, s))


def children(C, letter, q):
    """The q children s^-1 C s, s = s_letter(t) and t in range(q), each
    a product with the edge and its adjugate, its inverse."""
    out = []
    for t in range(q):
        s = edge(letter, t, q)
        (a, b), (c, d) = s
        out.append(_conjugate(C, s, ((d, -b), (-c, a))))
    return out


def tau_conjugate(C):
    """tau^-1 C tau for the normalizing element tau = [[0, 1], [e, 0]],
    with tau^-1 = [[0, e^-1], [1, 0]], multiplied out."""
    q = C[0][0].q
    one, zero = LaurentScalar(q, {0: 1}), LaurentScalar(q, {})
    tau = ((zero, one), (LaurentScalar(q, {1: 1}), zero))
    return _conjugate(C, tau, ((zero, LaurentScalar(q, {-1: 1})), (one, zero)))


def conjugate_levels(g):
    """Yield, for word lengths 0, 1, 2, ..., the conjugates x^-1 g x over
    that level's coset representatives x I1, each followed by its
    tau-conjugate.  Each length-l word in the two alternating letters
    contributes q^l nodes, each built as a matrix: the reference the
    tests compare the count's valuation route with.  The levels carry
    x^-1 g x down, never x."""
    q = g[0][0].q
    frontier = [(g, None)]
    while True:
        yield [m for conj, _ in frontier for m in (conj, tau_conjugate(conj))]
        frontier = [(child, letter)
                    for conj, last in frontier
                    for letter in (0, 1) if letter != last
                    for child in children(conj, letter, q)]


def discriminant_by_products(M):
    """The valuation of e^2(b+c)^2 - 4e^2 bc - e a d for the normal form
    `pgl2.i2_normal_form` gives M, each entry shifted to its normal-form
    exponents and the formula multiplied out."""
    q = M[0][0].q
    m, A, B, C, D = pgl2.i2_normal_form(M)
    a, b, c = (LaurentScalar(q, X).shift(-(m + 1)) for X in (A, B, C))
    d = LaurentScalar(q, D).shift(-m)
    expr = ((b + c) * (b + c) - b * c * 4).shift(2) - (a * d).shift(1)
    return expr.valuation()


def from_word(datum, word):
    """The Weyl element s_word[0] s_word[1] ..., multiplied out."""
    w = weyl.identity(datum)
    for i in word:
        w = weyl.multiply(w, weyl.simple_reflection(datum, i))
    return w


def is_min_coset_generator(w, J):
    """Whether w normalizes W_J and is minimal in its coset w W_J, by word
    extraction: the reduced word of each w s_j w^-1, j in J, uses only
    letters of J, and w has no right descent in J."""
    winv = w.inverse()
    for j in J:
        conj = w * weyl.simple_reflection(w.datum, j) * winv
        if any(letter not in J for letter in conj.word()):
            return False
    return not any(j in J for j in weyl.right_descents(w))


def witt_zero(p, m):
    return witt.WittScalar(p, m, (0,) * m)
