"""Reference routes the tests compare the library with.

Each builds what the library's own route avoids building: every matrix
of a level of the fixed-point walk, a Weyl element multiplied out letter
by letter, the Witt zero from its components.  No command, check or
benchmark runs them, so they live here, beside the tests that read them.
"""

from weylkit import pgl2, weyl, witt
from weylkit.laurent import quadratic


def children(pieces, q):
    """The q children s^-1 C s, t in range(q), from C's pieces
    `pgl2._pieces(C, letter)`: at most three `laurent.quadratic`
    constructions each."""
    def entry(t, piece):
        x0, x1, x2 = piece
        return x0 if x1 is None else quadratic(t, x0, x1, x2)

    p00, p01, p10, p11 = pieces
    return [((entry(t, p00), entry(t, p01)), (entry(t, p10), entry(t, p11)))
            for t in range(q)]


def tau_conjugate(C):
    """tau^-1 C tau for the normalizing element tau = [[0, 1], [e, 0]]."""
    (a, b), (c, d) = C
    return ((d, c.shift(-1)), (b.shift(1), a))


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
                    for child in children(pgl2._pieces(conj, letter), q)]


def from_word(datum, word):
    """The Weyl element s_word[0] s_word[1] ..., multiplied out."""
    w = weyl.identity(datum)
    for i in word:
        w = weyl.multiply(w, weyl.simple_reflection(datum, i))
    return w


def witt_zero(p, m):
    return witt.WittScalar(p, m, (0,) * m)
