"""The W3 target group: the module Z[t1^+-, t2^+-].[w13,w23] modulo the
hexagon relator submodule, organized orbit by orbit.

The relator family touches, at (p, q), exactly the four monomials
(p,q), (q,q-p), (p,p-q), (q,p), and the exponent maps

    r: (a, b) -> (a-b, a)        (order 6)
    s: (a, b) -> (-b, -a)        (involution, s r s = r^-1)

generate the dihedral group of the hexagon, whose twelve elements are
r^i and r^i s.  So orbit_of writes an orbit down in closed form, the six
r-images of a point and their s-images, with no search.  hex_normal_form
makes one pass over the terms of its input: for every monomial, on the
six degenerate lines or off them, _least reads off in closed form its
orbit's least point and which image of the monomial lands there, and the
term adds its coefficient times that image's row of its shape's sparse
Smith rows to its orbit's coordinates.  Every relator is supported
inside a single orbit, so the quotient splits as a direct sum over
orbits.  A relator is a fixed signed sum of group elements applied to
(p, q), and orbit_of lists an orbit as fixed group words applied to a
representative whose stabilizer is fixed by the orbit's shape, so each
orbit's Smith form depends only on its shape and n mod 2.
"""

from collections import namedtuple

from . import check_sphere_dimension
from .intlat import IntMatrix, QuotientStructure, smith_normal_form
from .laurent import LaurentPoly2


# r and s pointwise, the independent reference the closed-form orbits are checked against
def r_map(a, b):
    return (a - b, a)


def s_map(a, b):
    return (-b, -a)


def on_degenerate_line(a, b):
    """True iff (a, b) lies on a vertex or edge-midpoint axis of the hexagon."""
    return a + b == 0 or a - b == 0 or a == 0 or b == 0 or 2 * a == b or 2 * b == a


# one dihedral orbit in Z^2: its least point, its elements in a fixed
# order and its type, "origin", "six" or "twelve"
HexOrbit = namedtuple("HexOrbit", "rep elements otype")


def _ring(a, b):
    """r^0 .. r^5 of (a, b)."""
    return [(a, b), (a - b, a), (-b, a - b), (-a, -b), (b - a, -a), (b, b - a)]


_OTYPES = {1: "origin", 6: "six", 12: "twelve"}


def orbit_of(a, b):
    """Orbit of (a, b) under the hexagon group, canonically ordered.

    The orbit is the r-ring of (a, b) together with the r-ring of its
    s-image.  The representative is the lexicographically least point;
    elements are listed as r^0..r^5 of the representative followed by the
    s-images of that traversal (duplicates skipped), so six-orbits come
    out as a pure r-cycle.
    """
    rep = min(_ring(a, b) + _ring(-b, -a))
    ring = _ring(*rep)
    elements = tuple(dict.fromkeys(ring + [(-y, -x) for x, y in ring]))
    otype = _OTYPES.get(len(elements))
    if otype is None:
        raise AssertionError("orbit of %r has impossible size %d" % ((a, b), len(elements)))
    return HexOrbit(rep, elements, otype)


def k_relator(p, q, n):
    """The hexagon relator instance at (p, q), as a (t1, t2)-polynomial.

    t1^p t2^q - t1^q t2^(q-p) + (-1)^(n-1) (t1^p t2^(p-q) - t1^q t2^p);
    for n odd this is the familiar form
    t1^p t2^q + t1^p t2^(p-q) - t1^q t2^p - t1^q t2^(q-p).
    """
    check_sphere_dimension(n)
    s = 1 if n % 2 else -1
    return LaurentPoly2([((p, q), 1), ((q, q - p), -1),
                         ((p, p - q), s), ((q, p), -s)])


def orbit_relators(orbit, n):
    """Matrix of the distinct relator instances supported on the orbit.

    Rows are deduplicated up to sign and zero rows dropped; columns are
    indexed by the orbit's canonical element order.
    """
    idx = {v: i for i, v in enumerate(orbit.elements)}
    rows = {}  # the distinct rows, each with a positive lead, in first-seen order
    for p, q in orbit.elements:
        row = [0] * len(orbit.elements)
        for mono, c in k_relator(p, q, n).terms.items():
            if mono not in idx:
                raise AssertionError("relator at (%d, %d) touches %r outside the orbit of %r"
                                     % (p, q, mono, orbit.rep))
            row[idx[mono]] += c
        lead = next((x for x in row if x), 0)
        if lead:
            rows[tuple(-x for x in row) if lead < 0 else tuple(row)] = None
    rows = list(rows)
    return IntMatrix(len(rows), len(orbit.elements), rows)


def orbit_structure(orbit, n):
    """Orbit summand's isomorphism type: a free Z per 0 modulus of its shape."""
    check_sphere_dimension(n)
    moduli = _SHAPE_ROWS[(_shape(orbit.rep), n % 2)][1]
    return QuotientStructure(moduli.count(0), [m for m in moduli if m])


def _shape(rep):
    """Shape of the orbit whose least point is rep: the origin (0, 0), a vertex
    six-orbit (-t, -t) or an edge six-orbit (-2t, -t) with t > 0, else twelve."""
    x, y = rep
    if x == y:
        return "origin" if x == 0 else "vertex"
    return "edge" if x == 2 * y else "twelve"


def _smith_coordinates(orbit, n):
    """(V, moduli): the Smith column transform and one modulus per orbit element."""
    d, _, v = smith_normal_form(orbit_relators(orbit, n))
    return v, tuple(d.diagonal() + [0] * (d.cols - min(d.rows, d.cols)))


def _sparse_rows(v, moduli, keys):
    """(rows, moduli) over the Smith coordinates whose modulus is not 1:
    rows[keys[i]] lists (coordinate, V[i][j]) for each nonzero V[i][j]."""
    keep = [j for j, m in enumerate(moduli) if m != 1]
    rows = {key: tuple((c, v.data[i][j]) for c, j in enumerate(keep) if v.data[i][j])
            for i, key in enumerate(keys)}
    return rows, tuple(moduli[j] for j in keep)


def _least(a, b):
    """(rep, j): rep is the least point of the orbit of (a, b), and j the
    index of an image of (a, b) equal to rep, counting r^0..r^5 of (a, b),
    then r^0..r^5 of s(a, b) = (-b, -a).

    The least first coordinate is -max(|a|, |b|, |a-b|), reached by those
    of +-a, +-b, +-(a-b) at the maximum, in two images each; the smaller
    second coordinate picks one.  Off the six degenerate lines one value
    reaches it.  On a line two may tie, and tied values are equal up to
    sign, so both tied branches compare the same two points: the least
    point and a valid index come out either way.  At the origin every
    image is (0, 0).
    """
    d = a - b
    ua, ub, ud = abs(a), abs(b), abs(d)
    if ua > ub and ua > ud:
        if a < 0:
            return ((a, b), 0) if b < d else ((a, d), 8)
        return ((-a, -b), 3) if b > d else ((-a, -d), 11)
    if ub > ud:
        if b < 0:
            return ((b, -d), 5) if -d < a else ((b, a), 9)
        return ((-b, d), 2) if d < -a else ((-b, -a), 6)
    if d < 0:
        return ((d, a), 1) if a < -b else ((d, -b), 7)
    return ((-d, -a), 4) if -a < b else ((-d, b), 10)


# (shape, n % 2) -> (rows, moduli) of one sample orbit per shape: the moduli
# that are not 1, and rows[j] the sparse Smith row of the element whose image
# j under _least is the rep.  j is a group element and the shape fixes the
# rep's stabilizer, so j fixes the element's place in any orbit of the shape;
# a twelve-orbit meets all twelve j, and a six-orbit, a positive multiple of
# its sample, the sample's (_least is homogeneous).  Never mutated.
_SHAPE_ROWS = {
    (_shape(orbit.rep), n % 2):
        _sparse_rows(*_smith_coordinates(orbit, n), [_least(*x)[1] for x in orbit.elements])
    for orbit in (orbit_of(0, 0), orbit_of(-1, 0), orbit_of(-1, 1), orbit_of(-2, 1))
    for n in (3, 4)}


class HexNormalForm:
    """Per-orbit canonical coordinates; equal iff equal in the quotient.

    orbits: rep -> tuple of (value, modulus) pairs, one entry per basis
    position the orbit's Smith form leaves alive (modulus 0 means a free
    coordinate, otherwise the value is reduced mod the invariant factor).
    All-zero orbit blocks are omitted.
    """

    __slots__ = ("orbits",)

    def __init__(self, orbits):
        self.orbits = {rep: coords for rep, coords in orbits.items()
                       if any(v for v, _ in coords)}

    def is_zero(self):
        return not self.orbits

    def __eq__(self, other):
        return isinstance(other, HexNormalForm) and self.orbits == other.orbits

    def __repr__(self):
        if not self.orbits:
            return "0"
        bits = []
        for rep in sorted(self.orbits):
            bits.append("%r: %s" % (rep, list(self.orbits[rep])))
        return "HexNormalForm{%s}" % "; ".join(bits)


def hex_normal_form(poly, n):
    """Canonical form of poly * [w13, w23] in the quotient by the relators.

    One pass over the terms: _least gives each monomial's orbit rep and
    image index, the index picks its row among its shape's sparse Smith
    rows, and c times that row is added to its orbit's coordinates, which
    are reduced mod the moduli at the end.
    """
    check_sphere_dimension(n)
    parity = n % 2
    blocks = {}  # rep -> (coordinates in the Smith basis, rows, moduli)
    for (a, b), c in poly.terms.items():
        rep, j = _least(a, b)
        block = blocks.get(rep)
        if block is None:
            rows, moduli = _SHAPE_ROWS[(_shape(rep), parity)]
            block = blocks[rep] = ([0] * len(moduli), rows, moduli)
        y = block[0]
        for i, v in block[1][j]:
            y[i] += c * v
    orbits = {}
    for rep, (y, _, moduli) in blocks.items():
        if any(moduli):
            y = [v % m if m else v for v, m in zip(y, moduli)]
        orbits[rep] = tuple(zip(y, moduli))
    return HexNormalForm(orbits)


# Monomial chart change between the two bracket bases:
#   t1^m t3^v [w12, w23]  =  - t1^(m-v) t2^(-v) [w13, w23].
# The exponent map is an involution; the constant -1 is forced by
# [w13,w23] = -[w12,w23] in the Whitehead algebra.  Any residual global
# sign convention is invisible to rank and vanishing statements.
def basis_change_12_to_13(poly):
    """From t1^m t3^v [w12,w23] coordinates to t1^p t2^q [w13,w23], and
    back: the chart change is an involution, so it is its own inverse."""
    return LaurentPoly2(((m - v, -v), -c) for (m, v), c in poly.terms.items())
