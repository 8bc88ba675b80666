"""Symbolic degree-n and degree-(2n-1) classes of the 3-point configuration
space of S^1 x B^n, with the bracket expansion and the four facet maps.

Degree-n generators: the group ring acts by
    t_l . w_ij = w_ij            (l not in {i,j})
    t_i . w_ij = t_j^-1 . w_ij
so any monomial collapses onto a single power of t_i:
    t1^a1 t2^a2 t3^a3 . w_ij = t_i^(a_i - a_j) . w_ij,
together with w_ii = 0 and w_ji = (-1)^(n+1) w_ij.

Brackets: bilinear, graded symmetric [y,x] = (-1)^n [x,y] in equal
degree n, compatible with the action (t.[f,g] = [t.f, t.g]), cyclic on
head-to-tail products [w_ij,w_jl] = [w_jl,w_li] = [w_li,w_ij], and zero
on index-disjoint products.  The canonical degree-(2n-1) basis is

    t1^a t3^b [w12, w23]                    ("triple" part, t2 removed
                                             via the trivial t1t2t3 action)
    t_i^c [w_ij, t_i^l w_ij], i < j         ("pair" part; l >= 1 for n
                                             odd, l >= 0 for n even)
"""

from itertools import chain

from . import DomainError, check_sphere_dimension
from .laurent import LaurentPoly2, combine

_FACETS = ("t1=0", "t1=t2", "t2=t3", "t3=1")

# Reduction of a plain one-shared-index bracket to the [w12,w23] generator,
# derived from the flip/swap/cyclic relations above, e.g.
#   [w13,w23] = (-1)^(n+1) [w13,w32]            (flip second factor)
#             = (-1)^(n+1) [w31,w23]            (flip both factors of a
#                                                head-to-tail product)
#             = (-1)^(n+1) (-1)^n [w23,w31]     (graded swap)
#             = -[w12,w23]                      (cyclic identity)
# The reversed orders pick up one extra graded swap, hence the (-1)^n.
_FORWARD_SIGN = {
    ((1, 2), (2, 3)): 1,
    ((1, 2), (1, 3)): -1,
    ((1, 3), (2, 3)): -1,
}


def _parity_sign(n):
    return -1 if n % 2 else 1


class DegNElem:
    """Integer combination of canonical degree-n generators t_i^a w_ij."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        check_sphere_dimension(n)
        self.n = n
        self.terms = combine(terms)

    def is_zero(self):
        return not self.terms

    def add(self, other):
        if self.n != other.n:
            raise ValueError("mismatched sphere dimension")
        return DegNElem(self.n, chain(self.terms.items(), other.terms.items()))

    __add__ = add

    def __sub__(self, other):
        return self.add(other.scale(-1))

    def scale(self, a):
        return DegNElem(self.n, [(k, a * c) for k, c in self.terms.items()])

    def act(self, exps):
        """Apply the group-ring monomial t1^e1 t2^e2 t3^e3."""
        return DegNElem(self.n, [((i, j, a + exps[i - 1] - exps[j - 1]), c)
                                 for (i, j, a), c in self.terms.items()])

    def __eq__(self, other):
        return (isinstance(other, DegNElem) and self.n == other.n
                and self.terms == other.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        return "".join("%+d*t%d^%d.w%d%d" % (c, i, a, i, j)
                       for (i, j, a), c in sorted(self.terms.items()))


def deg_n_gen(i, j, exps=(0, 0, 0), n=3, coeff=1):
    """Normalize coeff * (t1^e1 t2^e2 t3^e3 . w_ij) to the canonical basis."""
    if not (1 <= i <= 3 and 1 <= j <= 3):
        raise DomainError("point indices must lie in {1,2,3}")
    if i == j or coeff == 0:
        return DegNElem(n)
    a = exps[i - 1] - exps[j - 1]
    if i > j:
        i, j, a = j, i, -a
        if n % 2 == 0:
            coeff = -coeff  # w_ji = (-1)^(n+1) w_ij
    return DegNElem(n, {(i, j, a): coeff})


class BracketElem:
    """Degree-(2n-1) class in the canonical triple + pair basis.

    triple: (a, b) -> coeff   for t1^a t3^b [w12, w23]
    pairs:  (i, j, c, l) -> coeff   for t_i^c [w_ij, t_i^l w_ij]
    """

    __slots__ = ("n", "triple", "pairs")

    def __init__(self, n, triple=None, pairs=None):
        check_sphere_dimension(n)
        self.n = n
        self.triple = combine(triple)
        self.pairs = combine(pairs)

    def is_zero(self):
        return not self.triple and not self.pairs

    def add(self, other):
        if self.n != other.n:
            raise ValueError("mismatched sphere dimension")
        return BracketElem(self.n, chain(self.triple.items(), other.triple.items()),
                           chain(self.pairs.items(), other.pairs.items()))

    __add__ = add

    def __sub__(self, other):
        return self.add(other.scale(-1))

    def scale(self, a):
        return BracketElem(self.n, [(k, a * c) for k, c in self.triple.items()],
                           [(k, a * c) for k, c in self.pairs.items()])

    def act(self, exps):
        e1, e2, e3 = exps
        return BracketElem(
            self.n,
            [((a + e1 - e2, b + e3 - e2), c) for (a, b), c in self.triple.items()],
            _pair_terms(self.n, [(i, j, c0 + exps[i - 1] - exps[j - 1], l, c)
                                 for (i, j, c0, l), c in self.pairs.items()]))

    def drop_edge_pairs(self):
        """Forget pair terms on (1,2) and (2,3).

        Those two families are exactly the relator images of the t1=0 and
        t3=1 facets, so this is reduction modulo that part of R.
        """
        keep = {k: c for k, c in self.pairs.items() if (k[0], k[1]) == (1, 3)}
        return BracketElem(self.n, dict(self.triple), keep)

    def triple_poly(self):
        """Triple part as a Laurent polynomial in the (t1, t3) chart."""
        return LaurentPoly2(dict(self.triple))

    def __eq__(self, other):
        return (isinstance(other, BracketElem) and self.n == other.n
                and self.triple == other.triple and self.pairs == other.pairs)

    def __repr__(self):
        if self.is_zero():
            return "0"
        bits = ["%+d*t1^%d*t3^%d[w12,w23]" % (c, a, b)
                for (a, b), c in sorted(self.triple.items())]
        bits += ["%+d*t%d^%d[w%d%d,t%d^%d w%d%d]" % (c, i, cc, i, j, i, l, i, j)
                 for (i, j, cc, l), c in sorted(self.pairs.items())]
        return "".join(bits)


def _pair_terms(n, terms):
    # (key, coeff) pairs of t_i^c0 [w_ij, t_i^l w_ij] for (i, j, c0, l, coeff)
    # in terms, in the canonical pair index range: l >= 1 (n odd), l >= 0
    # (n even); below that, one graded swap [f,g] = (-1)^n [g,f] folds l to -l
    sign = _parity_sign(n)
    for i, j, c0, l, coeff in terms:
        if l < 0:
            c0, l, coeff = c0 + l, -l, sign * coeff
        if l or n % 2 == 0:  # [x, x] is 2-torsion for n odd, zero rationally
            yield (i, j, c0, l), coeff


def _triple_sign(pair1, pair2, n):
    s = _FORWARD_SIGN.get((pair1, pair2))
    if s is not None:
        return s
    return _FORWARD_SIGN[(pair2, pair1)] * _parity_sign(n)


def bracket(x, y, n=None):
    """Whitehead bracket of two degree-n elements on 3 points."""
    if n is None:
        n = x.n
    if x.n != n or y.n != n:
        raise ValueError("mismatched sphere dimension")
    triple, pairs = [], []
    for (i1, j1, a), c1 in x.terms.items():
        for (i2, j2, b), c2 in y.terms.items():
            coeff = c1 * c2
            if (i1, j1) == (i2, j2):
                # [t_i^a w_ij, t_i^b w_ij] = t_i^a [w_ij, t_i^(b-a) w_ij]
                pairs.append((i1, j1, a, b - a, coeff))
                continue
            # one shared index: solve for the acting monomial with the
            # shared coordinate pinned to zero, then reduce the plain
            # bracket through the sign table
            shared = ({i1, j1} & {i2, j2}).pop()
            mu = [0, 0, 0]
            for (i, j, e) in ((i1, j1, a), (i2, j2, b)):
                if i == shared:
                    mu[j - 1] = -e
                else:
                    mu[i - 1] = e
            triple.append(((mu[0] - mu[1], mu[2] - mu[1]),
                           _triple_sign((i1, j1), (i2, j2), n) * coeff))
    return BracketElem(n, triple, _pair_terms(n, pairs))


# facet substitutions on the 2-point generators: image of w12 as a list of
# (i, j, extra-coefficient flag) and images of t1, t2 as exponent vectors.
# The flagged entry carries the velocity-vector degree a (it cancels from
# every bracket: the 2nd Taylor stage null-homotopes the velocity map).
_FACET_DATA = {
    "t1=0": {"w": ((2, 3, False),), "t1": (0, 1, 0), "t2": (0, 0, 1)},
    "t1=t2": {"w": ((1, 3, False), (2, 3, False), (2, 1, True)),
              "t1": (1, 1, 0), "t2": (0, 0, 1)},
    "t2=t3": {"w": ((1, 2, False), (1, 3, False), (2, 3, True)),
              "t1": (1, 0, 0), "t2": (0, 1, 1)},
    "t3=1": {"w": ((1, 2, False),), "t1": (1, 0, 0), "t2": (0, 1, 0)},
}


def facet_map(facet, x, a=0):
    """Image of a 2-point element under one of the four facet inclusions.

    `x` is a DegNElem or BracketElem supported on the w12 generators of
    the 2-point configuration space; `a` is the velocity degree of the
    doubled point (facets t1=t2 and t2=t3 only -- it is provably
    invisible in bracket images, which the test-suite checks).  The
    image lives in x's dimension x.n.
    """
    if facet not in _FACETS:
        raise DomainError("unknown facet %r" % (facet,))
    if not isinstance(x, (DegNElem, BracketElem)):
        raise TypeError("expected a DegNElem or BracketElem")
    data = _FACET_DATA[facet]
    n = x.n
    if isinstance(x, DegNElem):
        terms = []
        for (i, j, e), c in x.terms.items():
            if (i, j) != (1, 2):
                raise DomainError("input must live on 2 points (w12 only)")
            exps = tuple(e * v for v in data["t1"])
            for (u, v, extra) in data["w"]:
                terms += deg_n_gen(u, v, exps, n, c * a if extra else c).terms.items()
        return DegNElem(n, terms)
    if x.triple:
        raise DomainError("input must live on 2 points (no triple part)")
    triple, pairs = [], []
    for (i, j, c0, l), c in x.pairs.items():
        if (i, j) != (1, 2):
            raise DomainError("input must live on 2 points (w12 only)")
        # the bracket is bilinear, so c scales the first factor
        img = bracket(facet_map(facet, DegNElem(n, {(1, 2, c0): c}), a),
                      facet_map(facet, DegNElem(n, {(1, 2, c0 + l): 1}), a), n)
        triple += img.triple.items()
        pairs += img.pairs.items()
    return BracketElem(n, triple, pairs)


def pair_bracket(alpha, beta, n):
    """The 2-point class [t1^alpha w12, t1^beta w12]."""
    return bracket(DegNElem(n, {(1, 2, alpha): 1}),
                   DegNElem(n, {(1, 2, beta): 1}), n)


def derive_R_relators(n, window):
    """Mechanically derived relator family on [w12, w23].

    For each (alpha, beta) in the window, compares the t2=t3 and t1=t2
    facet images of [t1^alpha w12, t1^beta w12] modulo the edge-pair
    families; the [t1^a w13, t1^b w13] parts cancel and the difference
    is the 4-monomial relator.  Returns [((alpha, beta), BracketElem)].
    """
    lo, hi = window
    out = []
    for alpha in range(lo, hi + 1):
        for beta in range(lo, hi + 1):
            p = pair_bracket(alpha, beta, n)
            rel = (facet_map("t2=t3", p) - facet_map("t1=t2", p))
            rel = rel.drop_edge_pairs()
            if rel.pairs:
                raise AssertionError("w13 pair terms failed to cancel at "
                                     "(%d, %d)" % (alpha, beta))
            out.append(((alpha, beta), rel))
    return out
