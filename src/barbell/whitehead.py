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

The constructors of DegNElem (keys with i < j) and BracketElem (the basis
above) put every key they are given in that canonical form.
"""

from itertools import chain

from . import DomainError, check_sphere_dimension
from .laurent import LaurentPoly2, combine, term_items

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


class _Elem:
    """Module arithmetic of the element types.  Each names its key -> coeff
    dicts in PARTS, its constructor's arguments after n, and the constructor
    puts every key in canonical form, so equality is structural."""

    __slots__ = ("n",)

    def _dicts(self):
        return [getattr(self, part) for part in self.PARTS]

    def is_zero(self):
        return not any(self._dicts())

    def add(self, other):
        if type(other) is not type(self):
            raise TypeError("cannot add %s to %s" % (type(other).__name__, type(self).__name__))
        if self.n != other.n:
            raise ValueError("mismatched sphere dimension")
        return type(self)(self.n, *[chain(d.items(), e.items())
                                    for d, e in zip(self._dicts(), other._dicts())])

    __add__ = add

    def __sub__(self, other):
        return self.add(other.scale(-1))

    def scale(self, a):
        return type(self)(self.n, *[[(k, a * c) for k, c in d.items()]
                                    for d in self._dicts()])

    def __eq__(self, other):
        return (type(other) is type(self) and self.n == other.n
                and self._dicts() == other._dicts())


class DegNElem(_Elem):
    """Integer combination of canonical degree-n generators t_i^a w_ij.

    terms: (i, j, a) -> coeff; a key with i > j is rewritten by
    w_ji = (-1)^(n+1) w_ij, and w_ii = 0 is dropped.
    """

    __slots__ = ("terms",)
    PARTS = ("terms",)

    def __init__(self, n, terms=None):
        check_sphere_dimension(n)
        self.n = n
        flip = -_parity_sign(n)  # w_ji = (-1)^(n+1) w_ij
        canonical = []
        for (i, j, a), c in term_items(terms):
            if not (1 <= i <= 3 and 1 <= j <= 3):
                raise DomainError("point indices must lie in {1,2,3}")
            if i < j:
                canonical.append(((i, j, a), c))
            elif i > j:
                canonical.append(((j, i, -a), flip * c))
        self.terms = combine(canonical)

    def act(self, exps):
        """Apply the group-ring monomial t1^e1 t2^e2 t3^e3."""
        return DegNElem(self.n, [((i, j, a + exps[i - 1] - exps[j - 1]), c)
                                 for (i, j, a), c in self.terms.items()])

    def __repr__(self):
        return "".join("%+d*t%d^%d.w%d%d" % (c, i, a, i, j)
                       for (i, j, a), c in sorted(self.terms.items())) or "0"


def deg_n_gen(i, j, exps=(0, 0, 0), n=3, coeff=1):
    """Normalize coeff * (t1^e1 t2^e2 t3^e3 . w_ij) to the canonical basis."""
    return DegNElem(n, {(i, j, 0): coeff}).act(exps)


class BracketElem(_Elem):
    """Degree-(2n-1) class in the canonical triple + pair basis.

    triple: (a, b) -> coeff   for t1^a t3^b [w12, w23]
    pairs:  (i, j, c, l) -> coeff   for t_i^c [w_ij, t_i^l w_ij]; a key
            with i > j is rewritten as (j, i, -c, -l), since t_j acts on
            w_ij as t_i^-1 and the two flips of w_ji cancel; [w_ii, .] = 0
            is dropped; l < 0 folds by one graded swap
            [f,g] = (-1)^n [g,f], and l = 0 is dropped at odd n, where
            [x, x] is 2-torsion, zero rationally
    """

    __slots__ = ("triple", "pairs")
    PARTS = ("triple", "pairs")

    def __init__(self, n, triple=None, pairs=None):
        check_sphere_dimension(n)
        self.n = n
        self.triple = combine(triple)
        sign = _parity_sign(n)
        canonical = []
        for (i, j, c0, l), c in term_items(pairs):
            if not (1 <= i <= 3 and 1 <= j <= 3):
                raise DomainError("point indices must lie in {1,2,3}")
            if i == j:
                continue
            if i > j:
                i, j, c0, l = j, i, -c0, -l
            if l < 0:
                c0, l, c = c0 + l, -l, sign * c
            if l or n % 2 == 0:
                canonical.append(((i, j, c0, l), c))
        self.pairs = combine(canonical)

    def act(self, exps):
        e1, e2, e3 = exps
        return BracketElem(
            self.n,
            [((a + e1 - e2, b + e3 - e2), c) for (a, b), c in self.triple.items()],
            [((i, j, c0 + exps[i - 1] - exps[j - 1], l), c)
             for (i, j, c0, l), c in self.pairs.items()])

    def drop_edge_pairs(self):
        """Forget pair terms on (1,2) and (2,3).

        Those two families are exactly the relator images of the t1=0 and
        t3=1 facets, so this is reduction modulo that part of R.
        """
        keep = {k: c for k, c in self.pairs.items() if (k[0], k[1]) == (1, 3)}
        return BracketElem(self.n, self.triple, keep)

    def triple_poly(self):
        """Triple part as a Laurent polynomial in the (t1, t3) chart."""
        return LaurentPoly2(self.triple)

    def __repr__(self):
        bits = ["%+d*t1^%d*t3^%d[w12,w23]" % (c, a, b)
                for (a, b), c in sorted(self.triple.items())]
        bits += ["%+d*t%d^%d[w%d%d,t%d^%d w%d%d]" % (c, i, cc, i, j, i, l, i, j)
                 for (i, j, cc, l), c in sorted(self.pairs.items())]
        return "".join(bits) or "0"


def _triple_sign(pair1, pair2, n):
    s = _FORWARD_SIGN.get((pair1, pair2))
    if s is not None:
        return s
    return _FORWARD_SIGN[(pair2, pair1)] * _parity_sign(n)


def bracket(x, y):
    """Whitehead bracket of two degree-n elements on 3 points."""
    n = x.n
    if y.n != n:
        raise ValueError("mismatched sphere dimension")
    triple, pairs = [], []
    for (i1, j1, a), c1 in x.terms.items():
        for (i2, j2, b), c2 in y.terms.items():
            coeff = c1 * c2
            if (i1, j1) == (i2, j2):
                # [t_i^a w_ij, t_i^b w_ij] = t_i^a [w_ij, t_i^(b-a) w_ij]
                pairs.append(((i1, j1, a, b - a), coeff))
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
    return BracketElem(n, triple, pairs)


# facet substitutions on the 2-point generators: image of w12 as a list of
# (i, j, extra-coefficient flag) and image of t1 as an exponent vector.
# The flagged entry carries the velocity-vector degree a (it cancels from
# every bracket: the 2nd Taylor stage null-homotopes the velocity map).
_FACET_DATA = {
    "t1=0": {"w": ((2, 3, False),), "t1": (0, 1, 0)},
    "t1=t2": {"w": ((1, 3, False), (2, 3, False), (2, 1, True)), "t1": (1, 1, 0)},
    "t2=t3": {"w": ((1, 2, False), (1, 3, False), (2, 3, True)), "t1": (1, 0, 0)},
    "t3=1": {"w": ((1, 2, False),), "t1": (1, 0, 0)},
}
FACETS = tuple(_FACET_DATA)


def facet_map(facet, x, a=0):
    """Image of a 2-point element under one of the four facet inclusions.

    `x` is a DegNElem or BracketElem supported on the w12 generators of
    the 2-point configuration space; `a` is the velocity degree of the
    doubled point, a DomainError unless 0 off facets t1=t2 and t2=t3 (it
    is provably invisible in bracket images, which the test-suite
    checks).  The image lives in x's dimension x.n.
    """
    if facet not in _FACET_DATA:
        raise DomainError("unknown facet %r" % (facet,))
    data = _FACET_DATA[facet]
    if a and not any(extra for _, _, extra in data["w"]):
        raise DomainError("the velocity degree applies to facets t1=t2 and t2=t3 only")
    if not isinstance(x, (DegNElem, BracketElem)):
        raise TypeError("expected a DegNElem or BracketElem")
    if isinstance(x, BracketElem) and x.triple:
        raise DomainError("input must live on 2 points (no triple part)")
    if any(k[:2] != (1, 2) for part in x._dicts() for k in part):
        raise DomainError("input must live on 2 points (w12 only)")
    n = x.n
    if isinstance(x, DegNElem):
        t1 = data["t1"]
        return DegNElem(n, [((u, v, e * (t1[u - 1] - t1[v - 1])), c * a if extra else c)
                            for (_, _, e), c in x.terms.items()
                            for u, v, extra in data["w"]])
    triple, pairs = [], []
    for (_, _, c0, l), c in x.pairs.items():
        # the bracket is bilinear, so c scales the first factor
        img = bracket(facet_map(facet, DegNElem(n, {(1, 2, c0): c}), a),
                      facet_map(facet, DegNElem(n, {(1, 2, c0 + l): 1}), a))
        triple += img.triple.items()
        pairs += img.pairs.items()
    return BracketElem(n, triple, pairs)


def pair_bracket(alpha, beta, n):
    """The 2-point class [t1^alpha w12, t1^beta w12]."""
    return bracket(DegNElem(n, {(1, 2, alpha): 1}),
                   DegNElem(n, {(1, 2, beta): 1}))


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
            rel = (facet_map("t2=t3", p) - facet_map("t1=t2", p)).drop_edge_pairs()
            if rel.pairs:
                raise AssertionError("w13 pair terms failed to cancel at "
                                     "(%d, %d)" % (alpha, beta))
            out.append(((alpha, beta), rel))
    return out
