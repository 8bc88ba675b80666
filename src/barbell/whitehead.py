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

from . import DomainError
from .laurent import LaurentPoly2

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
        self.n = n
        self.terms = {k: c for k, c in dict(terms or ()).items() if c}

    def is_zero(self):
        return not self.terms

    def add(self, other):
        if self.n != other.n:
            raise ValueError("mismatched sphere dimension")
        d = dict(self.terms)
        for k, c in other.terms.items():
            c2 = d.get(k, 0) + c
            if c2:
                d[k] = c2
            else:
                del d[k]
        return DegNElem(self.n, d)

    __add__ = add

    def __sub__(self, other):
        return self.add(other.scale(-1))

    def scale(self, a):
        if a == 0:
            return DegNElem(self.n)
        return DegNElem(self.n, {k: a * c for k, c in self.terms.items()})

    def act(self, exps):
        """Apply the group-ring monomial t1^e1 t2^e2 t3^e3."""
        d = {}
        for (i, j, a), c in self.terms.items():
            k = (i, j, a + exps[i - 1] - exps[j - 1])
            c2 = d.get(k, 0) + c
            if c2:
                d[k] = c2
            else:
                del d[k]
        return DegNElem(self.n, d)

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
        self.n = n
        self.triple = {k: c for k, c in dict(triple or ()).items() if c}
        self.pairs = {k: c for k, c in dict(pairs or ()).items() if c}

    def is_zero(self):
        return not self.triple and not self.pairs

    def add(self, other):
        if self.n != other.n:
            raise ValueError("mismatched sphere dimension")
        t = dict(self.triple)
        for k, c in other.triple.items():
            c2 = t.get(k, 0) + c
            if c2:
                t[k] = c2
            else:
                del t[k]
        p = dict(self.pairs)
        for k, c in other.pairs.items():
            c2 = p.get(k, 0) + c
            if c2:
                p[k] = c2
            else:
                del p[k]
        return BracketElem(self.n, t, p)

    __add__ = add

    def __sub__(self, other):
        return self.add(other.scale(-1))

    def scale(self, a):
        if a == 0:
            return BracketElem(self.n)
        return BracketElem(self.n,
                           {k: a * c for k, c in self.triple.items()},
                           {k: a * c for k, c in self.pairs.items()})

    def act(self, exps):
        out = BracketElem(self.n)
        e1, e2, e3 = exps
        for (a, b), c in self.triple.items():
            k = (a + e1 - e2, b + e3 - e2)
            out.triple[k] = out.triple.get(k, 0) + c
        for (i, j, c0, l), c in self.pairs.items():
            _accumulate_pair(out, i, j, c0 + exps[i - 1] - exps[j - 1], l, c, self.n)
        out.triple = {k: c for k, c in out.triple.items() if c}
        out.pairs = {k: c for k, c in out.pairs.items() if c}
        return out

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


def _accumulate_pair(out, i, j, c0, l, coeff, n):
    # canonical pair index range: l >= 1 (n odd), l >= 0 (n even);
    # below that, one graded swap [f,g] = (-1)^n [g,f] folds l to -l
    if coeff == 0:
        return
    if l < 0:
        coeff *= _parity_sign(n)
        c0, l = c0 + l, -l
    if l == 0 and n % 2:
        return  # [x, x] is 2-torsion for n odd, zero rationally
    k = (i, j, c0, l)
    c2 = out.pairs.get(k, 0) + coeff
    if c2:
        out.pairs[k] = c2
    else:
        del out.pairs[k]


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
    out = BracketElem(n)
    for (i1, j1, a), c1 in x.terms.items():
        for (i2, j2, b), c2 in y.terms.items():
            coeff = c1 * c2
            if (i1, j1) == (i2, j2):
                # [t_i^a w_ij, t_i^b w_ij] = t_i^a [w_ij, t_i^(b-a) w_ij]
                _accumulate_pair(out, i1, j1, a, b - a, coeff, n)
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
            sign = _triple_sign((i1, j1), (i2, j2), n)
            k = (mu[0] - mu[1], mu[2] - mu[1])
            c2t = out.triple.get(k, 0) + sign * coeff
            if c2t:
                out.triple[k] = c2t
            else:
                del out.triple[k]
    return out


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


def facet_map(facet, x, a=0, n=None):
    """Image of a 2-point element under one of the four facet inclusions.

    `x` is a DegNElem or BracketElem supported on the w12 generators of
    the 2-point configuration space; `a` is the velocity degree of the
    doubled point (facets t1=t2 and t2=t3 only -- it is provably
    invisible in bracket images, which the test-suite checks).
    """
    if facet not in _FACETS:
        raise DomainError("unknown facet %r" % (facet,))
    data = _FACET_DATA[facet]
    if isinstance(x, DegNElem):
        nn = x.n if n is None else n
        out = DegNElem(nn)
        for (i, j, e), c in x.terms.items():
            if (i, j) != (1, 2):
                raise DomainError("input must live on 2 points (w12 only)")
            exps = tuple(e * v for v in data["t1"])
            for (u, v, extra) in data["w"]:
                cc = c * a if extra else c
                out = out.add(deg_n_gen(u, v, exps, nn, cc))
        return out
    if isinstance(x, BracketElem):
        nn = x.n if n is None else n
        if x.triple:
            raise DomainError("input must live on 2 points (no triple part)")
        out = BracketElem(nn)
        for (i, j, c0, l), c in x.pairs.items():
            if (i, j) != (1, 2):
                raise DomainError("input must live on 2 points (w12 only)")
            lhs = facet_map(facet, DegNElem(nn, {(1, 2, c0): 1}), a, nn)
            rhs = facet_map(facet, DegNElem(nn, {(1, 2, c0 + l): 1}), a, nn)
            out = out.add(bracket(lhs, rhs, nn).scale(c))
        return out
    raise TypeError("expected a DegNElem or BracketElem")


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
            rel = (facet_map("t2=t3", p, 0, n) - facet_map("t1=t2", p, 0, n))
            rel = rel.drop_edge_pairs()
            if rel.pairs:
                raise AssertionError("w13 pair terms failed to cancel at "
                                     "(%d, %d)" % (alpha, beta))
            out.append(((alpha, beta), rel))
    return out
