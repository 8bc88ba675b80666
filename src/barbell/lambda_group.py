"""W2 target group for circles.

For circles the invariant lands in a quotient of Z[t^{+-1}] by the
relations  t^k + (-1)^n t^(W0-1-k) = 0,  t^0 = 0,  t^-1 = 0,  where W0
is the degree of the underlying component and n >= 3 is the sphere
dimension.  After killing the four forced exponents {-1, 0, W0, W0-1}
and folding every exponent below (W0-1)/2 upwards, the survivors

    G_W0 = { k : 2k >= W0-1, k not in {-1, 0, W0, W0-1} }

form a basis; when n is even and the fold line 2k = W0-1 hits an
integer exponent that was not killed, that monomial carries a single
2-torsion bit instead of a free coordinate.

The arc target Z[t^{+-1}] / <t^0> has no code here: its normal form
only drops the t^0 term, and no command asks for it.
"""

from collections import namedtuple

from . import DomainError, check_sphere_dimension
from .intlat import IntMatrix, QuotientStructure
from .laurent import LaurentPoly1, Terms, term_items


class LambdaContext(namedtuple("LambdaContext", "w0 n")):
    """Parameters (W0, n) selecting one of the quotient groups."""

    __slots__ = ()

    def __new__(cls, w0, n):
        check_sphere_dimension(n)
        return super().__new__(cls, w0, n)

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # _replace runs the check too

    @property
    def killed(self):
        return {-1, 0, self.w0, self.w0 - 1}

    def has_torsion(self):
        # fold line hits an integer exponent that survives the kill step;
        # equivalent to the "n even, W0 odd, |W0| > 2" exception
        if self.n % 2:
            return False
        if (self.w0 - 1) % 2:
            return False
        return (self.w0 - 1) // 2 not in self.killed


class LambdaElement:
    """Normal-form element: free part on G_W0 plus an optional torsion bit."""

    __slots__ = ("ctx", "free_part", "torsion_bit")

    def __init__(self, ctx, free_part, torsion_bit=0):
        self.ctx = ctx
        self.free_part = free_part
        self.torsion_bit = torsion_bit & 1

    def is_zero(self):
        return self.free_part.is_zero() and not self.torsion_bit

    def add(self, other):
        if self.ctx != other.ctx:
            raise ValueError("mismatched contexts")
        free = self.free_part + other.free_part
        bit = (self.torsion_bit + other.torsion_bit) & 1
        # merging two normal forms can only cancel, never leave the basis
        return LambdaElement(self.ctx, free, bit)

    __add__ = add

    def __sub__(self, other):
        return self.add(LambdaElement(other.ctx, -other.free_part, other.torsion_bit))

    def __eq__(self, other):
        return (isinstance(other, LambdaElement) and self.ctx == other.ctx
                and self.free_part == other.free_part
                and self.torsion_bit == other.torsion_bit)

    def __repr__(self):
        if self.is_zero():
            return "0"
        s = repr(self.free_part) if not self.free_part.is_zero() else ""
        if self.torsion_bit:
            f = (self.ctx.w0 - 1) // 2
            s += ("+" if s else "") + "[t^%d mod 2]" % f
        return s


def lambda_reduce(p, ctx):
    """Reduce an integer Laurent polynomial to normal form in the quotient.

    Kills the exponents {-1, 0, W0, W0-1}, folds every exponent k with
    2k < W0-1 onto W0-1-k with the coefficient multiplied by -(-1)^n,
    and finally resolves the fold-line exponent: for n odd it is an
    ordinary free generator, for n even its coefficient survives only
    mod 2 as the torsion bit.
    """
    w0, n = ctx.w0, ctx.n
    fold_sign = 1 if n % 2 else -1
    killed = ctx.killed
    free = LaurentPoly1((w0 - 1 - k, fold_sign * c) if 2 * k < w0 - 1 else (k, c)
                        for k, c in p.terms.items() if k not in killed)
    bit = free.terms.pop((w0 - 1) // 2, 0) if ctx.has_torsion() else 0
    return LambdaElement(ctx, free, bit)


def relator_matrix(ctx, lo, hi):
    """All defining relations supported on the exponent window [lo, hi].

    Returns (matrix, exponents); matrix rows are relator coefficient
    vectors over the monomial basis t^lo .. t^hi.  The brute-force oracle
    that lambda_reduce and lambda_structure are checked against.
    """
    if lo > hi:
        raise DomainError("empty window")
    exps = list(range(lo, hi + 1))
    idx = {k: i for i, k in enumerate(exps)}
    sgn = 1 if ctx.n % 2 == 0 else -1  # coefficient of t^(W0-1-k)
    rows = []
    for k in (0, -1):
        if k in idx:
            row = [0] * len(exps)
            row[idx[k]] = 1
            rows.append(row)
    for k in exps:
        j = ctx.w0 - 1 - k
        if j < k or j not in idx:
            continue
        row = [0] * len(exps)
        row[idx[k]] += 1
        row[idx[j]] += sgn
        if any(row):
            rows.append(row)
    return IntMatrix(len(rows), len(exps), rows), exps


def lambda_structure(ctx, window):
    """Structure of the window-restricted quotient group, in closed form.

    Each t^k reduces to 0, +-t^m with m = max(k, W0-1-k), or the torsion
    bit.  The window holds the fold point (W0-1)/2, so the images m fill
    [c, top], c = ceil((W0-1)/2), top = max(hi, W0-1-lo); the killed set
    is closed under k <-> W0-1-k, so the free generators are the m there
    that are not killed, less the fold point when it is the torsion bit.
    """
    lo, hi = window
    need = abs(ctx.w0) + 2
    if lo > -need or hi < need:
        raise DomainError("window too small: need at least [-%d, %d]" % (need, need))
    c, top = -(-(ctx.w0 - 1) // 2), max(hi, ctx.w0 - 1 - lo)
    bit = int(ctx.has_torsion())
    free = top - c + 1 - sum(c <= k <= top for k in ctx.killed) - bit
    return QuotientStructure(free, (2,) * bit)


def w2_theta(k, ctx):
    """Value of the k-th half-ball resolution family: t^k - t^(k-1).

    The k-th strand-connecting family gamma_k takes the same value.
    """
    return lambda_reduce(LaurentPoly1({k: 1, k - 1: -1}), ctx)


def w2_alpha(i, ctx):
    """Value of the i-th torus generator on the degree-one component.

    Defined through the identity alpha_i = theta_(i+1) - theta_i, whose
    reduced form is t^(i+1) - 2 t^i + t^(i-1).
    """
    if ctx.w0 != 1:
        raise DomainError("alpha generators live on the W0 = 1 component")
    return lambda_reduce(LaurentPoly1({i + 1: 1, i: -2, i - 1: 1}), ctx)


class AlphaCombination(Terms):
    """Integer combination of the alpha generators, indices >= 1."""

    __slots__ = ()
    FIELDS = ("i",)
    TERM = "%+d*a%d"

    def __init__(self, terms=None):
        terms = list(term_items(terms))
        if any(i < 1 for i, _ in terms):
            raise DomainError("alpha indices are positive")
        Terms.__init__(self, terms)


def cover_pullback(m, x):
    """Pull back along the m-fold cyclic cover.

    Each alpha_i maps to m * alpha_(i/m) when m divides i and dies
    otherwise, extended linearly.
    """
    if m < 1:
        raise DomainError("cover degree must be >= 1")
    return AlphaCombination((i // m, m * c) for i, c in x.terms.items() if i % m == 0)


def cover_kernel_iterate(x, m, depth):
    """True iff `depth` pullbacks along the m-fold cover annihilate x."""
    if depth < 1:
        raise DomainError("depth must be >= 1")
    cur = x
    for _ in range(depth):
        nxt = cover_pullback(m, cur)
        if nxt == cur:
            break  # a fixed point (0, or anything when m = 1) stays put
        cur = nxt
    return cur.is_zero()
