"""Named runtime invariant suite behind the `selfcheck` command.

Each check re-derives one of the package's structural guarantees from
scratch at desk scale.  It takes the sweep depth `kmax` as a plain int
and raises CheckFailure(detail) on the first violation.  Check names
live only in CHECKS; the entry point `run(kmax)` reads CHECKS at call
time and puts each name in front of its failure detail.  Checks call
into the modules through their public attributes, so a corrupted table
(or a test fixture monkeypatching one) is caught here.

The three F_k sweeps (skew symmetry, total sum, per-level agreement)
check the D-valued entries f_closed_d and f_levels_d: DClass.expand is
injective, so each identity holds there exactly when it holds for the G
classes, with one term per D instead of four.  The delta expansion
check still compares the G-valued f_closed with its independent 8-term
G expansion, so it also covers DClass.expand.

All three are proved for every k: per-level agreement at eleven fixed
points and skew symmetry at 28 (see their docstrings), and the total sum
follows from skew symmetry.  So their sweeps stop at SWEEP_KMAX, and
kmax deepens only the sweeps below it and the delta expansion.
run(kmax) runs every check in order in the calling process.

The relator oracles span term dicts keyed by monomial.  Normal-form
soundness spans the k_relator instances of a box that holds every orbit
its samples meet, so it shares no rows with orbit_relators, from which
hex_normal_form's shape table is derived.
"""

import random
from itertools import chain

from . import DomainError, classes, hexagon, whitehead
from .classes import (ROMAN_FORMS, DClass, GClass, delta_expansion, e, f_closed, f_closed_d,
                      f_levels_d, g, gstar, w3)
from .hexagon import (basis_change_12_to_13, hex_normal_form, orbit_of, orbit_relators,
                      orbit_structure, r_map, s_map)
from .intlat import (IntMatrix, IntegerRowSpan, cokernel_structure, rank_over_rationals,
                     smith_normal_form)
from .lambda_group import (AlphaCombination, LambdaContext, cover_pullback,
                           lambda_reduce, lambda_structure, relator_matrix, w2_theta)
from .laurent import LaurentPoly1, LaurentPoly2
from .whitehead import DegNElem, bracket, deg_n_gen, facet_map, pair_bracket


SEED = 20210426  # base seed of every sampled check
SAMPLES = 60      # random polynomials per (W0, n) in the lambda oracle check
SWEEP_KMAX = 12  # the F_k identities are proved for every k; their sweeps stop here


class CheckFailure(Exception):
    pass


def _rand_poly1(rng):
    return LaurentPoly1({rng.randrange(-10, 11): rng.randrange(-8, 9)
                         for _ in range(rng.randrange(0, 7))})


def _rand_poly2(rng, lo=-6, hi=6):
    return LaurentPoly2({(rng.randrange(lo, hi + 1), rng.randrange(lo, hi + 1)):
                         rng.randrange(-5, 6)
                         for _ in range(rng.randrange(0, 6))})


def _no_zero_terms(poly):
    return all(c != 0 for c in poly.terms.values())


def check_laurent_algebra(kmax):
    rng = random.Random(SEED)
    for _ in range(40):
        p, q, r = (_rand_poly1(rng) for _ in range(3))
        if (p + q) + r != p + (q + r) or p + q != q + p:
            raise CheckFailure("addition not associative/commutative")
        if not _no_zero_terms(p + q):
            raise CheckFailure("zero coefficient stored")


def check_snf_certificate(kmax):
    rng = random.Random(SEED + 1)
    for _ in range(25):
        rows = rng.randrange(1, 7)
        cols = rng.randrange(1, 7)
        m = IntMatrix(rows, cols,
                      [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)])
        dd, u, v = smith_normal_form(m)
        if u.mul(m).mul(v) != dd:
            raise CheckFailure("U*M*V != D")
        # a square matrix is unimodular iff its rows span Z^n
        for x in (u, v):
            spans = IntegerRowSpan(x.data), IntegerRowSpan(IntMatrix.identity(x.rows).data)
            if any(row[j] <= 0 for span in spans for j, row in span.rows.items()):
                raise CheckFailure("echelon pivot not positive")
            if not spans[0].equals(spans[1]):
                raise CheckFailure("transform not unimodular")
        diag = [x for x in dd.diagonal() if x]
        for a, b in zip(diag, diag[1:]):
            if b % a:
                raise CheckFailure("diagonal not a divisibility chain")
        if rank_over_rationals(m) != len(diag):
            raise CheckFailure("rational rank disagrees with SNF rank")


def check_cokernel_invariance(kmax):
    rng = random.Random(SEED + 2)
    for _ in range(20):
        rows = rng.randrange(2, 6)
        cols = rng.randrange(1, 6)
        data = [[rng.randrange(-6, 7) for _ in range(cols)] for _ in range(rows)]
        base = cokernel_structure(IntMatrix(rows, cols, data))
        i, j = rng.randrange(rows), rng.randrange(rows)
        perm = list(data)
        perm[0], perm[i] = perm[i], perm[0]
        neg = [row[:] for row in data]
        neg[j] = [-x for x in neg[j]]
        added = [row[:] for row in data]
        if i != j:
            added[i] = [a + b for a, b in zip(added[i], added[j])]
        for variant in (perm, neg, added):
            if cokernel_structure(IntMatrix(rows, cols, variant)) != base:
                raise CheckFailure("row operation changed the structure")


def check_lambda_oracle(kmax):
    rng = random.Random(SEED + 3)
    for w0 in range(-6, 7):
        for n in (3, 4, 5, 6):
            ctx = LambdaContext(w0, n)
            m, exps = relator_matrix(ctx, -20, 20)
            if lambda_structure(ctx, (-20, 20)) != cokernel_structure(m):
                raise CheckFailure("structure at W0=%d n=%d" % (w0, n))
            span = IntegerRowSpan(dict(zip(exps, row)) for row in m.data)
            for _ in range(SAMPLES):
                p = _rand_poly1(rng)
                if lambda_reduce(p, ctx).is_zero() != span.contains(p.terms):
                    raise CheckFailure("closed form and SNF membership disagree at "
                                       "W0=%d n=%d on %r" % (w0, n, p))


def check_lambda_additivity(kmax):
    rng = random.Random(SEED + 4)
    for w0 in (-5, -2, 0, 1, 3, 5):
        for n in (3, 4):
            ctx = LambdaContext(w0, n)
            for _ in range(30):
                p, q = _rand_poly1(rng), _rand_poly1(rng)
                if lambda_reduce(p + q, ctx) != lambda_reduce(p, ctx) + lambda_reduce(q, ctx):
                    raise CheckFailure("reduce not additive at W0=%d n=%d" % (w0, n))
                again = lambda_reduce(lambda_reduce(p, ctx).free_part, ctx)
                if again.free_part != lambda_reduce(p, ctx).free_part or again.torsion_bit:
                    raise CheckFailure("reduce not idempotent at W0=%d n=%d" % (w0, n))


def check_theta_span(kmax):
    for w0 in range(-4, 5):
        for n in (3, 4):
            ctx = LambdaContext(w0, n)
            span = IntegerRowSpan(w2_theta(k, ctx).free_part.terms for k in range(-15, 16))
            fold = -(-(w0 - 1) // 2)  # ceil((w0-1)/2)
            fixed = (w0 - 1) // 2 if (w0 - 1) % 2 == 0 else None
            for j in range(fold, 13):
                if j in ctx.killed:
                    continue
                if ctx.has_torsion() and j == fixed:
                    continue
                if not span.contains({j: 1}):
                    raise CheckFailure("t^%d unreachable at W0=%d n=%d" % (j, w0, n))


def check_cover_multiplicativity(kmax):
    rng = random.Random(SEED + 5)
    for _ in range(60):
        x = AlphaCombination({rng.randrange(1, 40): rng.randrange(-5, 6)
                              for _ in range(rng.randrange(0, 5))})
        m1, m2 = rng.randrange(1, 7), rng.randrange(1, 7)
        if cover_pullback(m1 * m2, x) != cover_pullback(m1, cover_pullback(m2, x)):
            raise CheckFailure("m1=%d m2=%d on %r" % (m1, m2, x))
        if cover_pullback(1, x) != x:
            raise CheckFailure("trivial cover moved %r" % (x,))


def check_facet_velocity_independence(kmax):
    rng = random.Random(SEED + 6)
    for n in (3, 4):
        for _ in range(12):
            a, b = rng.randrange(-4, 5), rng.randrange(-4, 5)
            p = pair_bracket(a, b, n)
            for facet in ("t1=t2", "t2=t3"):
                base = facet_map(facet, p).drop_edge_pairs()
                for vel in range(-3, 4):
                    if facet_map(facet, p, vel).drop_edge_pairs() != base:
                        raise CheckFailure("%s image depends on the velocity degree" % facet)


def check_cyclic_identity(kmax):
    for n in (3, 4):
        forms = [bracket(deg_n_gen(1, 2, n=n), deg_n_gen(2, 3, n=n)),
                 bracket(deg_n_gen(2, 3, n=n), deg_n_gen(3, 1, n=n)),
                 bracket(deg_n_gen(3, 1, n=n), deg_n_gen(1, 2, n=n))]
        if forms[0] != forms[1] or forms[1] != forms[2]:
            raise CheckFailure("three rotations disagree at n=%d" % n)


def check_t_action_compatibility(kmax):
    rng = random.Random(SEED + 7)
    pairs = ((1, 2), (1, 3), (2, 3))
    for n in (3, 4):
        for _ in range(25):
            def rand_elem():
                el = DegNElem(n)
                for _ in range(rng.randrange(1, 4)):
                    i, j = pairs[rng.randrange(3)]
                    el = el.add(deg_n_gen(i, j, (rng.randrange(-3, 4), 0, 0), n,
                                          rng.randrange(-3, 4)))
                return el
            x, y = rand_elem(), rand_elem()
            mu = (rng.randrange(-3, 4), rng.randrange(-3, 4), rng.randrange(-3, 4))
            if bracket(x.act(mu), y.act(mu)) != bracket(x, y).act(mu):
                raise CheckFailure("mu=%r" % (mu,))


def check_relator_family_equivalence(kmax):
    win = (-4, 4)
    for n in (3, 4):
        derived = {}
        hard = {}
        for (ab, rel) in whitehead.derive_R_relators(n, win):
            rep = orbit_of(*ab).rep
            poly = basis_change_12_to_13(rel.triple_poly())
            if not poly.is_zero():
                derived.setdefault(rep, []).append(poly)
            kr = hexagon.k_relator(ab[0], ab[1], n)
            if not kr.is_zero():
                hard.setdefault(rep, []).append(kr)
        if set(derived) != set(hard):
            raise CheckFailure("orbit sets differ at n=%d" % n)
        for rep in derived:
            spans = [IntegerRowSpan(poly.terms for poly in fam)
                     for fam in (derived[rep], hard[rep])]
            if not spans[0].equals(spans[1]):
                raise CheckFailure("spans differ on orbit %r at n=%d" % (rep, n))


def check_orbit_partition(kmax):
    rng = random.Random(SEED + 8)
    for _ in range(200):
        v = (rng.randrange(-30, 31), rng.randrange(-30, 31))
        w = v
        for _ in range(6):
            w = r_map(*w)
        if w != v:
            raise CheckFailure("r^6 is not the identity")
        if s_map(*s_map(*v)) != v:
            raise CheckFailure("s^2 is not the identity")
        # s r s = r^-1 iff r s r s = 1
        if r_map(*s_map(*r_map(*s_map(*v)))) != v:
            raise CheckFailure("s r s != r^-1")
    for _ in range(60):
        a = (rng.randrange(-8, 9), rng.randrange(-8, 9))
        b = (rng.randrange(-8, 9), rng.randrange(-8, 9))
        oa, ob = orbit_of(*a), orbit_of(*b)
        ea, eb = set(oa.elements), set(ob.elements)
        if ea & eb and ea != eb:
            raise CheckFailure("orbits neither equal nor disjoint")
        for v, els in ((a, ea), (b, eb)):
            if (v not in els or {r_map(*u) for u in els} != els
                    or {s_map(*u) for u in els} != els):
                raise CheckFailure("orbit of %r misses it or is not closed under r and s"
                                   % (v,))
        want = "origin" if a == (0, 0) else ("six" if hexagon.on_degenerate_line(*a) else "twelve")
        if oa.otype != want:
            raise CheckFailure("otype of %r is %s, expected %s" % (a, oa.otype, want))


def check_relator_orbit_locality(kmax):
    for n in (3, 4):
        for p in range(-10, 11):
            for q in range(-10, 11):
                allowed = set(orbit_of(p, q).elements)
                for mono in hexagon.k_relator(p, q, n).terms:
                    if mono not in allowed:
                        raise CheckFailure("relator at (%d,%d) touches %r outside its orbit"
                                           % (p, q, mono))


def check_normal_form_soundness(kmax):
    # Every monomial of x, y and of a perturbing k(p, q), p and q in [-4, 4],
    # has max(|a|, |b|, |a-b|) <= 8.  An orbit's coordinates are +-a, +-b and
    # +-(a-b), so every orbit that x - y meets lies inside [-8, 8]^2, and each
    # relator lies in one orbit, so the box's relators span the full relator
    # family of every such orbit.
    rng = random.Random(SEED + 9)
    for n in (3, 4):
        span = IntegerRowSpan(hexagon.k_relator(p, q, n).terms
                              for p in range(-8, 9) for q in range(-8, 9))
        for _ in range(40):
            x, y = _rand_poly2(rng, -4, 4), _rand_poly2(rng, -4, 4)
            if rng.randrange(2):
                # make agreement likely: perturb x by a relator combination
                y = LaurentPoly2.sum([x] + [
                    hexagon.k_relator(rng.randrange(-4, 5), rng.randrange(-4, 5), n)
                    .scale(rng.randrange(-2, 3)) for _ in range(rng.randrange(0, 3))])
            same_nf = hex_normal_form(x, n) == hex_normal_form(y, n)
            if same_nf != span.contains((x - y).terms):
                raise CheckFailure("normal-form equality disagrees with span membership "
                                   "(n=%d)" % n)


def check_torsion_factors(kmax):
    # orbit_of is canonical, so one Smith form per distinct orbit of the grid
    orbits = sorted({orbit_of(a, b) for a in range(-5, 6) for b in range(-5, 6)})
    for n in (3, 4):
        for orbit in orbits:
            st = orbit_structure(orbit, n)
            if st != cokernel_structure(orbit_relators(orbit, n)):
                raise CheckFailure("table != SNF at orbit of (%d,%d) n=%d" % (orbit.rep + (n,)))
            if any(t != 2 for t in st.torsion):
                raise CheckFailure("invariant factor %r at orbit of (%d,%d)"
                                   % ((st.torsion,) + orbit.rep))


def _skew_region(k, p, q):
    # the region of skew symmetry's lemma that holds (k, p, q), 1 <= p <= q
    line = ("q = p" if q == p else "p < q < 2p" if q < 2 * p
            else "q = 2p" if q == 2 * p else "q > 2p")
    return line, "p + q >= k" if p + q >= k else "p + q < k"


# affinely independent points of each region of check_skew_symmetry's lemma
_SKEW_RAYS = ("q = p", "q = 2p")
_SKEW_POINTS = (
    (("q = p", "p + q < k"), ((20, 1, 1), (20, 2, 2), (21, 1, 1))),
    (("q = p", "p + q >= k"), ((20, 10, 10), (20, 11, 11), (21, 11, 11))),
    (("p < q < 2p", "p + q < k"), ((20, 2, 3), (20, 3, 4), (20, 3, 5), (21, 2, 3))),
    (("p < q < 2p", "p + q >= k"), ((20, 7, 13), (20, 8, 12), (20, 8, 13), (21, 8, 13))),
    (("q = 2p", "p + q < k"), ((20, 1, 2), (20, 2, 4), (21, 1, 2))),
    (("q = 2p", "p + q >= k"), ((20, 7, 14), (20, 8, 16), (21, 7, 14))),
    (("q > 2p", "p + q < k"), ((20, 1, 3), (20, 1, 4), (20, 2, 5), (21, 1, 3))),
    (("q > 2p", "p + q >= k"), ((20, 1, 19), (20, 2, 18), (20, 2, 19), (21, 1, 20))),
)


def check_skew_symmetry(kmax):
    """F_k(p, q) + F_k(q, p) = 0 in the D basis, for every k.

    Lemma.  _f_closed(k, p, q, c) returns D pairs whose raw keys are
    linear forms in (p, q) and whose weights are affine in (k, p, q) on
    each chamber, p + q < k and p + q >= k; swapping p and q keeps the
    chamber.  DClass puts each key in canonical form by the signs of
    x + y and x - y, and drops keys with x + y = 0.  For the raw keys of
    F(p, q) + F(q, p) with 1 <= p <= q, those signs change only on the
    lines q = p and q = 2p, and two canonical keys coincide only on
    those lines too.  That gives 8 regions: the cones p < q < 2p and
    q > 2p and the rays q = p and q = 2p, each in both chambers.  On
    each, F(p, q) + F(q, p) = sum_j a_j D(M_j), where the M_j are fixed
    linear keys, canonical, distinct and kept at every point of the
    region, and the a_j are affine.  So where the sum vanishes, every a_j
    does, and zeros at 4 affinely independent points of a region (3 on a
    ray) make every a_j vanish on all of it: the identity holds for
    every k.

    The check verifies that each point of _SKEW_POINTS lies in its
    region with 1 <= p <= q < k and that each region's points are
    affinely independent, then the identity there and at every (k, p, q)
    with k <= min(kmax, SWEEP_KMAX).
    """
    for region, points in _SKEW_POINTS:
        diffs = [[a - b for a, b in zip(pt, points[0])] for pt in points[1:]]
        dim = 2 if region[0] in _SKEW_RAYS else 3
        if len(diffs) != dim or rank_over_rationals(IntMatrix(dim, 3, diffs)) != dim:
            raise CheckFailure("points of region %s, %s not affinely independent" % region)
        for k, p, q in points:
            if not 1 <= p <= q < k or _skew_region(k, p, q) != region:
                raise CheckFailure("k=%d p=%d q=%d outside region %s, %s"
                                   % ((k, p, q) + region))
    # the identity is symmetric in (p, q), so each unordered pair is taken once
    sweep = ((k, p, q) for k in range(2, min(kmax, SWEEP_KMAX) + 1)
             for p in range(1, k) for q in range(p, k))
    for k, p, q in chain((pt for _, points in _SKEW_POINTS for pt in points), sweep):
        if not (f_closed_d(k, p, q) + f_closed_d(k, q, p)).is_zero():
            raise CheckFailure("F_%d(%d,%d) + F_%d(%d,%d) != 0" % (k, p, q, k, q, p))


def check_total_sum_vanishes(kmax):
    """The entries of F_k sum to zero, for every k.

    Corollary of check_skew_symmetry's lemma.  The sum over all (p, q) is
    sum_{p < q} (F(p, q) + F(q, p)) + sum_p F(p, p).  Skew symmetry makes
    each bracket zero and gives 2 F(p, p) = 0, which over Z forces
    F(p, p) = 0.  So the total sum vanishes wherever skew symmetry
    holds, which is every k; the sweep stops at min(kmax, SWEEP_KMAX).
    """
    for k in range(2, min(kmax, SWEEP_KMAX) + 1):
        total = DClass.sum(f_closed_d(k, p, q) for p in range(1, k) for q in range(1, k))
        if not total.is_zero():
            raise CheckFailure("sum of F_%d is %r" % (k, total.expand()))


# affinely independent points of each region of _level_form's comparisons,
# by the sign of p + q - k
_LEVEL_POINTS = (
    (-1, ((20, 3, 7), (21, 3, 7), (20, 4, 7), (20, 3, 9))),
    (0, ((20, 8, 12), (21, 8, 13), (21, 9, 12))),
    (1, ((20, 13, 11), (21, 13, 11), (20, 15, 11), (20, 13, 16))),
)


def check_per_level_agreement(kmax):
    """The levels of F_k(p, q) sum to f_closed_d(k, p, q), for every k.

    Lemma.  Level L's class is R_X = DClass(_roman(X, p, q, 1)), X being
    _level_form(k, L, p, q), and f_closed_d is DClass of the sum over X of
    _roman(X, p, q, w_X), where _roman is linear in its last argument.  So
    the level sum minus the closed form is sum_X (count_X - w_X) R_X, with
    count_X the number of levels in case X.  _level_form compares L with
    k - p and with q, and p + q with k.  The regions are p + q < k,
    p + q = k and p + q > k, each with 1 <= p, q <= k - 1; on each, the
    endpoints of every case's range of L keep their order, so count_X is
    affine in (k, p, q) there, as is each weight of _f_closed.  At a point
    where the five R_X are independent and the sum equals the closed form,
    every count equals its weight.  If that holds at 4 affinely independent
    points of a region (3 on the plane p + q = k), the affine
    count_X - w_X vanish on all of it: the identity holds for every k.

    The check verifies that lemma's conditions at _LEVEL_POINTS, then the
    identity there and at every (k, p, q) with k <= min(kmax, SWEEP_KMAX).
    """
    for sign, points in _LEVEL_POINTS:
        diffs = [[a - b for a, b in zip(pt, points[0])] for pt in points[1:]]
        if rank_over_rationals(IntMatrix(len(diffs), 3, diffs)) != len(diffs):
            raise CheckFailure("points of region %+d not affinely independent" % sign)
        for k, p, q in points:
            if not (1 <= p < k and 1 <= q < k) or (p + q > k) - (p + q < k) != sign:
                raise CheckFailure("k=%d p=%d q=%d outside region %+d" % (k, p, q, sign))
            romans = IntegerRowSpan(DClass(classes._roman(form, p, q, 1)).terms
                                    for form in ROMAN_FORMS)
            if len(romans.rows) != len(ROMAN_FORMS):
                raise CheckFailure("k=%d p=%d q=%d: roman forms dependent" % (k, p, q))
    sweep = ((k, p, q) for k in range(2, min(kmax, SWEEP_KMAX) + 1)
             for p in range(1, k) for q in range(1, k))
    for k, p, q in chain((pt for _, points in _LEVEL_POINTS for pt in points), sweep):
        if DClass.sum(f_levels_d(k, p, q)) != f_closed_d(k, p, q):
            raise CheckFailure("k=%d p=%d q=%d" % (k, p, q))


def check_symmetric_g_compatibility(kmax):
    # the G* form of the elementary class differs from the G form by the
    # hexagon combination at (-q, p), so the two agree in the quotient
    for p in range(-6, 7):
        for q in range(-6, 7):
            diff = e(p, q) - (gstar(-q, p).neg() + gstar(p, -q))
            if not hex_normal_form(w3(diff), 3).is_zero():
                raise CheckFailure("(p,q)=(%d,%d)" % (p, q))


def check_delta_expansion(kmax):
    for k in range(3, kmax + 1):
        if f_closed(k, k - 1, k - 2) != delta_expansion(k):
            raise CheckFailure("delta_%d disagrees with its 8-term expansion" % k)


def check_w3_hexagon_vanishing(kmax):
    rng = random.Random(SEED + 10)
    for n in (3, 4):
        sgn = 1 if n % 2 else -1
        for _ in range(100):
            p, q = rng.randrange(-10, 11), rng.randrange(-10, 11)
            comb = (g(p, q) - g(q, q - p)
                    + (g(p, p - q) - g(q, p)).scale(sgn))
            if not hex_normal_form(w3(comb), n).is_zero():
                raise CheckFailure("(p,q)=(%d,%d) n=%d" % (p, q, n))


def check_basis_change_consistency(kmax):
    rng = random.Random(SEED + 11)
    eps = None
    for _ in range(100):
        p, q = rng.randrange(-12, 13), rng.randrange(-12, 13)
        lhs = basis_change_12_to_13(LaurentPoly2.monomial(p - q, -q))
        rhs = w3(g(p, q))
        if lhs == rhs:
            ratio = 1
        elif lhs == rhs.neg():
            ratio = -1
        else:
            raise CheckFailure("value differs beyond sign at (%d,%d)" % (p, q))
        if eps is None:
            eps = ratio
        elif ratio != eps:
            raise CheckFailure("sign not constant across (p,q)")
    # an involution, so one call serves both chart directions
    for _ in range(60):
        p2 = _rand_poly2(rng)
        once = basis_change_12_to_13(p2)
        if basis_change_12_to_13(once) != p2:
            raise CheckFailure("chart change is not an involution")
        if not _no_zero_terms(once):
            raise CheckFailure("zero coefficient stored by the chart change")


def check_json_round_trip(kmax):
    rng = random.Random(SEED + 12)
    for _ in range(30):
        p1 = _rand_poly1(rng)
        if LaurentPoly1.from_json(p1.to_json()) != p1:
            raise CheckFailure("one-variable polynomial")
        p2 = _rand_poly2(rng)
        if LaurentPoly2.from_json(p2.to_json()) != p2:
            raise CheckFailure("two-variable polynomial")
        gc = GClass({(rng.randrange(-9, 10), rng.randrange(-9, 10)):
                     rng.randrange(-10 ** 12, 10 ** 12)
                     for _ in range(rng.randrange(0, 5))})
        if GClass.from_json(gc.to_json()) != gc:
            raise CheckFailure("G-class")


CHECKS = (
    ("laurent algebra", check_laurent_algebra),
    ("snf certificate", check_snf_certificate),
    ("cokernel invariance", check_cokernel_invariance),
    ("lambda oracle equivalence", check_lambda_oracle),
    ("lambda additivity", check_lambda_additivity),
    ("theta span", check_theta_span),
    ("cover multiplicativity", check_cover_multiplicativity),
    ("facet velocity independence", check_facet_velocity_independence),
    ("cyclic identity", check_cyclic_identity),
    ("t-action compatibility", check_t_action_compatibility),
    ("orbit partition", check_orbit_partition),
    # locality is a precondition for every check that consumes the relator
    # table, so it runs before them and is the first to flag a corrupt table
    ("relator orbit-locality", check_relator_orbit_locality),
    ("relator family equivalence", check_relator_family_equivalence),
    ("normal-form soundness", check_normal_form_soundness),
    ("torsion factors", check_torsion_factors),
    ("skew symmetry", check_skew_symmetry),
    ("total sum vanishes", check_total_sum_vanishes),
    ("per-level agreement", check_per_level_agreement),
    ("symmetric-g compatibility", check_symmetric_g_compatibility),
    ("delta expansion", check_delta_expansion),
    ("w3 hexagon vanishing", check_w3_hexagon_vanishing),
    ("basis-change consistency", check_basis_change_consistency),
    ("json round trip", check_json_round_trip),
)


def run(kmax):
    """Run every check in CHECKS, in order; returns (all_passed, results).

    results is a list of (name, passed, detail), one per check in order,
    with detail empty on success and "<name>: ..." on failure.
    """
    if kmax < 3:
        raise DomainError("kmax must be >= 3 (the delta_k sweep starts at k = 3)")
    results = []
    for name, fn in CHECKS:
        try:
            fn(kmax)
        except CheckFailure as exc:
            results.append((name, False, "%s: %s" % (name, exc)))
        except Exception as exc:  # a crashed check is a failed check
            results.append((name, False, "%s: crashed: %r" % (name, exc)))
        else:
            results.append((name, True, ""))
    return all(ok for _, ok, _ in results), results
