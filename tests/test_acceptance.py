"""Acceptance suite: one test per release criterion, each exact.

Every test prints a PASS line with its elapsed time; run with
`pytest -s tests/test_acceptance.py` to see the report.
"""

import random
import time

from barbell.classes import (GClass, delta, delta_expansion, f_closed, f_levels,
                             g, independence_rank, w3)
from barbell.hexagon import (basis_change_12_to_13, hex_normal_form, k_relator, orbit_of,
                             orbit_structure)
from barbell.intlat import IntegerRowSpan, QuotientStructure
from barbell.lambda_group import (AlphaCombination, LambdaContext, cover_pullback,
                                  lambda_reduce, relator_matrix, w2_alpha, w2_theta)
from barbell.laurent import LaurentPoly1, LaurentPoly2
from barbell.whitehead import bracket, deg_n_gen, derive_R_relators, facet_map, pair_bracket


def _report(num, title, started):
    print("PASS criterion %2d (%s) [%.2fs]" % (num, title, time.time() - started))


def test_criterion_01_skew_symmetry():
    t0 = time.time()
    for k in range(2, 31):
        for p in range(1, k):
            for q in range(1, k):
                assert (f_closed(k, p, q) + f_closed(k, q, p)).is_zero(), (k, p, q)
    _report(1, "skew-symmetry of F_k, k in [2,30], exact", t0)


def test_criterion_02_total_sum_vanishes():
    t0 = time.time()
    for k in range(2, 31):
        total = GClass()
        for p in range(1, k):
            for q in range(1, k):
                total = total + f_closed(k, p, q)
        assert total.is_zero(), k
    _report(2, "sum of F_k entries is zero, k in [2,30], exact", t0)


def test_criterion_03_per_level_consistency():
    t0 = time.time()
    for k in range(2, 21):
        for p in range(1, k):
            for q in range(1, k):
                acc = GClass()
                for level in f_levels(k, p, q):
                    acc = acc + level
                assert acc == f_closed(k, p, q), (k, p, q)
    _report(3, "per-level sum equals closed form, k in [2,20], exact", t0)


def test_criterion_04_delta_expansion():
    t0 = time.time()
    for k in range(3, 31):
        assert f_closed(k, k - 1, k - 2) == delta_expansion(k), k
    _report(4, "delta_k equals its 8-term expansion, k in [3,30], exact", t0)


def test_criterion_05_linear_independence():
    t0 = time.time()
    deltas = [delta(k) for k in range(4, 41)]
    rank, _, rows = independence_rank(deltas, 3)
    assert rank == 37, rank
    assert len(rows) == 37
    _report(5, "rank of W3(delta_4..delta_40) is 37, exact rational rank", t0)


def test_criterion_06_delta3_vanishes():
    t0 = time.time()
    assert hex_normal_form(w3(delta(3)), 3).is_zero()
    _report(6, "W3(delta_3) normal form is zero at n=3, exact", t0)


def test_criterion_07_hexagon_structures():
    t0 = time.time()
    assert orbit_structure(orbit_of(0, 0), 3) == QuotientStructure(1)
    assert orbit_structure(orbit_of(0, 0), 4) == QuotientStructure(1)
    assert orbit_structure(orbit_of(3, 1), 3) == QuotientStructure(7)
    assert orbit_structure(orbit_of(3, 1), 4) == QuotientStructure(7)
    assert orbit_structure(orbit_of(0, 1), 3) == QuotientStructure(4)
    assert orbit_structure(orbit_of(0, 1), 4) == QuotientStructure(3, (2,))
    assert orbit_structure(orbit_of(1, 2), 3) == QuotientStructure(3, (2,))
    assert orbit_structure(orbit_of(1, 2), 4) == QuotientStructure(4)
    _report(7, "orbit structures match the expected isomorphism types, exact", t0)


def test_criterion_08_lambda_oracle():
    t0 = time.time()
    rng = random.Random(20210426)
    for w0 in range(-6, 7):
        for n in (3, 4, 5, 6):
            ctx = LambdaContext(w0, n)
            m, exps = relator_matrix(ctx, -20, 20)
            span = IntegerRowSpan(m.data)
            idx = {k: i for i, k in enumerate(exps)}
            for _ in range(500):
                p = LaurentPoly1({rng.randrange(-10, 11): rng.randrange(-9, 10)
                                  for _ in range(rng.randrange(0, 7))})
                vec = {idx[k]: c for k, c in p.terms.items()}
                assert lambda_reduce(p, ctx).is_zero() == span.contains(vec), (w0, n, p)
    _report(8, "closed-form reduction agrees with the SNF oracle, "
               "W0 in [-6,6], n in {3..6}, 500 samples each, exact", t0)


def test_criterion_09_w2_generator_identities():
    t0 = time.time()
    ctx = LambdaContext(1, 3)
    for i in range(1, 51):
        assert w2_alpha(i, ctx) == w2_theta(i + 1, ctx) - w2_theta(i, ctx), i
    assert (lambda_reduce(LaurentPoly1({2: 1, 0: -1}), ctx).free_part
            == LaurentPoly1({2: 1}))
    assert (lambda_reduce(LaurentPoly1({3: 1, 1: -1}), ctx).free_part
            == LaurentPoly1({3: 1}))
    _report(9, "alpha/theta identity for i in [1,50] and the displayed "
               "t^2, t^3 reductions, exact", t0)


def test_criterion_10_covering_endomorphism():
    t0 = time.time()
    for m in range(1, 9):
        for i in range(1, 65):
            out = cover_pullback(m, AlphaCombination({i: 1}))
            if i % m == 0:
                assert out == AlphaCombination({i // m: m}), (m, i)
            else:
                assert out.is_zero(), (m, i)
    _report(10, "cover pullback divide/annihilate rule, m<=8, i<=64, exact", t0)


def _doubling_display(facet, a, b, n):
    sgn = 1 if n % 2 else -1
    out = {}
    if facet == "t1=t2":
        out[(a - b, -b)] = out.get((a - b, -b), 0) - 1
        out[(b - a, -a)] = out.get((b - a, -a), 0) + sgn
    else:
        out[(a, a - b)] = out.get((a, a - b), 0) - 1
        out[(b, b - a)] = out.get((b, b - a), 0) + sgn
    disp = bracket(deg_n_gen(1, 3, (a, 0, 0), n), deg_n_gen(1, 3, (b, 0, 0), n))
    for key, c in out.items():
        if c:
            disp.triple[key] = disp.triple.get(key, 0) + c
    disp.triple = {k: c for k, c in disp.triple.items() if c}
    return disp


def test_criterion_11_facet_computations():
    t0 = time.time()
    for n in (3, 4):
        for a in range(-3, 4):
            for b in range(-3, 4):
                p = pair_bracket(a, b, n)
                img = facet_map("t1=0", p)
                assert img == bracket(deg_n_gen(2, 3, (0, a, 0), n),
                                      deg_n_gen(2, 3, (0, b, 0), n))
                assert facet_map("t3=1", p) == p
                for facet in ("t1=t2", "t2=t3"):
                    display = _doubling_display(facet, a, b, n)
                    for vel in range(-3, 4):
                        got = facet_map(facet, p, vel).drop_edge_pairs()
                        assert got == display, (facet, a, b, vel, n)
    # derived relators span-match the hard-coded family per orbit
    for n in (3, 4):
        derived, hard = {}, {}
        for (ab, rel) in derive_R_relators(n, (-8, 8)):
            poly = basis_change_12_to_13(rel.triple_poly())
            if not poly.is_zero():
                derived.setdefault(orbit_of(*ab).rep, []).append(poly)
            kr = k_relator(ab[0], ab[1], n)
            if not kr.is_zero():
                hard.setdefault(orbit_of(*ab).rep, []).append(kr)
        assert set(derived) == set(hard)
        for rep, polys in derived.items():
            orbit = orbit_of(*rep)
            idx = {v: i for i, v in enumerate(orbit.elements)}
            spans = [IntegerRowSpan({idx[mono]: c for mono, c in poly.terms.items()}
                                    for poly in fam) for fam in (polys, hard[rep])]
            assert spans[0].equals(spans[1]), (n, rep)
    _report(11, "facet displays with velocity terms cancelling and "
                "derived-vs-hardcoded relator spans on [-8,8]^2, exact", t0)


def test_criterion_12_basis_change_sign_coherence():
    t0 = time.time()
    rng = random.Random(31337)
    eps = None
    for _ in range(100):
        p, q = rng.randrange(-15, 16), rng.randrange(-15, 16)
        lhs = basis_change_12_to_13(LaurentPoly2.monomial(p - q, -q))
        rhs = w3(g(p, q))
        if lhs == rhs:
            ratio = 1
        else:
            assert lhs == rhs.neg(), (p, q)
            ratio = -1
        if eps is None:
            eps = ratio
        assert ratio == eps, "sign varies with (p,q)"
    _report(12, "one global sign relates the chart change to the invariant, "
                "100 samples at n=3, exact", t0)
