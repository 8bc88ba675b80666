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

Where os.fork exists, run(kmax) forks once: per-level agreement, the
largest sweep, runs in the child while the caller runs the other checks,
and the results come back in CHECKS order.  The child touches no stdio:
it writes its one result as JSON to a pipe and leaves through os._exit,
so it never returns into the caller's code or flushes a buffer it
inherited.  A child that dies without a result is a crashed check, and
the caller reaps the child before run returns or raises.  Only the entry
whose function is check_per_level_agreement itself is forked; a wrapped
entry (a tracer's span, a test's probe) runs in the caller, where what
it records stays visible.

The relator oracles span term dicts keyed by monomial.  Normal-form
soundness spans the k_relator instances of a box that holds every orbit
its samples meet, so it shares no rows with orbit_relators, from which
hex_normal_form's shape table is derived.
"""

import json
import os
import random
import signal

from . import DomainError, hexagon, whitehead
from .classes import (DClass, GClass, delta_expansion, e, f_closed, f_closed_d, f_levels_d, g,
                      gstar, w3)
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
        if p.bar().bar() != p:
            raise CheckFailure("bar is not an involution")
        if not (_no_zero_terms(p + q) and _no_zero_terms(p.bar())):
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


def check_skew_symmetry(kmax):
    for k in range(2, kmax + 1):
        for p in range(1, k):
            for q in range(p, k):  # the identity is symmetric in (p, q)
                if not (f_closed_d(k, p, q) + f_closed_d(k, q, p)).is_zero():
                    raise CheckFailure("F_%d(%d,%d) + F_%d(%d,%d) != 0"
                                       % (k, p, q, k, q, p))


def check_total_sum_vanishes(kmax):
    for k in range(2, kmax + 1):
        total = DClass.sum(f_closed_d(k, p, q) for p in range(1, k) for q in range(1, k))
        if not total.is_zero():
            raise CheckFailure("sum of F_%d is %r" % (k, total.expand()))


def check_per_level_agreement(kmax):
    for k in range(2, kmax + 1):
        for p in range(1, k):
            for q in range(1, k):
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


def _run_checks(entries, kmax):
    """Run each (name, fn) entry in order; returns its (name, passed, detail)."""
    results = []
    for name, fn in entries:
        try:
            fn(kmax)
        except CheckFailure as exc:
            results.append((name, False, "%s: %s" % (name, exc)))
        except Exception as exc:  # a crashed check is a failed check
            results.append((name, False, "%s: crashed: %r" % (name, exc)))
        else:
            results.append((name, True, ""))
    return results


def _run_beside(entry, others, kmax):
    """Run entry in a forked child while this process runs others; returns
    (entry's result, others' results), the child reaped either way."""
    r, w = os.pipe()
    with open(r, "rb") as reader, open(w, "wb") as writer:
        pid = os.fork()
        if not pid:  # the child
            code = 1
            try:
                reader.close()
                writer.write(json.dumps(_run_checks([entry], kmax)[0]).encode())
                writer.close()
                code = 0
            finally:
                os._exit(code)
        try:
            writer.close()
            results = _run_checks(others, kmax)
            data = reader.read()
            status = os.waitpid(pid, 0)[1]
            pid = 0
        finally:
            if pid:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code == 0 and data:  # a check may itself call os._exit(0) before the write
        return tuple(json.loads(data)), results
    how = "killed by signal %d" % -code if code < 0 else "exit status %d" % code
    return (entry[0], False, "%s: crashed: child %s" % (entry[0], how)), results


def run(kmax):
    """Run every check in CHECKS; returns (all_passed, results).

    results is a list of (name, passed, detail), one per check in order,
    with detail empty on success and "<name>: ..." on failure.  Where
    os.fork exists, the entry whose function is check_per_level_agreement
    itself (not a wrapper of it) runs in a forked child beside the rest.
    """
    if kmax < 3:
        raise DomainError("kmax must be >= 3 (the delta_k sweep starts at k = 3)")
    entries = list(CHECKS)
    i = next((i for i, (_, fn) in enumerate(entries) if fn is check_per_level_agreement), None)
    if i is None or not hasattr(os, "fork"):
        results = _run_checks(entries, kmax)
    else:
        forked, results = _run_beside(entries[i], entries[:i] + entries[i + 1:], kmax)
        results.insert(i, forked)
    return all(ok for _, ok, _ in results), results
