import operator
import random

import pytest

from barbell.intlat import IntegerRowSpan, QuotientStructure, cokernel_structure
from barbell.lambda_group import (AlphaCombination, LambdaContext,
                                  cover_kernel_iterate, cover_pullback,
                                  lambda_reduce, lambda_structure,
                                  relator_matrix, w2_alpha, w2_theta)
from barbell.laurent import LaurentPoly1


def reduce_terms(terms, w0, n):
    return lambda_reduce(LaurentPoly1(terms), LambdaContext(w0, n))


def test_reduce_w0_1_examples():
    assert reduce_terms({1: 1, 0: -1}, 1, 3).is_zero()
    r = reduce_terms({2: 1, 0: -1}, 1, 3)
    assert r.free_part == LaurentPoly1({2: 1}) and r.torsion_bit == 0


def test_reduce_torsion_case():
    # fold line exponent carries a single mod-2 bit when n is even
    r = reduce_terms({2: 2}, 5, 4)
    assert r.is_zero()
    r = reduce_terms({2: 3}, 5, 4)
    assert r.free_part.is_zero() and r.torsion_bit == 1
    # same polynomial on odd n keeps a free generator
    r = reduce_terms({2: 2}, 5, 3)
    assert r.free_part == LaurentPoly1({2: 2}) and r.torsion_bit == 0


def test_structure_examples():
    st = lambda_structure(LambdaContext(5, 4), (-20, 20))
    assert st.torsion == (2,)
    assert lambda_structure(LambdaContext(4, 3), (-20, 20)).torsion == ()
    assert lambda_structure(LambdaContext(0, 3), (-20, 20)).torsion == ()
    # constant time in the window
    big = 10 ** 30
    assert lambda_structure(LambdaContext(3, 4), (-big, big)) == QuotientStructure(big - 1, (2,))


def test_structure_matches_smith_form_oracle():
    # the closed form against the Smith form of the window's relator matrix,
    # on the minimal window, lopsided ones and a wide one
    for w0 in range(-9, 10):
        need = abs(w0) + 2
        windows = [(-need, need), (-need - 3, need), (-need, need + 4),
                   (-need - 7, need + 2), (-20, 20)]
        for n in range(3, 7):
            ctx = LambdaContext(w0, n)
            for lo, hi in windows:
                want = cokernel_structure(relator_matrix(ctx, lo, hi)[0])
                assert lambda_structure(ctx, (lo, hi)) == want, (w0, n, lo, hi)
    # and against the images of the window's monomials, one reduction each,
    # on random windows up to 30 past the least one
    rng = random.Random(8)
    for _ in range(500):
        ctx = LambdaContext(rng.randint(-40, 40), rng.randint(3, 6))
        need = abs(ctx.w0) + 2
        lo, hi = -need - rng.randint(0, 30), need + rng.randint(0, 30)
        free, bit = set(), 0
        for k in range(lo, hi + 1):
            nf = lambda_reduce(LaurentPoly1({k: 1}), ctx)
            free.update(nf.free_part.terms)
            bit |= nf.torsion_bit
        want = QuotientStructure(len(free), (2,) * bit)
        assert lambda_structure(ctx, (lo, hi)) == want, (ctx, lo, hi)


def test_structure_window_validation():
    with pytest.raises(ValueError):
        lambda_structure(LambdaContext(5, 4), (-3, 3))


def test_context_validation():
    with pytest.raises(ValueError):
        LambdaContext(0, 2)


def test_theta_values():
    ctx = LambdaContext(1, 3)
    assert w2_theta(2, ctx).free_part == LaurentPoly1({2: 1})
    assert w2_theta(1, ctx).is_zero()


def test_figure_reductions():
    # the displayed generator values t^2 - t^0 and t^3 - t^1 on (W0=1, n=3)
    assert reduce_terms({2: 1, 0: -1}, 1, 3).free_part == LaurentPoly1({2: 1})
    assert reduce_terms({3: 1, 1: -1}, 1, 3).free_part == LaurentPoly1({3: 1})


def test_alpha_examples():
    ctx = LambdaContext(1, 3)
    assert w2_alpha(1, ctx).free_part == LaurentPoly1({2: 1})
    for i in range(1, 51):
        assert w2_alpha(i, ctx) == w2_theta(i + 1, ctx) - w2_theta(i, ctx)
    with pytest.raises(ValueError):
        w2_alpha(1, LambdaContext(2, 3))


def test_gamma_spans_intermediate_monomials():
    # the gamma values for k in [0, W0) span the same subgroup of the
    # quotient as the monomials t..t^(W0-2); compare spans over the free
    # coordinates plus one torsion column (with 2*bit = 0 adjoined)
    for w0, n in ((5, 3), (5, 4), (4, 3), (6, 4)):
        ctx = LambdaContext(w0, n)
        bit_col = 10 ** 6  # out-of-band column index for the torsion bit

        def vec(elem):
            v = dict(elem.free_part.terms)
            if elem.torsion_bit:
                v[bit_col] = 1
            return v

        def make_span(elems):
            return IntegerRowSpan([{bit_col: 2}] + [vec(el) for el in elems])

        gammas = [w2_theta(k, ctx) for k in range(0, w0)]  # gamma_k takes theta_k's value
        monos = [lambda_reduce(LaurentPoly1({k: 1}), ctx) for k in range(1, w0 - 1)]
        span_g, span_m = make_span(gammas), make_span(monos)
        assert all(span_m.contains(vec(el)) for el in gammas)
        assert all(span_g.contains(vec(el)) for el in monos)


def test_theta_images_span_free_part():
    for w0 in range(-4, 5):
        for n in (3, 4):
            ctx = LambdaContext(w0, n)
            span = IntegerRowSpan(w2_theta(k, ctx).free_part.terms for k in range(-15, 16))
            fold = -(-(w0 - 1) // 2)
            fixed = (w0 - 1) // 2 if (w0 - 1) % 2 == 0 else None
            for j in range(fold, 13):
                if j in ctx.killed or (ctx.has_torsion() and j == fixed):
                    continue
                assert span.contains({j: 1}), (w0, n, j)


def test_oracle_equivalence_sample():
    rng = random.Random(271)
    for w0 in (-5, -1, 0, 1, 2, 5):
        for n in (3, 4):
            ctx = LambdaContext(w0, n)
            m, exps = relator_matrix(ctx, -20, 20)
            span = IntegerRowSpan(m.data)
            idx = {k: i for i, k in enumerate(exps)}
            for _ in range(100):
                p = LaurentPoly1({rng.randrange(-10, 11): rng.randrange(-8, 9)
                                  for _ in range(rng.randrange(0, 6))})
                vec = {idx[k]: c for k, c in p.terms.items()}
                assert lambda_reduce(p, ctx).is_zero() == span.contains(vec)


def test_reduce_additive_and_idempotent():
    rng = random.Random(13)
    for w0, n in ((-3, 4), (1, 3), (5, 4), (0, 5)):
        ctx = LambdaContext(w0, n)
        for _ in range(50):
            p = LaurentPoly1({rng.randrange(-9, 10): rng.randrange(-6, 7)
                              for _ in range(4)})
            q = LaurentPoly1({rng.randrange(-9, 10): rng.randrange(-6, 7)
                              for _ in range(4)})
            assert lambda_reduce(p + q, ctx) == lambda_reduce(p, ctx) + lambda_reduce(q, ctx)
            assert lambda_reduce(p - q, ctx) == lambda_reduce(p, ctx) - lambda_reduce(q, ctx)
            nf = lambda_reduce(p, ctx)
            assert lambda_reduce(nf.free_part, ctx).free_part == nf.free_part


def test_mismatched_contexts_do_not_mix():
    p = LaurentPoly1({3: 1, 2: 1})
    x, y = lambda_reduce(p, LambdaContext(5, 4)), lambda_reduce(p, LambdaContext(5, 3))
    for a, b in ((x, y), (y, x)):
        for op in (operator.add, operator.sub):
            with pytest.raises(ValueError, match="^mismatched contexts$"):
                op(a, b)


def test_cover_pullback_rule():
    assert cover_pullback(2, AlphaCombination({4: 1})) == AlphaCombination({2: 2})
    assert cover_pullback(2, AlphaCombination({3: 1})).is_zero()
    x = AlphaCombination({3: 2, 7: -1})
    assert cover_pullback(1, x) == x
    # exhaustive divide/annihilate sweep
    for m in range(1, 9):
        for i in range(1, 65):
            out = cover_pullback(m, AlphaCombination({i: 1}))
            if i % m == 0:
                assert out == AlphaCombination({i // m: m})
            else:
                assert out.is_zero()


def test_cover_pullback_multiplicative():
    rng = random.Random(55)
    for _ in range(80):
        x = AlphaCombination({rng.randrange(1, 37): rng.randrange(-5, 6)
                              for _ in range(rng.randrange(0, 5))})
        m1, m2 = rng.randrange(1, 7), rng.randrange(1, 7)
        assert cover_pullback(m1 * m2, x) == cover_pullback(m1, cover_pullback(m2, x))


def test_cover_kernel_iterate():
    assert cover_kernel_iterate(AlphaCombination({3: 1}), 2, 1)
    a4 = AlphaCombination({4: 1})
    assert not cover_kernel_iterate(a4, 2, 1)
    assert not cover_kernel_iterate(a4, 2, 2)
    assert cover_kernel_iterate(a4, 2, 3)
    assert cover_kernel_iterate(AlphaCombination(), 5, 1)
    # the 1-fold cover pulls back to the identity: answered at once, any depth
    assert cover_kernel_iterate(AlphaCombination({4: 1}), 1, 10**12) is False


def test_alpha_combination_validation():
    with pytest.raises(ValueError):
        AlphaCombination({0: 1})
    with pytest.raises(ValueError):  # checked on raw input, zero coefficient or not
        AlphaCombination({0: 0})
