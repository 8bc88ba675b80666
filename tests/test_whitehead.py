import random

import pytest

import barbell.whitehead as whitehead
from barbell import DomainError
from barbell.hexagon import basis_change_12_to_13, k_relator
from barbell.laurent import LaurentPoly2
from barbell.whitehead import (BracketElem, DegNElem, bracket, deg_n_gen,
                               derive_R_relators, facet_map, pair_bracket)


def triple(n, terms):
    return BracketElem(n, triple=terms)


def test_monomial_collapse():
    # t1^2 t2^3 t3^5 . w12 = t1^(2-3) . w12
    el = deg_n_gen(1, 2, (2, 3, 5), 3)
    assert el == DegNElem(3, {(1, 2, -1): 1})


def test_zero_coefficients_are_dropped():
    assert DegNElem(3, {(1, 2, 0): 0}) == DegNElem(3)
    assert DegNElem(3, {(1, 2, 0): 0}).is_zero()
    assert repr(DegNElem(3, {(1, 2, 0): 0, (1, 3, 1): 2})) == "+2*t1^1.w13"
    el = BracketElem(3, triple={(0, 0): 0}, pairs={(1, 2, 0, 1): 0})
    assert el == BracketElem(3) and el.is_zero()
    assert BracketElem(3, triple={(0, 0): 0, (1, 2): -1}) == triple(3, {(1, 2): -1})
    # a list of (key, coeff) pairs sums repeated keys
    assert DegNElem(3, [((1, 2, 0), 1), ((1, 2, 0), -1)]).is_zero()
    assert DegNElem(4, [((1, 3, 2), 2), ((2, 3, 0), 1), ((1, 3, 2), 3)]) == \
        DegNElem(4, {(1, 3, 2): 5, (2, 3, 0): 1})
    el = BracketElem(3, triple=[((0, 1), 2), ((1, 1), 4), ((0, 1), -2), ((1, 1), 1)],
                     pairs=[((1, 2, 0, 1), 3), ((1, 3, 2, 2), -1), ((1, 2, 0, 1), 4)])
    assert el == BracketElem(3, triple={(1, 1): 5},
                             pairs={(1, 2, 0, 1): 7, (1, 3, 2, 2): -1})


def test_flip_sign_depends_on_parity():
    assert deg_n_gen(2, 1, n=3) == DegNElem(3, {(1, 2, 0): 1})
    assert deg_n_gen(2, 1, n=4) == DegNElem(4, {(1, 2, 0): -1})


def test_w_ii_vanishes():
    assert deg_n_gen(1, 1, (2, 0, 0), 3).is_zero()
    # so brackets against a degenerate factor vanish wholesale
    assert bracket(deg_n_gen(1, 2, n=3), deg_n_gen(3, 3, n=3)).is_zero()


def test_index_range_checked():
    with pytest.raises(ValueError):
        deg_n_gen(0, 2, n=3)


def test_constructors_put_keys_in_canonical_form():
    # DegNElem: w_ji = (-1)^(n+1) w_ij, w_ii = 0, indices in {1,2,3}
    assert DegNElem(3, {(2, 1, 0): 1}) == deg_n_gen(2, 1, n=3)
    assert DegNElem(4, {(3, 1, 2): 5}) == DegNElem(4, {(1, 3, -2): -5})
    assert DegNElem(4, {(3, 1, 2): 5}) == deg_n_gen(3, 1, (0, 0, 2), n=4, coeff=5)
    assert DegNElem(3, {(2, 2, 5): 1}).is_zero()
    for bad in ((1, 4, 0), (0, 2, 0)):
        with pytest.raises(DomainError):
            DegNElem(3, {bad: 1})
    with pytest.raises(DomainError):
        deg_n_gen(1, 4, n=3)
    # BracketElem: l < 0 folds by one graded swap, [x, x] dies at odd n
    assert BracketElem(3, pairs={(1, 2, 0, -1): 1}) == pair_bracket(0, -1, 3)
    assert BracketElem(3, pairs={(1, 2, 0, -1): 1}) == BracketElem(3, pairs={(1, 2, -1, 1): -1})
    assert BracketElem(4, pairs={(1, 2, 3, -2): 1}) == pair_bracket(3, 1, 4)
    assert BracketElem(4, pairs={(1, 2, 3, -2): 1}) == BracketElem(4, pairs={(1, 2, 1, 2): 1})
    assert BracketElem(3, pairs={(1, 2, 0, 0): 1}).is_zero()
    assert pair_bracket(0, 0, 3).is_zero()
    assert not BracketElem(4, pairs={(1, 2, 0, 0): 1}).is_zero()


def test_bracket_pair_keys_put_point_indices_in_canonical_form():
    # t_j acts on w_ij as t_i^-1, so (j, i, c, l) is (i, j, -c, -l), folded
    assert BracketElem(3, pairs={(2, 1, 0, 1): 1}) == BracketElem(3, pairs={(1, 2, 0, -1): 1})
    assert repr(BracketElem(3, pairs={(2, 1, 0, 1): 1})) == "-1*t1^-1[w12,t1^1 w12]"
    for n in (3, 4):
        for i, j in ((2, 1), (3, 1), (3, 2)):
            for a in range(-3, 4):
                for b in range(-3, 4):
                    exps = [0, 0, 0]
                    exps[j - 1] = a
                    x = deg_n_gen(j, i, tuple(exps), n)
                    exps[j - 1] = b
                    y = deg_n_gen(j, i, tuple(exps), n)
                    assert BracketElem(n, pairs={(j, i, a, b - a): 1}) == bracket(x, y)
    assert BracketElem(4, pairs={(2, 2, 0, 1): 1}).is_zero()
    for bad in ((1, 5, 0, 1), (0, 2, 0, 1), (4, 1, 0, 1)):
        with pytest.raises(DomainError):
            BracketElem(3, pairs={bad: 1})


def _rand_deg_n(rng, n):
    return DegNElem(n, {(rng.randrange(1, 4), rng.randrange(1, 4), rng.randrange(-4, 5)):
                        rng.randrange(-3, 4) for _ in range(rng.randrange(1, 5))})


def test_bracket_is_graded_antisymmetric():
    # [y, x] = (-1)^n [x, y] in equal degree n
    rng = random.Random(7)
    for n in (3, 4):
        for _ in range(200):
            x, y = _rand_deg_n(rng, n), _rand_deg_n(rng, n)
            assert bracket(x, y) == bracket(y, x).scale((-1) ** n), (n, x, y)


def test_chart_change_sign_agrees_with_the_bracket_layer():
    # [t1^a w13, t2^b w23] read in the (t1, t2) chart is the monomial
    # t1^a t2^b: the chart change's sign is the bracket's forward sign
    for n in (3, 4):
        for a in range(-4, 5):
            for b in range(-4, 5):
                br = bracket(deg_n_gen(1, 3, (a, 0, 0), n), deg_n_gen(2, 3, (0, b, 0), n))
                assert basis_change_12_to_13(br.triple_poly()) == LaurentPoly2.monomial(a, b)


def test_cyclic_identity():
    for n in (3, 4):
        a = bracket(deg_n_gen(1, 2, n=n), deg_n_gen(2, 3, n=n))
        b = bracket(deg_n_gen(2, 3, n=n), deg_n_gen(3, 1, n=n))
        c = bracket(deg_n_gen(3, 1, n=n), deg_n_gen(1, 2, n=n))
        assert a == b == c
        assert a == triple(n, {(0, 0): 1})


def test_pair_bracket_normalization():
    # [t1^a w12, t1^b w12] = t1^a [w12, t1^(b-a) w12]
    assert pair_bracket(2, 5, 3) == BracketElem(3, pairs={(1, 2, 2, 3): 1})
    # reversed order folds through one graded swap
    assert pair_bracket(5, 2, 3) == BracketElem(3, pairs={(1, 2, 2, 3): -1})
    assert pair_bracket(5, 2, 4) == BracketElem(4, pairs={(1, 2, 2, 3): 1})
    # [x, x] dies rationally in odd dimension, survives in even
    assert pair_bracket(1, 1, 3).is_zero()
    assert pair_bracket(1, 1, 4) == BracketElem(4, pairs={(1, 2, 1, 0): 1})


def test_shared_index_linking_convention():
    # [t1^a w13, t2^b w23] = -t1^(a-b) t3^(-b) [w12, w23]: the coefficient
    # pattern that makes the facet computations reproduce their displays
    for n in (3, 4):
        for a, b in ((0, 0), (2, -1), (-3, 1)):
            got = bracket(deg_n_gen(1, 3, (a, 0, 0), n),
                          deg_n_gen(2, 3, (0, b, 0), n))
            assert got == triple(n, {(a - b, -b): -1})


def test_bracket_bilinear():
    rng = random.Random(7)
    pairs = ((1, 2), (1, 3), (2, 3))
    for n in (3, 4):
        for _ in range(20):
            def rand_elem():
                el = DegNElem(n)
                for _ in range(rng.randrange(1, 4)):
                    i, j = pairs[rng.randrange(3)]
                    el = el.add(deg_n_gen(i, j, (rng.randrange(-3, 4), 0, 0), n,
                                          rng.randrange(-2, 3)))
                return el
            x, y, z = rand_elem(), rand_elem(), rand_elem()
            assert bracket(x.add(y), z) == bracket(x, z) + bracket(y, z)


def test_t_action_compatibility():
    rng = random.Random(19)
    pairs = ((1, 2), (1, 3), (2, 3))
    for n in (3, 4):
        for _ in range(30):
            def rand_elem():
                el = DegNElem(n)
                for _ in range(rng.randrange(1, 4)):
                    i, j = pairs[rng.randrange(3)]
                    el = el.add(deg_n_gen(i, j, (rng.randrange(-3, 4), 0, 0), n,
                                          rng.randrange(-2, 3)))
                return el
            x, y = rand_elem(), rand_elem()
            mu = (rng.randrange(-3, 4), rng.randrange(-3, 4), rng.randrange(-3, 4))
            assert bracket(x.act(mu), y.act(mu)) == bracket(x, y).act(mu)


def test_facet_t1_0_display():
    # [t1^a w12, t1^b w12] -> [t2^a w23, t2^b w23]
    for n in (3, 4):
        for a, b in ((2, 5), (0, 3), (-1, 4)):
            img = facet_map("t1=0", pair_bracket(a, b, n))
            want = bracket(deg_n_gen(2, 3, (0, a, 0), n),
                           deg_n_gen(2, 3, (0, b, 0), n))
            assert img == want


def test_facet_t3_1_trivial():
    for n in (3, 4):
        p = pair_bracket(2, 5, n)
        assert facet_map("t3=1", p) == p


def expected_doubling_display(facet, a, b, n):
    # displayed expansions of the two doubling facets, modulo the
    # edge-pair families killed by the t1=0 / t3=1 facets
    sgn = 1 if n % 2 else -1  # (-1)^(n-1)
    out = BracketElem(n)
    if facet == "t1=t2":
        out.triple[(a - b, -b)] = out.triple.get((a - b, -b), 0) - 1
        out.triple[(b - a, -a)] = out.triple.get((b - a, -a), 0) + sgn
    else:
        out.triple[(a, a - b)] = out.triple.get((a, a - b), 0) - 1
        out.triple[(b, b - a)] = out.triple.get((b, b - a), 0) + sgn
    out.triple = {k: c for k, c in out.triple.items() if c}
    w13 = bracket(deg_n_gen(1, 3, (a, 0, 0), n), deg_n_gen(1, 3, (b, 0, 0), n))
    return out + w13


def test_doubling_facets_match_displays():
    for n in (3, 4):
        for a, b in ((1, 0), (3, -2), (0, 0), (2, 2), (-1, -4)):
            p = pair_bracket(a, b, n)
            for facet in ("t1=t2", "t2=t3"):
                img = facet_map(facet, p).drop_edge_pairs()
                assert img == expected_doubling_display(facet, a, b, n), (facet, a, b, n)


def test_velocity_terms_cancel():
    for n in (3, 4):
        for a, b in ((1, 0), (2, -3)):
            p = pair_bracket(a, b, n)
            for facet in ("t1=t2", "t2=t3"):
                base = facet_map(facet, p).drop_edge_pairs()
                for vel in range(-3, 4):
                    assert facet_map(facet, p, vel).drop_edge_pairs() == base


def test_facet_validation():
    with pytest.raises(ValueError):
        facet_map("t2=0", pair_bracket(1, 0, 3))
    with pytest.raises(ValueError):
        facet_map("t1=0", DegNElem(3, {(1, 3, 0): 1}))
    # the velocity degree is read on the doubling facets only
    for facet in ("t1=0", "t3=1"):
        for x in (pair_bracket(1, 2, 3), DegNElem(4, {(1, 2, 0): 1})):
            assert facet_map(facet, x, 0) == facet_map(facet, x)
            with pytest.raises(DomainError, match="^the velocity degree applies to "
                                                  "facets t1=t2 and t2=t3 only$"):
                facet_map(facet, x, -3)


def test_facet_map_images_live_in_the_input_dimension():
    # the image's n is always x.n; no call can ask for another dimension
    for n in (3, 4):
        assert facet_map("t1=t2", pair_bracket(2, 5, n), 1).n == n
        assert facet_map("t2=t3", DegNElem(n, {(1, 2, 3): 1})).n == n
    with pytest.raises(TypeError):
        facet_map("t1=t2", pair_bracket(2, 5, 3), 0, 4)


def test_sums_and_brackets_refuse_mixed_operands():
    # a sum of a DegNElem and a BracketElem has no basis to live in
    x, br = deg_n_gen(1, 2, n=3), pair_bracket(0, 1, 3)
    for a, b in ((x, br), (br, x)):
        for op in (lambda u, v: u + v, lambda u, v: u - v):
            with pytest.raises(TypeError, match="cannot add %s to %s"
                               % (type(b).__name__, type(a).__name__)):
                op(a, b)
    # nor do two sphere dimensions meet in a sum or a bracket
    x4 = deg_n_gen(2, 3, n=4)
    for a, b in ((x, x4), (x4, x)):
        for op in (bracket, lambda u, v: u + v):
            with pytest.raises(ValueError, match="mismatched sphere dimension"):
                op(a, b)


def test_derived_relator_examples():
    rels = dict(derive_R_relators(3, (0, 1)))
    assert rels[(0, 0)].is_zero()
    want = LaurentPoly2({(1, 0): 1, (1, 1): -1, (0, -1): 1, (-1, -1): -1})
    assert rels[(1, 0)].triple_poly() == want


def test_derived_equals_hardcoded_up_to_sign():
    for n in (3, 4):
        for (ab, rel) in derive_R_relators(n, (-4, 4)):
            got = basis_change_12_to_13(rel.triple_poly())
            want = k_relator(ab[0], ab[1], n)
            assert got == want or got == want.neg(), (n, ab)


# Dict-merging references for bracket, BracketElem.act and facet_map that
# use neither laurent.combine nor the .add methods; each returns plain dicts.

def _merge(d, terms, c=1):
    for k, v in terms.items():
        v = d.get(k, 0) + c * v
        if v:
            d[k] = v
        else:
            del d[k]


def _ref_pair(pairs, i, j, c0, l, coeff, n):
    if coeff == 0:
        return
    if l < 0:
        coeff *= -1 if n % 2 else 1
        c0, l = c0 + l, -l
    if l == 0 and n % 2:
        return
    _merge(pairs, {(i, j, c0, l): coeff})


def _ref_bracket(x, y, n):
    triple, pairs = {}, {}
    for (i1, j1, a), c1 in x.terms.items():
        for (i2, j2, b), c2 in y.terms.items():
            coeff = c1 * c2
            if (i1, j1) == (i2, j2):
                _ref_pair(pairs, i1, j1, a, b - a, coeff, n)
                continue
            shared = ({i1, j1} & {i2, j2}).pop()
            mu = [0, 0, 0]
            for (i, j, e) in ((i1, j1, a), (i2, j2, b)):
                if i == shared:
                    mu[j - 1] = -e
                else:
                    mu[i - 1] = e
            sign = whitehead._triple_sign((i1, j1), (i2, j2), n)
            _merge(triple, {(mu[0] - mu[1], mu[2] - mu[1]): sign * coeff})
    return triple, pairs


def _ref_act(triple, pairs, exps, n):
    t, p = {}, {}
    e1, e2, e3 = exps
    for (a, b), c in triple.items():
        k = (a + e1 - e2, b + e3 - e2)
        t[k] = t.get(k, 0) + c
    for (i, j, c0, l), c in pairs.items():
        _ref_pair(p, i, j, c0 + exps[i - 1] - exps[j - 1], l, c, n)
    return {k: c for k, c in t.items() if c}, {k: c for k, c in p.items() if c}


def _ref_facet_map(facet, x, a, n):
    data = whitehead._FACET_DATA[facet]
    if isinstance(x, DegNElem):
        terms = {}
        for (_, _, e), c in x.terms.items():
            exps = tuple(e * v for v in data["t1"])
            for (u, v, extra) in data["w"]:
                _merge(terms, deg_n_gen(u, v, exps, n, c * a if extra else c).terms)
        return terms
    triple, pairs = {}, {}
    for (_, _, c0, l), c in x.pairs.items():
        lhs = DegNElem(n, _ref_facet_map(facet, DegNElem(n, {(1, 2, c0): 1}), a, n))
        rhs = DegNElem(n, _ref_facet_map(facet, DegNElem(n, {(1, 2, c0 + l): 1}), a, n))
        t, p = _ref_bracket(lhs, rhs, n)
        _merge(triple, t, c)
        _merge(pairs, p, c)
    return triple, pairs


def _rand_terms(rng, keys):
    # (key, coeff) pairs with repeated keys and zero coefficients
    pool = [(i, j, rng.randrange(-5, 6)) for _ in range(3) for i, j in keys]
    return [(rng.choice(pool), rng.randrange(-2, 3)) for _ in range(rng.randrange(0, 7))]


def test_bracket_and_act_match_dict_merging_reference():
    rng = random.Random(1010)
    keys = ((1, 2), (1, 3), (2, 3))
    for n in (3, 4, 5, 6):
        for _ in range(60):
            xs, ys = _rand_terms(rng, keys), _rand_terms(rng, keys)
            summed = {}
            for k, c in xs:
                summed[k] = summed.get(k, 0) + c
            x, y = DegNElem(n, xs), DegNElem(n, ys)
            assert x.terms == {k: c for k, c in summed.items() if c}
            mu = tuple(rng.randrange(-3, 4) for _ in range(3))
            assert x.act(mu).terms == {(i, j, a + mu[i - 1] - mu[j - 1]): c
                                       for (i, j, a), c in x.terms.items()}
            got = bracket(x, y)
            ref = _ref_bracket(x, y, n)
            assert (got.triple, got.pairs) == ref
            moved = got.act(mu)
            assert moved.n == n
            assert (moved.triple, moved.pairs) == _ref_act(*ref, mu, n)


def test_bracket_and_facet_map_build_without_add(monkeypatch):
    rng = random.Random(2020)
    keys = ((1, 2), (1, 3), (2, 3))
    cases = []
    for n in (3, 4, 5, 6):
        for _ in range(15):
            x, y = DegNElem(n, _rand_terms(rng, keys)), DegNElem(n, _rand_terms(rng, keys))
            w12 = DegNElem(n, _rand_terms(rng, ((1, 2),)))
            p = pair_bracket(rng.randrange(-5, 6), rng.randrange(-5, 6), n)
            facet, a = rng.choice(whitehead.FACETS), rng.randrange(-3, 4)
            # the velocity degree is read on the doubling facets only
            cases.append((n, x, y, w12, p, facet, a if facet in ("t1=t2", "t2=t3") else 0))

    def broken(self, other):
        raise AssertionError("add called")

    monkeypatch.setattr(DegNElem, "add", broken)
    monkeypatch.setattr(BracketElem, "add", broken)
    for n, x, y, w12, p, facet, a in cases:
        got = bracket(x, y)
        assert (got.triple, got.pairs) == _ref_bracket(x, y, n)
        assert facet_map(facet, w12, a).terms == _ref_facet_map(facet, w12, a, n)
        img = facet_map(facet, p, a)
        assert (img.triple, img.pairs) == _ref_facet_map(facet, p, a, n)
