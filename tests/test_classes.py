import os
import random
import signal
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barbell import DomainError, classes, selfcheck
from barbell.classes import (ROMAN_FORMS, DClass, GClass, d, delta, delta_expansion, e,
                             f_closed, f_levels, g, gstar, independence_rank,
                             roman, twist_class, w3)
from barbell.hexagon import hex_normal_form, orbit_of, orbit_structure
from barbell.intlat import IntMatrix, QuotientStructure


# Reference: the class algebra built by GClass arithmetic, one class per
# D(p, q), its four G terms summed by the constructor, and one more per
# -, + and .scale().  The D-basis builders in barbell.classes, expanded,
# must give the same classes.
def _ref_d(p, q):
    return GClass([((q, -p), -1), ((-q, p), 1), ((p, -q), -1), ((-p, q), 1)])


def _ref_roman(form, p, q):
    d = _ref_d
    if form == "I":
        return d(p, -q)
    if form == "IIb":
        return d(-q, p) - d(p - q, -p)
    if form == "IIbe":
        return d(-q, p) - d(-p - q, p) - d(p - q, -p) + d(-q, -p)
    if form == "IIr":
        return d(p, -q) - d(p - q, q)
    assert form == "IIre"
    return d(p, -q) - d(p + q, -q) - d(p - q, q) + d(p, q)


def _ref_f_level(k, level, p, q):
    d = _ref_d
    big_p = p >= k - level
    big_q = q >= level
    if big_p and big_q:
        return d(p, -q)
    if not big_p and not big_q:
        return GClass()
    if big_p:  # q < level
        if p + q >= k:
            return d(p, -q) - d(p - q, q)
        return d(p, -q) - d(p + q, -q) - d(p - q, q) + d(p, q)
    # p < k - level, q >= level
    if p + q >= k:
        return d(-q, p) - d(p - q, -p)
    return d(-q, p) - d(-p - q, p) - d(p - q, -p) + d(-q, -p)


def _ref_f_closed(k, p, q):
    if p + q < k:
        return _ref_roman("IIre", p, q).scale(p) + _ref_roman("IIbe", p, q).scale(q)
    return (_ref_roman("IIb", p, q).scale(k - p - 1)
            + _ref_roman("IIr", p, q).scale(k - q - 1)
            + _ref_roman("I", p, q).scale(p + q + 1 - k))


def test_g_and_gstar():
    assert g(0, 0) == GClass({(0, 0): 1})
    assert gstar(3, 1) == GClass({(3, 2): -1})
    p = 4
    assert gstar(p, 0) == GClass({(p, p): -1})


def test_e_examples():
    assert e(1, 2) == GClass({(-2, 1): -1, (1, -2): 1})
    for p in (-3, 0, 2, 7):
        assert e(p, -p).is_zero()
    p, q = 4, 7
    assert (e(p, q) + e(-q, -p)).is_zero()


def test_d_examples():
    assert d(1, -1).is_zero()
    assert (d(1, 2) - d(2, 1)).is_zero()
    assert (d(-1, -2) + d(1, 2)).is_zero()
    assert d(1, 2) == GClass({(2, -1): -1, (-2, 1): 1, (1, -2): -1, (-1, 2): 1})


def test_d_symmetries_on_grid():
    for p in range(-5, 6):
        for q in range(-5, 6):
            assert d(p, q) == d(q, p)
            assert d(-p, -q) == d(p, q).neg()


def test_d_class_keys_are_canonical():
    # D(y,x) = D(x,y), D(-x,-y) = -D(x,y), D(x,-x) = 0
    assert DClass({(1, 2): 1}) == DClass({(2, 1): 1}) == DClass({(-2, -1): -1})
    assert DClass({(3, -3): 5, (0, 0): 1}).is_zero()
    assert repr(DClass([((1, 2), 1), ((-1, -2), 3), ((0, 4), 2)])) == "-2*D(2,1)+2*D(4,0)"
    for x in range(-12, 13):
        for y in range(-12, 13):
            for (a, b), c in DClass({(x, y): 1}).terms.items():
                assert a >= b and a + b > 0 and abs(c) == 1, (x, y)


def test_d_class_expands_to_the_four_term_reference():
    for x in range(-12, 13):
        for y in range(-12, 13):
            for c in (1, -3):
                assert DClass({(x, y): c}).expand() == _ref_d(x, y).scale(c), (x, y, c)


def test_d_class_expansion_has_disjoint_supports():
    # distinct canonical D's expand to nonzero, pairwise disjoint G
    # supports, so the expansion is injective
    reps = {key for x in range(-40, 41) for y in range(-40, 41)
            for key in DClass({(x, y): 1}).terms}
    seen = set()
    for rep in reps:
        support = DClass({rep: 1}).expand().terms
        assert support and not seen & support.keys(), rep
        seen |= support.keys()


_D_TERMS = st.lists(st.tuples(st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
                              st.integers(-5, 5)), max_size=8)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_D_TERMS, _D_TERMS)
def test_d_class_expansion_is_additive(a, b):
    x, y = DClass(a), DClass(b)
    assert (x + y).expand() == x.expand() + y.expand()
    assert DClass(a + b).expand() == x.expand() + y.expand()
    assert x.neg().expand() == x.expand().neg()


def test_roman_examples():
    assert roman("I", 3, 2) == d(3, -2)
    assert roman("IIb", 1, 3) == d(-3, 1) - d(-2, -1)
    p, q = 2, 5
    assert (roman("IIre", q, p) + roman("IIbe", p, q)).is_zero()
    for form in ROMAN_FORMS:
        for p in range(-8, 9):
            for q in range(-8, 9):
                assert roman(form, p, q) == _ref_roman(form, p, q), (form, p, q)
    with pytest.raises(ValueError):
        roman("III", 1, 1)


def test_f_level_cases():
    assert f_levels(5, 4, 3)[2] == d(4, -3)
    assert f_levels(5, 1, 1)[2].is_zero()
    for args in ((1, 1, 1), (5, 0, 1), (5, 5, 1), (5, 1, 0), (5, 1, 5)):
        with pytest.raises(DomainError):
            f_levels(*args)


def test_per_level_sums_to_closed_form():
    # every (k, L, p, q) with k <= 16 also against the arithmetic
    # reference; the grid holds the zero-weight corners p = k-1, q = k-1
    # and p + q + 1 = k of f_closed.  f_levels builds one class per case,
    # shared by every level in that case.
    for k in range(2, 17):
        for p in range(1, k):
            for q in range(1, k):
                assert f_closed(k, p, q) == _ref_f_closed(k, p, q), (k, p, q)
                column = f_levels(k, p, q)
                assert type(column) is tuple and len(column) == k - 1
                shared = {}
                acc = GClass()
                for lvl in range(1, k):
                    level = column[lvl - 1]
                    assert level == _ref_f_level(k, lvl, p, q), (k, lvl, p, q)
                    form = classes._level_form(k, lvl, p, q)
                    assert shared.setdefault(form, level) is level
                    acc = acc + level
                assert acc == f_closed(k, p, q)


def test_level_case_counts_are_closed_form_weights():
    # integers only: the number of levels in each case is the weight of
    # that roman form in f_closed, for every k <= 60
    for k in range(2, 61):
        for p in range(1, k):
            for q in range(1, k):
                if p + q < k:
                    weights = {"IIre": p, "IIbe": q}
                else:
                    weights = {"IIb": k - p - 1, "IIr": k - q - 1, "I": p + q + 1 - k}
                weights[None] = k - 1 - sum(weights.values())
                counts = Counter(classes._level_form(k, lvl, p, q) for lvl in range(1, k))
                assert counts == Counter(weights), (k, p, q)


def test_per_level_sweep_evaluates_every_level(monkeypatch):
    # the per-level check samples the case table at every (k, L, p, q) and
    # compares with f_closed_d once per (k, p, q); it does not count cases
    calls = {"_level_form": 0, "f_closed_d": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(classes, "_level_form", counted("_level_form", classes._level_form))
    monkeypatch.setattr(selfcheck, "f_closed_d", counted("f_closed_d", selfcheck.f_closed_d))
    selfcheck.check_per_level_agreement(8)
    # sum of (k-1)^3 and of (k-1)^2 over 2 <= k <= 8
    assert calls == {"_level_form": 784, "f_closed_d": 140}


def test_skew_check_catches_a_corrupt_entry_on_either_side(monkeypatch):
    # the check visits each unordered pair once; a corrupt entry below the
    # diagonal, or on it, is still reported, with the pair as (min, max)
    good = classes.f_closed_d
    for bad, detail in (((5, 3, 1), "F_5(1,3) + F_5(3,1) != 0"),
                        ((5, 2, 2), "F_5(2,2) + F_5(2,2) != 0")):
        def corrupt(k, p, q, bad=bad):
            out = good(k, p, q)
            return out + DClass({(1, 0): 1}) if (k, p, q) == bad else out

        monkeypatch.setattr(selfcheck, "f_closed_d", corrupt)
        with pytest.raises(selfcheck.CheckFailure) as exc:
            selfcheck.check_skew_symmetry(6)
        assert str(exc.value) == detail


def _replace_mid_run(make):
    # f_levels_d with the middle level of the first run of >= 3 shared
    # nonzero levels at k = 6 replaced by make(level); returns
    # (patched, (k, p, q))
    k = 6
    good = classes.f_levels_d
    p, q, i = next((p, q, i) for p in range(1, k) for q in range(1, k)
                   for col in [good(k, p, q)] for i in range(1, k - 2)
                   if col[i - 1] is col[i] is col[i + 1] and not col[i].is_zero())

    def patched(*args):
        column = good(*args)
        if args != (k, p, q):
            return column
        return column[:i] + (make(column[i]),) + column[i + 1:]
    return patched, (k, p, q)


def test_per_level_check_catches_a_level_changed_inside_a_run(monkeypatch):
    patched, (k, p, q) = _replace_mid_run(lambda level: level + DClass({(1, 0): 1}))
    monkeypatch.setattr(selfcheck, "f_levels_d", patched)
    with pytest.raises(selfcheck.CheckFailure) as exc:
        selfcheck.check_per_level_agreement(6)
    assert str(exc.value) == "k=%d p=%d q=%d" % (k, p, q)
    # run forks this check into a child, which reports the same detail
    assert [r for r in selfcheck.run(6)[1] if not r[1]] == [
        ("per-level agreement", False, "per-level agreement: %s" % exc.value)]
    # a distinct object of equal value splits the run but not the sum
    patched, _ = _replace_mid_run(lambda level: DClass(dict(level.terms)))
    monkeypatch.setattr(selfcheck, "f_levels_d", patched)
    selfcheck.check_per_level_agreement(6)


def _serial_run(kmax):
    # reference: every entry of CHECKS in order, in this process
    results = []
    for name, fn in selfcheck.CHECKS:
        try:
            fn(kmax)
        except selfcheck.CheckFailure as exc:
            results.append((name, False, "%s: %s" % (name, exc)))
        except Exception as exc:
            results.append((name, False, "%s: crashed: %r" % (name, exc)))
        else:
            results.append((name, True, ""))
    return all(ok for _, ok, _ in results), results


def test_runner_matches_the_serial_reference(monkeypatch):
    for k in range(3, 9):
        want = _serial_run(k)
        assert selfcheck.run(k) == want, k
        with monkeypatch.context() as m:  # no os.fork: every check runs here
            m.delattr(os, "fork")
            assert selfcheck.run(k) == want, k


def test_runner_reports_a_dead_child_as_crashed(monkeypatch):
    want = _serial_run(6)[1]
    i = [name for name, _ in selfcheck.CHECKS].index("per-level agreement")
    for die, how in ((lambda: os._exit(7), "exit status 7"),
                     (lambda: os.kill(os.getpid(), signal.SIGKILL), "killed by signal 9")):
        monkeypatch.setattr(selfcheck, "f_levels_d", lambda *args, die=die: die())
        ok, results = selfcheck.run(6)
        assert not ok
        assert results[i] == ("per-level agreement", False,
                              "per-level agreement: crashed: child %s" % how)
        assert results[:i] + results[i + 1:] == want[:i] + want[i + 1:]
        with pytest.raises(ChildProcessError):  # reaped: no child is left
            os.waitpid(-1, os.WNOHANG)


def test_runner_kills_the_child_when_the_caller_raises(monkeypatch):
    def interrupted(kmax):
        raise KeyboardInterrupt

    monkeypatch.setattr(selfcheck, "f_levels_d", lambda *args: time.sleep(60))
    monkeypatch.setattr(selfcheck, "CHECKS", (("interrupted", interrupted),) + selfcheck.CHECKS)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        selfcheck.run(6)
    assert time.monotonic() - start < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_runner_keeps_a_wrapped_entry_in_the_caller(monkeypatch):
    # a wrapper is not check_per_level_agreement itself, so it is not forked
    # and what it records stays visible to the caller
    pids = []

    def wrap(fn):
        def wrapper(kmax):
            pids.append(os.getpid())
            return fn(kmax)
        return wrapper

    monkeypatch.setattr(selfcheck, "CHECKS",
                        tuple((name, wrap(fn)) for name, fn in selfcheck.CHECKS))
    assert selfcheck.run(3) == _serial_run(3)
    assert pids == [os.getpid()] * 2 * len(selfcheck.CHECKS)


def test_twist_matches_scaled_sum():
    rng = random.Random(20210426)
    for k in range(2, 13):
        for _ in range(4):
            v = [rng.choice((0, 0, rng.randrange(-5, 6))) for _ in range(k - 1)]
            w = [rng.choice((0, rng.randrange(-5, 6))) for _ in range(k - 1)]
            want = GClass.sum(f_closed(k, p, q).scale(v[p - 1] * w[q - 1])
                              for p in range(1, k) for q in range(1, k))
            assert twist_class(k, v, w) == want, (k, v, w)


def test_closed_form_skew_and_sum():
    for k in range(2, 13):
        total = GClass()
        for p in range(1, k):
            for q in range(1, k):
                assert (f_closed(k, p, q) + f_closed(k, q, p)).is_zero()
                total = total + f_closed(k, p, q)
        assert total.is_zero()


def test_delta_corner_coefficients():
    # F_k(k-1, k-2) = IIr + (k-2) I at the delta corner
    for k in (4, 5, 9):
        want = roman("IIr", k - 1, k - 2) + roman("I", k - 1, k - 2).scale(k - 2)
        assert f_closed(k, k - 1, k - 2) == want


def test_delta_expansion_k4():
    want = (GClass({(2, 3): 1, (3, 2): -1, (-3, -2): 1, (-2, -3): -1}).scale(3)
            - GClass({(2, -1): -1, (-2, 1): 1, (1, -2): -1, (-1, 2): 1}))
    assert delta(4) == want
    assert delta_expansion(4) == want


def test_delta_expansion_check_reports_a_mismatch(monkeypatch):
    # a wrong expansion is a failed check with its k, not a crash
    monkeypatch.setattr(selfcheck, "delta_expansion",
                        lambda k: delta_expansion(k) + g(0, 0) if k == 5 else delta_expansion(k))
    ok, results = selfcheck.run(6)
    assert not ok
    assert [r for r in results if not r[1]] == [
        ("delta expansion", False, "delta expansion: delta_5 disagrees with its 8-term expansion")]


def test_delta_equals_twist():
    for k in range(3, 13):
        v = [0] * (k - 2) + [1]
        w = [0] * (k - 3) + [1, 0]
        assert delta(k) == twist_class(k, v, w)
    with pytest.raises(ValueError):
        delta(2)


def test_twist_validation_and_ones():
    with pytest.raises(ValueError):
        twist_class(5, [1, 1], [1, 1, 1, 1])
    with pytest.raises(ValueError):
        twist_class(1, [], [])
    for k in (4, 7):
        ones = [1] * (k - 1)
        assert twist_class(k, ones, ones).is_zero()
        ek1 = [0] * (k - 2) + [1]
        acc = GClass()
        for q in range(1, k):
            acc = acc + f_closed(k, k - 1, q)
        assert twist_class(k, ek1, ones) == acc


def test_w3_factors_through_hexagon_relation():
    for n in (3, 4):
        sgn = 1 if n % 2 else -1
        for p, q in ((5, 2), (1, 4), (-3, -1), (0, 6)):
            comb = g(p, q) - g(q, q - p) + (g(p, p - q) - g(q, p)).scale(sgn)
            assert hex_normal_form(w3(comb), n).is_zero()


def test_delta3_vanishes_delta4_does_not():
    assert not delta(3).is_zero()
    assert hex_normal_form(w3(delta(3)), 3).is_zero()
    assert not hex_normal_form(w3(delta(4)), 3).is_zero()


def test_w3_delta_is_one_primitive_twelve_orbit_class():
    # W3(delta_k), k >= 4, lives on the single orbit of (1-k, 2-k): a
    # twelve-orbit whose summand is Z^7, and a +-1 coordinate makes the
    # class primitive there.  W3(delta_3) sits on the edge six-orbit of
    # (-2, -1) at even n and vanishes at odd n.
    for n in (3, 4, 5, 6):
        for k in range(4, 81):
            orbits = hex_normal_form(w3(delta(k)), n).orbits
            rep = (1 - k, 2 - k)
            assert list(orbits) == [rep], (k, n)
            assert orbit_of(*rep).otype == "twelve"
            assert orbit_structure(orbit_of(*rep), n) == QuotientStructure(7, [])
            coords = orbits[rep]
            assert len(coords) == 7 and all(m == 0 for _, m in coords), (k, n)
            assert any(abs(v) == 1 for v, _ in coords), (k, n)
        delta3 = hex_normal_form(w3(delta(3)), n)
        if n % 2:
            assert delta3.is_zero()
        else:
            assert delta3.orbits == {(-2, -1): ((2, 0), (-2, 0), (4, 0), (-4, 0))}


def test_independence_examples():
    rank, _, _ = independence_rank([delta(4)], 3)
    assert rank == 1
    rank, _, _ = independence_rank([delta(4), delta(4).scale(2)], 3)
    assert rank == 1
    rank, _, _ = independence_rank([delta(k) for k in range(4, 9)], 3)
    assert rank == 5
    rank, _, rows = independence_rank([delta(k) for k in range(4, 13)], 3)
    assert rank == 9
    assert len(rows) == 9
    with pytest.raises(ValueError):
        independence_rank([], 3)


def test_independence_builds_no_dense_matrix(monkeypatch):
    # the rank splits into orbit blocks, so no matrix beyond one
    # twelve-orbit block (12 x 12) may appear on the independence path
    shapes = []
    init = IntMatrix.__init__

    def spy(self, rows, cols, data=None):
        shapes.append((rows, cols))
        init(self, rows, cols, data)

    monkeypatch.setattr(IntMatrix, "__init__", spy)
    rank, _, rows = independence_rank([delta(k) for k in range(4, 61)], 3)
    assert rank == len(rows) == 57
    assert all(r <= 12 and c <= 12 for r, c in shapes), max(shapes)


def test_gstar_form_of_e_agrees_in_quotient():
    # the G* expansion of E differs from the G expansion by a hexagon
    # combination, so they agree after reduction (n = 3)
    for p in range(-4, 5):
        for q in range(-4, 5):
            diff = e(p, q) - (gstar(-q, p).neg() + gstar(p, -q))
            assert hex_normal_form(w3(diff), 3).is_zero()


def test_gclass_json_round_trip():
    cls = GClass({(3, -2): 10 ** 20, (-1, 0): -7})
    assert GClass.from_json(cls.to_json()) == cls
