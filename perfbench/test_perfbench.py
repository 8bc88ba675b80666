"""Tests of the benchmark itself: inputs, guards, checks and span arithmetic.

None of them runs the calculator; each fake output is built by hand.
"""

import itertools
import json
import os
import signal
import sys
import types
from pathlib import Path

import pytest

import run
import tracer
import workloads

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent
                        / "BENCHMARK.json").read_text())


def test_hexreduce_inputs_depend_only_on_the_seed():
    assert workloads.hexreduce_args(5) == workloads.hexreduce_args(5)
    assert workloads.hexreduce_args(5) != workloads.hexreduce_args(6)


@pytest.mark.parametrize("seed", [1, 2])
def test_hexreduce_inputs_have_the_promised_shape(seed):
    for n, x, xr, r in workloads.hexreduce_polys(seed):
        assert len(x) == workloads.HEX_TERMS
        assert r and all(c for c in r.values())
        assert all(abs(a) <= 300 and abs(b) <= 300 for a, b in list(x) + list(xr))
        assert {m: xr.get(m, 0) - x.get(m, 0) for m in set(x) | set(xr)
                if xr.get(m, 0) != x.get(m, 0)} == r


def test_k_relator_sign_follows_parity():
    # (p, q) and (p, p - q) coincide at (2, 1): they add for odd n, cancel for even
    assert workloads.k_relator(2, 1, 3) == {(2, 1): 2, (1, -1): -1, (1, 2): -1}
    assert workloads.k_relator(2, 1, 4) == {(1, -1): -1, (1, 2): 1}


def test_size_guard_fires_before_spawning():
    big = {(i, 0): 1 for i in range(10000)}
    with pytest.raises(ValueError, match="argv limit"):
        workloads.poly_payload(big)
    assert len(workloads.poly_payload({(0, 0): 1})) < workloads.ARG_LIMIT


def _independence(rank):
    return json.dumps({"rank": rank, "count": 247, "independent": rank == 247,
                       "matrix": {"rows": 247}}).encode()


def _selfcheck(failing=()):
    checks = [{"name": n, "passed": n not in failing, "detail": ""}
              for n in workloads.SELFCHECK_NAMES]
    return json.dumps({"passed": not failing, "checks": checks}).encode()


def _reduced(n, zero):
    return json.dumps({"n": n, "normal_form": {"orbits": []}, "is_zero": zero}).encode()


def _hexreduce_outputs():
    out = []
    for n in workloads.HEX_PARITIES:
        out += [(0, _reduced(n, False)), (0, _reduced(n, False)), (0, _reduced(n, True))]
    return out


def test_independence_check_rejects_rank_off_by_one():
    assert workloads.check_independence([(0, _independence(247))]) == [None]
    assert workloads.check_independence([(0, _independence(246))])[0]
    assert workloads.check_independence([(2, b"")])[0]


def test_selfcheck_check_needs_every_named_check():
    assert workloads.check_selfcheck([(0, _selfcheck())]) == [None]
    assert workloads.check_selfcheck([(0, _selfcheck(["skew symmetry"]))])[0]
    assert workloads.check_selfcheck([(3, _selfcheck())])[0]
    partial = json.loads(_selfcheck())
    partial["checks"].pop()
    assert workloads.check_selfcheck([(0, json.dumps(partial).encode())])[0]


def test_hexreduce_check_rejects_one_flipped_byte():
    outputs = _hexreduce_outputs()
    assert workloads.check_hexreduce(outputs) == [None] * 6
    code, out = outputs[4]
    outputs[4] = (code, out[:-2] + bytes([out[-2] ^ 1]) + out[-1:])
    problems = workloads.check_hexreduce(outputs)
    assert [i for i, p in enumerate(problems) if p] == [4]


def test_hexreduce_check_needs_relators_to_vanish():
    outputs = _hexreduce_outputs()
    outputs[2] = (0, _reduced(3, False))
    assert [i for i, p in enumerate(workloads.check_hexreduce(outputs)) if p] == [2]


def _inv(stdout, code=0):
    return run.Invocation(0.0, 1.0, code, 1, stdout)


def test_round_counts_corrupted_and_nondeterministic_output_as_failures():
    known = {}
    problems, _ = run.check_round(workloads.check_independence,
                                  [_inv(_independence(247))], ["k"], known)
    assert problems == [None]
    problems, _ = run.check_round(workloads.check_independence,
                                  [_inv(_independence(246))], ["k"], known)
    assert sum(p is not None for p in problems) == 1
    reformatted = _independence(247).replace(b", ", b",")
    problems, _ = run.check_round(workloads.check_independence,
                                  [_inv(reformatted)], ["k"], known)
    assert problems == ["stdout differs from an earlier run of this argv"]


def test_spawn_kills_a_child_past_the_timeout(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "TIMEOUT_S", 0.2)
    inv = run.spawn([sys.executable, "-c", "import time; print('x'); time.sleep(30)"],
                    dict(os.environ))
    assert inv.code == -signal.SIGKILL
    assert inv.end - inv.start < 10


def test_patch_replaces_every_binding():
    def f():
        return 1

    class C:
        def add(self, other):
            return 2
        __add__ = add

        @classmethod
        def make(cls):
            return cls

    a = types.ModuleType("a")
    b = types.ModuleType("b")
    a.f, a.C, b.g = f, C, f
    calls = []

    def wrap(fn):
        def wrapped(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapped
    assert tracer._patch([a, b], a, "f", wrap) == 2
    assert tracer._patch([a, b], a, "C.add", wrap) == 2
    assert tracer._patch([a, b], a, "C.make", wrap) == 1
    assert tracer._patch([a, b], a, "missing", wrap) == 0
    assert (a.f(), b.g(), C().add(C()), C() + C(), C.make()) == (1, 1, 2, 2, C)
    assert calls == ["f", "f", "add", "add", "make"]


def test_self_time_subtracts_direct_children(tmp_path, monkeypatch):
    ticks = itertools.count()
    monkeypatch.setattr(tracer.time, "perf_counter", lambda: float(next(ticks)))
    rec = tracer.Recorder()
    leaf = rec.span("leaf", lambda: None)
    mid = rec.span("mid", lambda: [leaf() for _ in range(3)])
    rec.span("root", lambda: (mid(), leaf()))()
    path = tmp_path / "spans"
    rec.dump(path)
    # root 0..11 holds mid 1..8 (leaves 2..3, 4..5, 6..7) and a leaf 9..10
    assert tracer.summarize(path)["spans"] == {
        "root": {"calls": 1, "total_s": 11.0, "self_s": 3.0, "weight": 0},
        "mid": {"calls": 1, "total_s": 7.0, "self_s": 4.0, "weight": 0},
        "leaf": {"calls": 4, "total_s": 4.0, "self_s": 4.0, "weight": 0}}


def test_metric_names_match_benchmark_json():
    empty = {"spans": {}, "counts": {}, "snf_in_nf": 0}
    layer = set(tracer.layer_metrics(empty, 1.0)) | {"trace.wall_s", "trace.overhead_s"}
    assert layer == {m["name"] for m in BENCHMARK["per_layer"]}
    rounds = [{"wall_s": 1.0, "rss_kb": 1, "stdout_bytes": 1}]
    assert ({m["name"] for m in BENCHMARK["end_to_end"]}
            == set(run.end_to_end(rounds, [1.0])))
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)
