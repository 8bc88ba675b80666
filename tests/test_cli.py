import collections
import contextlib
import enum
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import barbell.cli as cli
import barbell.hexagon as hexagon
import barbell.intlat as intlat
import barbell.laurent as laurent
from barbell import DomainError, selfcheck
from barbell.classes import GClass, delta, independence_rank
from barbell.cli import main
from barbell.hexagon import orbit_of, orbit_structure
from barbell.intlat import IntMatrix
from barbell.lambda_group import LambdaContext, lambda_structure
from barbell.laurent import LaurentPoly1, LaurentPoly2
from barbell.whitehead import derive_R_relators, pair_bracket
from test_golden import FK, GOLDEN, HEX


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_determinism_byte_identical(capsys):
    argv = ["fk", "--k", "5", "--check-skew", "--format", "json"]
    code1, out1, _ = run_cli(capsys, argv)
    code2, out2, _ = run_cli(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_help_bytes_do_not_depend_on_the_terminal_width(capsys, monkeypatch):
    def help_text(argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--help"])
        assert exc.value.code == 0
        return capsys.readouterr().out

    for argv in ([], ["fk"], ["hex", "reduce"], ["whitehead", "facet"]):
        monkeypatch.delenv("COLUMNS", raising=False)
        want = help_text(argv)
        for columns in ("40", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            assert help_text(argv) == want, (argv, columns)


def test_delta_expand_json_has_eight_terms(capsys):
    code, out, _ = run_cli(capsys, ["delta", "--k", "4", "--expand", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    cls = GClass.from_json(payload["class"])
    want = (GClass({(2, 3): 1, (3, 2): -1, (-3, -2): 1, (-2, -3): -1}).scale(3)
            - GClass({(2, -1): -1, (-2, 1): 1, (1, -2): -1, (-1, 2): 1}))
    assert cls == want
    assert len(payload["class"]["terms"]) == 8
    assert payload["expansion"] == payload["class"]
    assert payload["matches_expansion"] is True


def test_fk_check_skew_report(capsys):
    code, out, _ = run_cli(capsys, ["fk", "--k", "6", "--check-skew"])
    assert code == 0
    assert "skew: OK" in out


@pytest.mark.parametrize("bad", [(1, 3), (3, 1)], ids=["p<q", "p>q"])
def test_fk_check_skew_reports_a_corrupt_entry_on_either_side(capsys, monkeypatch, bad):
    # the report visits each unordered pair once, so both sides must be read
    good = cli.f_closed

    def corrupt(k, p, q):
        out = good(k, p, q)
        return out + GClass({(0, 0): 1}) if (p, q) == bad else out

    monkeypatch.setattr(cli, "f_closed", corrupt)
    code, out, _ = run_cli(capsys, ["fk", "--k", "5", "--check-skew", "--format", "json"])
    assert code == 0
    assert json.loads(out)["skew"] == "FAIL"


def test_fk_csv_matrix(capsys):
    code, out, _ = run_cli(capsys, ["fk", "--k", "4", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4  # header + 3 rows
    assert lines[0].startswith("p\\q,")


def test_fk_per_level_built_only_for_json(capsys, monkeypatch):
    # text and CSV print no per-level block, so they never build one; the
    # digests are those of the same argv without --per-level
    def refuse(k, p, q):
        raise RuntimeError("per-level block built")

    monkeypatch.setattr(cli, "f_levels", refuse)
    for argv, digest in (
            (["fk", "--k", "30", "--per-level", "--format", "text"],
             "9b695c1dac70e50a32cff9a5ba83f061596060bbab40fb8813501f1379ce600a"),
            (["fk", "--k", "16", "--per-level", "--format", "csv"],
             "2666a5ab7e5dd99dc9139c7c23dd21eb8b6151cb2b1cc8c0d275e9b9aabfbbb0")):
        code, out, _ = run_cli(capsys, argv)
        assert code == 0, argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv
    code, out, err = run_cli(capsys, ["fk", "--k", "3", "--per-level", "--format", "json"])
    assert (code, out) == (3, "")
    assert err == "internal error: RuntimeError: per-level block built\n"


# the text form of every golden argv, with its digest where that is pinned;
# selfcheck is left out, since its round-trip check calls to_json itself
_NOT_JSON = {}
for _argv, _digest in GOLDEN:
    if _argv[0] != "selfcheck":
        _text = tuple("text" if a == "json" else a for a in _argv)
        _NOT_JSON[_text] = _digest if "json" not in _argv else _NOT_JSON.get(_text)


@pytest.mark.parametrize("argv, digest", list(_NOT_JSON.items()),
                         ids=[" ".join(a[:3]) + " #%d" % i for i, a in enumerate(_NOT_JSON)])
def test_non_json_formats_build_no_json(capsys, monkeypatch, argv, digest):
    # text and CSV print the classes and normal forms themselves: every
    # handler's JSON payload is a function that only --format json calls
    def refuse(*args):
        raise RuntimeError("JSON built")

    _, want, _ = run_cli(capsys, list(argv))
    monkeypatch.setattr(laurent.Terms, "to_json", refuse)
    monkeypatch.setattr(cli, "_normal_form_text", refuse)
    code, out, err = run_cli(capsys, list(argv))
    assert (code, err, out) == (0, "", want)
    if digest is not None:
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_csv_rejected_elsewhere(capsys):
    code, _, err = run_cli(capsys, ["delta", "--k", "4", "--format", "csv"])
    assert code == 2
    assert "fk matrix" in err


def test_independence_text(capsys):
    code, out, _ = run_cli(capsys, ["independence", "--kmin", "4", "--kmax", "10",
                                    "--n", "3"])
    assert code == 0
    assert out.strip() == "rank 7 / 7: independent"


@pytest.mark.parametrize("n, verdict", [("3", "rank 2 / 3: DEPENDENT"),
                                        ("4", "rank 3 / 3: independent")])
def test_independence_k3_boundary(capsys, n, verdict):
    # W3(delta_3) is 0 at n = 3 and nonzero at n = 4
    code, out, _ = run_cli(capsys, ["independence", "--kmin", "3", "--kmax", "5",
                                    "--n", n])
    assert (code, out) == (0, verdict + "\n")


def test_independence_json_sparse_matrix(capsys):
    code, out, _ = run_cli(capsys, ["independence", "--kmin", "4", "--kmax", "10",
                                    "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert (payload["rank"], payload["count"], payload["independent"]) == (7, 7, True)
    rank, cols, rows = independence_rank([delta(k) for k in range(4, 11)], 3)
    assert payload["rank"] == rank
    got = payload["matrix"]
    assert set(got) == {"rows", "cols", "entries"}
    assert (got["rows"], got["cols"]) == (len(rows), cols)
    assert got["entries"] == sorted(got["entries"])
    assert all(v != "0" for _, _, v in got["entries"])
    back = [{} for _ in range(got["rows"])]
    for i, j, v in got["entries"]:
        back[i][j] = int(v)
    assert back == rows


def test_lambda_reduce_round_trip(capsys):
    poly = LaurentPoly1({2: 1, 0: -1})
    code, out, _ = run_cli(capsys, ["lambda", "reduce", "--w0", "1", "--n", "3",
                                    "--poly", json.dumps(poly.to_json()),
                                    "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    back = LaurentPoly1.from_json(payload["normal_form"]["free_part"])
    assert back == LaurentPoly1({2: 1})


def test_hex_reduce_and_change_basis(capsys):
    poly = LaurentPoly2.monomial(3, 1)
    code, out, _ = run_cli(capsys, ["hex", "reduce", "--n", "3",
                                    "--poly", json.dumps(poly.to_json()),
                                    "--format", "json"])
    assert code == 0
    assert json.loads(out)["is_zero"] is False
    code, out, _ = run_cli(capsys, ["hex", "change-basis", "--dir", "12to13",
                                    "--poly", json.dumps(LaurentPoly2.monomial(3, 1).to_json()),
                                    "--format", "json"])
    assert code == 0
    back = LaurentPoly2.from_json(json.loads(out)["result"])
    assert back == LaurentPoly2.monomial(2, -1, -1)


def test_orbit_commands(capsys):
    code, out, _ = run_cli(capsys, ["orbit", "--alpha", "1", "--beta", "0",
                                    "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["otype"] == "six"
    assert sorted(map(tuple, payload["elements"])) == sorted(
        [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)])
    code, out, _ = run_cli(capsys, ["orbit", "structure", "--alpha", "1",
                                    "--beta", "2", "--n", "4", "--format", "json"])
    assert code == 0
    assert json.loads(out)["structure"] == {"free_rank": 4, "torsion": []}


def test_orbit_options_at_either_level(capsys):
    # `orbit` is one parser level: its options go before or after `structure` alike
    tail = ["--alpha", "1", "--beta", "2", "--n", "3"]
    for fmt in ([], ["--format", "json"]):
        code, want, _ = run_cli(capsys, ["orbit", "structure"] + fmt + tail)
        assert code == 0
        for argv in (["orbit"] + fmt + ["structure"] + tail,
                     ["orbit", "--alpha", "1", "--beta", "2"] + fmt + ["structure", "--n", "3"],
                     ["orbit", "--alpha", "1"] + fmt + ["structure", "--beta", "2", "--n", "3"],
                     ["orbit", "--n", "3"] + fmt + ["structure", "--alpha", "1", "--beta", "2"]):
            code, out, _ = run_cli(capsys, argv)
            assert (code, out) == (0, want), argv
        if fmt:
            assert json.loads(want)["structure"] == {"free_rank": 3, "torsion": [2]}


def test_orbit_missing_flag_is_validation_error(capsys):
    code, _, err = run_cli(capsys, ["orbit", "--alpha", "1"])
    assert code == 2
    assert "--beta" in err
    code, _, err = run_cli(capsys, ["orbit", "structure", "--alpha", "1", "--beta", "2"])
    assert code == 2
    assert "--n" in err
    # --n without `structure` is read by nothing
    code, out, err = run_cli(capsys, ["orbit", "--alpha", "1", "--beta", "0", "--n", "3"])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cover_commands(capsys):
    alpha = json.dumps({"terms": [{"i": 4, "c": "1"}]})
    code, out, _ = run_cli(capsys, ["cover", "apply", "--m", "2", "--alpha", alpha,
                                    "--format", "json"])
    assert code == 0
    assert json.loads(out)["result"]["terms"] == [{"i": 2, "c": "2"}]
    code, out, _ = run_cli(capsys, ["cover", "kernel", "--m", "2", "--depth", "3",
                                    "--alpha", alpha, "--format", "json"])
    assert code == 0
    assert json.loads(out)["in_kernel"] is True


def test_whitehead_commands(capsys):
    code, out, _ = run_cli(capsys, ["whitehead", "facet", "--facet", "t3=1",
                                    "--alpha", "2", "--beta", "5", "--n", "3",
                                    "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["image"]["pairs"] == [
        {"i": 1, "j": 2, "base_exp": 2, "l": 3, "c": "1"}]
    code, out, _ = run_cli(capsys, ["whitehead", "relators", "--n", "3",
                                    "--window", "0,1", "--format", "json"])
    assert code == 0
    rels = {(r["alpha"], r["beta"]): r["relator"]
            for r in json.loads(out)["relators"]}
    assert rels[(0, 0)] == []
    assert len(rels[(1, 0)]) == 4


def test_validation_exit_codes(capsys, tmp_path):
    hex_reduce = ["hex", "reduce", "--n", "3", "--poly"]
    for argv in (["delta", "--k", "2"],
                 ["twist", "--k", "5", "--v", "1,1", "--w", "1,1,1,1"],
                 ["lambda", "reduce", "--w0", "1", "--n", "3", "--poly", "not json"],
                 ["fk", "--k", "0"],
                 ["fk", "--k", "1"],
                 ["twist", "--k", "1", "--v=", "--w="],
                 ["selfcheck", "--kmax", "1"],
                 ["selfcheck", "--kmax", "-5"],
                 ["hex", "reduce", "--n", "2", "--poly", '{"terms": []}'],
                 ["orbit", "structure", "--alpha", "1", "--beta", "0", "--n", "0"],
                 ["whitehead", "facet", "--facet", "t3=1", "--alpha", "2", "--beta", "5",
                  "--n", "2"],
                 ["whitehead", "relators", "--n", "2", "--window", "0,1"],
                 ["independence", "--kmin", "4", "--kmax", "6", "--n", "2"],
                 ["delta", "--k", "4", "--w3", "--n=-4"],
                 ["lambda", "structure", "--w0", "1", "--n", "2", "--window", "0,1"],
                 hex_reduce + ["[1]"],
                 hex_reduce + ['{"terms": {"e1": 0}}'],
                 hex_reduce + ['{"terms": [1]}'],
                 hex_reduce + ['{"terms": [{"e1": 2.5, "e2": 0, "c": "1"}]}'],
                 hex_reduce + ['{"terms": [{"e1": 0, "e2": true, "c": "1"}]}'],
                 hex_reduce + ['{"terms": [{"e1": 0, "e2": 0, "c": 1e3}]}'],
                 hex_reduce + ['{"terms": [{"e1": 0, "e2": 0, "c": "x"}]}'],
                 hex_reduce + ['{"terms": [{"e1": 0, "e2": 0, "c": "1_0"}]}'],
                 hex_reduce + ['{"terms": [{"e1": " 7", "e2": 0, "c": "1"}]}'],
                 hex_reduce + ['{"terms": [{"e1": 0, "e2": 0, "c": "\u0663"}]}'],
                 hex_reduce + ["[" * 50000],
                 ["delta", "--k", "4", "--output", str(tmp_path / "missing" / "x.json")],
                 ["lambda", "reduce", "--w0", "1", "--n", "3",
                  "--poly", '{"terms": [{"e": 1.0, "c": "1"}]}'],
                 ["cover", "apply", "--m", "2", "--alpha", '{"terms": [{"i": true, "c": "1"}]}']):
        code, out, err = run_cli(capsys, argv)
        assert code == 2, argv
        assert out == "" and err.startswith("error: "), argv
    # argparse's own errors take the same path, and a line break stays in the one line
    for argv in (["fk", "--k", "x"], ["orbit", "bogus", "--alpha", "1"],
                 ["orbit", "structure", "structure", "--alpha", "1"], ["orbit", "--alpha", "1"],
                 ["delta", "--k", "4", "--bogus"], ["delta", "--k", "4", "a\nb"],
                 ["delta", "--k", "4", "--output", str(tmp_path / "missing" / "a\nb")],
                 ["no-such-command"]):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv
    assert run_cli(capsys, ["fk"]) == (
        2, "", "error: barbell fk: the following arguments are required: --k\n")
    # a library DomainError in a payload reads as its message, not as its repr
    for argv, what, msg in (
            (["cover", "apply", "--m", "2", "--alpha", '{"terms": [{"i": 0, "c": "1"}]}'],
             "alpha combination", "alpha indices are positive"),
            (["lambda", "reduce", "--w0", "1", "--n", "3", "--poly",
              '{"terms": [{"e": true, "c": "1"}]}'],
             "polynomial", "e must be an integer or a decimal string, got True"),
            # a payload that is not an object with a "terms" list says so
            (hex_reduce + ['[1]'], "polynomial", 'expected an object with a "terms" list'),
            (hex_reduce + ['{"terms": {"e1": 0}}'], "polynomial",
             'expected an object with a "terms" list'),
            # a misspelt "terms" is not the zero polynomial, nor is any key beside it
            (["hex", "reduce", "--n", "3", "--format", "json", "--poly",
              '{"term": [{"e1": 0, "e2": 0, "c": "1"}]}'],
             "polynomial", 'expected an object with a "terms" list'),
            (["lambda", "reduce", "--w0", "5", "--n", "3", "--poly",
              '{"Terms": [{"e": 7, "c": "1"}]}'],
             "polynomial", 'expected an object with a "terms" list'),
            (hex_reduce + ['{}'], "polynomial", 'expected an object with a "terms" list'),
            (["cover", "apply", "--m", "2", "--alpha", '{"terms": [], "m": 2}'],
             "alpha combination", 'unknown key \'m\' next to "terms"'),
            # a term that is not an object, or lacks a key, names the key
            (hex_reduce + ['{"terms": [1]}'], "polynomial",
             "each term must be an object with an integer e1"),
            (hex_reduce + ['{"terms": ["x"]}'], "polynomial",
             "each term must be an object with an integer e1"),
            (hex_reduce + ['{"terms": [{"e1": 0, "c": "1"}]}'], "polynomial",
             "each term must be an object with an integer e2")):
        assert run_cli(capsys, argv) == (2, "", "error: bad %s payload: %s\n" % (what, msg))
    with pytest.raises(SystemExit) as exc:
        main(["fk", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: barbell fk ")


def _normal_form_json(nf):
    """The JSON object of a HexNormalForm, built as dicts: the reference
    that cli._normal_form_text writes without them."""
    return {"orbits": [{"rep": list(rep),
                        "coords": [{"value": str(v), "modulus": m} for v, m in coords]}
                       for rep, coords in sorted(nf.orbits.items())]}


def test_integers_of_any_size_go_in_and_out(capsys):
    # past Python's default 4300-digit int <-> str limit, as a decimal
    # string and as a JSON literal; main lifts the limit only while it runs
    big = "1" + "0" * 4998 + "7"
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    for c in ('"%s"' % big, "-" + big):
        poly = '{"terms": [{"e1": 3, "e2": 1, "c": %s}]}' % c
        code, out, err = run_cli(capsys, ["hex", "reduce", "--n", "3", "--poly", poly,
                                          "--format", "json"])
        assert (code, err) == (0, "")
        coords = json.loads(out)["normal_form"]["orbits"][0]["coords"]
        assert [v["value"] for v in coords if v["value"] != "0"] == [c.strip('"')]
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    # a sum past the limit from inputs within it: 3 * (10^4300 - 1)
    poly = json.dumps({"terms": [{"e1": 3, "e2": 1, "c": "9" * 4300}] * 3})
    code, out, err = run_cli(capsys, ["hex", "reduce", "--n", "3", "--poly", poly,
                                      "--format", "json"])
    assert (code, err) == (0, "")
    coords = json.loads(out)["normal_form"]["orbits"][0]["coords"]
    assert [v["value"] for v in coords if v["value"] != "0"] == ["2" + "9" * 4299 + "7"]
    # the orbit template's %d is bound by the same limit: every byte of a
    # form with 5000-digit values of either sign in three orbits, at even n
    poly = json.dumps({"terms": [{"e1": 3, "e2": 1, "c": big}, {"e1": 1, "e2": 0, "c": "-" + big},
                                 {"e1": 2, "e2": 1, "c": big}, {"e1": 0, "e2": 0, "c": "1"}]})
    code, out, err = run_cli(capsys, ["hex", "reduce", "--n", "4", "--poly", poly,
                                      "--format", "json"])
    assert (code, err) == (0, "")
    values = [c["value"] for orbit in json.loads(out)["normal_form"]["orbits"]
              for c in orbit["coords"]]
    assert big in values and "-" + big in values
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        nf = hexagon.hex_normal_form(LaurentPoly2.from_json(json.loads(poly)), 4)
        want = {"is_zero": False, "n": 4, "normal_form": _normal_form_json(nf)}
        assert out == json.dumps(want, sort_keys=True, indent=2) + "\n"
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("exc", [KeyError("boom"), TypeError("boom"), AssertionError("boom")],
                         ids=["KeyError", "TypeError", "AssertionError"])
def test_internal_fault_exits_3(capsys, monkeypatch, exc):
    # any exception that is not a validation error is an internal fault,
    # reported in one format whatever its type
    def broken(k, p, q):
        raise exc

    monkeypatch.setattr(cli, "f_closed", broken)
    code, out, err = run_cli(capsys, ["fk", "--k", "3"])
    assert code == 3
    assert out == ""
    assert err == "internal error: %s: %s\n" % (type(exc).__name__, exc)


def test_library_rejects_sphere_dimension_below_3():
    # the CLI exits 2 on --n < 3 before any of these run; the library
    # entry points refuse the same n themselves
    calls = (lambda: orbit_structure(orbit_of(1, 0), 1),
             lambda: hexagon.hex_normal_form(LaurentPoly2.monomial(0, 0), 2),
             lambda: pair_bracket(1, 2, 2),
             lambda: derive_R_relators(1, (-1, 1)),
             lambda: independence_rank([delta(4)], 1))
    for call in calls:
        with pytest.raises(DomainError, match="sphere dimension n must be >= 3"):
            call()


def test_internal_value_error_exits_3(capsys, monkeypatch):
    # a product of mismatched matrices makes IntMatrix.mul raise a plain
    # ValueError, which is a fault of the package, not of the input
    monkeypatch.setattr(cli, "hex_normal_form",
                        lambda poly, n: IntMatrix.identity(2).mul(IntMatrix.identity(1)))
    code, out, err = run_cli(capsys, ["hex", "reduce", "--n", "3", "--poly", HEX,
                                      "--format", "json"])
    assert (code, out) == (3, "")
    assert err == "internal error: ValueError: shape mismatch in matrix product\n"


PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=200)

_CHARS = st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\b\f\n\r\t\u00e9\u2028\uffff'
                                   "\U0001f600\U0010ffff"),
                   st.characters())
_TEXT = st.text(_CHARS, max_size=8)
_HUGE = st.builds(lambda i, e: i * 10 ** e, st.integers(), st.integers(0, 80))
_LEAVES = st.one_of(_TEXT, st.integers(), _HUGE, st.booleans(), st.none())
_TREES = st.recursive(
    _LEAVES,
    lambda kids: st.one_of(st.lists(kids, max_size=4),
                           st.lists(kids, max_size=4).map(tuple),
                           st.dictionaries(_TEXT, kids, max_size=4)),
    max_leaves=30)


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 12


_Pair = collections.namedtuple("_Pair", "value modulus")


@PROPERTY
@given(_TREES)
# subclasses take the isinstance path; bool, None and empty containers sit among plain siblings
@example(_Pair("7", 0))
@example({"coords": [_Pair(-3, 2), _Pair("x", None)]})
@example(collections.OrderedDict([("b", 1), ("a", [2, "c"])]))
@example([collections.OrderedDict([("z", 0)]), "s"])
@example(_Level.HIGH)
@example([_Level.LOW, 3, {"n": _Level.HIGH}])
@example([1, True, "a", None, False, -2])
@example({"a": 1, "b": True, "c": None, "d": "x", "e": False})
@example([1, [], "a", {}, 2, (), None])
@example({"a": {}, "b": 3, "c": [], "d": "x", "e": ()})
def test_json_text_equals_json_dumps(obj):
    assert cli._json_text(obj) == json.dumps(obj, sort_keys=True, indent=2)


@pytest.mark.parametrize("obj", [0.5, {1, 2}, {1: "a"}, {"a": [1, {2: 3}]}, [float("nan")],
                                 [1, "a", 0.5, 2]],
                         ids=["float", "set", "int key", "nested int key", "nan",
                              "float in a flat list"])
def test_json_text_rejects_what_is_not_the_contract(obj):
    with pytest.raises(TypeError):
        cli._json_text(obj)


def test_float_in_payload_exits_3(capsys, monkeypatch):
    monkeypatch.setitem(cli._HANDLERS, "delta", lambda args: (lambda: {"k": 0.5}, lambda: []))
    code, out, err = run_cli(capsys, ["delta", "--k", "4", "--format", "json"])
    assert (code, out) == (3, "")
    assert err.startswith("internal error: TypeError: ") and err.count("\n") == 1


_INT = st.integers(-4, 8).map(str)
_JUNK = st.sampled_from(["x", "", "1.5", "--bogus", "a\nb"])
_WINDOW = st.tuples(st.integers(-6, 6), st.integers(-6, 6)).map("%d,%d".__mod__)
_CSV = st.lists(st.integers(-1, 1), max_size=5).map(lambda v: ",".join(map(str, v)))
_BAD_PAYLOADS = ["not json", "[1]", '{"terms": {}}', '{"terms": [1]}', '{"terms": [{"c": "1"}]}',
                 '{"terms": [{"e": 1.5, "e1": true, "i": -1, "c": "1"}]}']


def _payload(*valid):
    return st.just(json.dumps({"terms": list(valid)})) | st.sampled_from(_BAD_PAYLOADS)


_POLY1 = _payload({"e": 2, "c": "3"}, {"e": -1, "c": "-1"})
_POLY2 = _payload({"e1": 2, "e2": 1, "c": "4"}, {"e1": -1, "e2": -1, "c": "-5"})
_ALPHA = _payload({"i": 4, "c": "1"}, {"i": 2, "c": "-3"})
_FLAG = st.just(None)
# each subcommand path with its options; a None value is a flag that takes none
_PATHS = {
    ("lambda", "reduce"): {"--w0": _INT, "--n": _INT, "--poly": _POLY1},
    ("lambda", "structure"): {"--w0": _INT, "--n": _INT, "--window": _WINDOW},
    ("cover", "apply"): {"--m": _INT, "--alpha": _ALPHA},
    ("cover", "kernel"): {"--m": _INT, "--depth": _INT, "--alpha": _ALPHA},
    ("whitehead", "facet"): {"--facet": st.sampled_from(["t1=0", "t1=t2", "t2=t3", "t3=1"]),
                             "--alpha": _INT, "--beta": _INT, "--n": _INT, "--a1": _INT},
    ("whitehead", "relators"): {"--n": _INT, "--window": _WINDOW},
    ("orbit",): {"--alpha": _INT, "--beta": _INT, "--n": _INT},
    ("orbit", "structure"): {"--alpha": _INT, "--beta": _INT, "--n": _INT},
    ("hex", "reduce"): {"--n": _INT, "--poly": _POLY2},
    ("hex", "change-basis"): {"--dir": st.sampled_from(["13to12", "12to13"]), "--poly": _POLY2},
    ("fk",): {"--k": _INT, "--per-level": _FLAG, "--check-skew": _FLAG, "--sum": _FLAG},
    ("delta",): {"--k": _INT, "--expand": _FLAG, "--w3": _FLAG, "--n": _INT},
    ("twist",): {"--k": _INT, "--v": _CSV, "--w": _CSV},
    ("independence",): {"--kmin": _INT, "--kmax": _INT, "--n": _INT},
    # a passing selfcheck is slow: --kmax is always given, and never above 2
    ("selfcheck",): {"--kmax": st.sampled_from(["-1", "0", "2"])},
}
_COMMON = {"--format": st.sampled_from(["json", "csv", "text"]), "--seed": _INT}


@st.composite
def _argvs(draw):
    # mostly well-formed: an option left out, a junk value or a junk path is one in 10 or 20
    path = draw(st.sampled_from(sorted(_PATHS)))
    options = dict(_PATHS[path], **_COMMON)
    names = draw(st.permutations([n for n in sorted(options) if draw(st.integers(0, 9))]))
    if path == ("selfcheck",) and "--kmax" not in names:
        names.append("--kmax")
    argv = list(path) if draw(st.integers(0, 19)) else [draw(_JUNK | st.just("bogus"))]
    for name in names:
        value = draw(options[name] if draw(st.integers(0, 19)) else _JUNK)
        if value is None:
            argv.append(name)
        else:  # `--window -3,2` is an error that `--window=-3,2` is not
            argv += ["%s=%s" % (name, value)] if draw(st.booleans()) else [name, value]
    for _ in range(draw(st.sampled_from([0] * 8 + [1, 2]))):  # junk, or the action again
        argv.insert(draw(st.integers(0, len(argv))), draw(_JUNK | st.just(path[-1])))
    return argv


@PROPERTY
@given(_argvs())
def test_exit_codes_of_any_argv(argv):
    # argv alone never gives exit 3; exit 2 is one error line and no output
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2), (argv, err)
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert "Error(" not in err, (argv, err)  # a message, never an exception's repr
    else:
        assert err == "", argv


# each orbit shape and coords length (1, 4 and 7), negative and huge values
_ALL_SHAPES = LaurentPoly2({(0, 0): 3, (1, 0): -2, (0, 1): 5, (5, 5): -3, (2, 1): 4,
                            (1, 2): -1, (-1, 1): 7, (3, 1): 6, (1, 3): -9, (2, -1): 1,
                            (-2, 5): -123456789012345678901234567890})
# odd coefficients on an edge orbit (torsion at odd n) and a vertex orbit (at even n)
_TORSION = LaurentPoly2({(-2, -1): 1, (-1, -1): -5})
# the empty form, from no terms and from a nonzero sum of relators
_LEAF_EXAMPLES = [(LaurentPoly2({}), 3), (hexagon.k_relator(2, 1, 4).scale(-3), 4),
                  (_ALL_SHAPES, 3), (_ALL_SHAPES, 4), (_TORSION, 3), (_TORSION, 4)]


def test_normal_form_leaf_examples_cover_every_case():
    forms = [hexagon.hex_normal_form(poly, n) for poly, n in _LEAF_EXAMPLES]
    assert sum(nf.is_zero() for nf in forms) == 2
    coords = [c for nf in forms for cs in nf.orbits.values() for c in cs]
    assert any(v < 0 for v, _ in coords)
    for n in (3, 4):
        assert any(m > 1 and v for (_, n_), nf in zip(_LEAF_EXAMPLES, forms) if n_ == n
                   for cs in nf.orbits.values() for v, m in cs), n
    assert {hexagon._shape(rep) for nf in forms for rep in nf.orbits} == {
        "origin", "vertex", "edge", "twelve"}


_EXPONENTS = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
_POLYS = st.dictionaries(_EXPONENTS, st.one_of(st.integers(-3, 3), _HUGE),
                         max_size=12).map(LaurentPoly2)


def _with_leaf_examples(test):
    for poly, n in _LEAF_EXAMPLES:
        test = example(poly, n)(test)
    return test


@_with_leaf_examples
@PROPERTY
@given(_POLYS, st.sampled_from([3, 4]))
def test_normal_form_leaf_equals_json_dumps(poly, n):
    # at top level, as delta --w3 nests it, and inside a list after a scalar
    nf = hexagon.hex_normal_form(poly, n)
    ref = _normal_form_json(nf)
    for obj, want in ((nf, ref),
                      ({"n": n, "w3_normal_form": nf, "w3_is_zero": nf.is_zero()},
                       {"n": n, "w3_normal_form": ref, "w3_is_zero": nf.is_zero()}),
                      ([1, nf, "x", [nf]], [1, ref, "x", [ref]])):
        assert cli._json_text(obj) == json.dumps(want, sort_keys=True, indent=2)


def test_json_never_formats_text(capsys, monkeypatch):
    def refuse(self):
        raise RuntimeError("__repr__ called")

    monkeypatch.setattr(hexagon.HexNormalForm, "__repr__", refuse)
    monkeypatch.setattr(GClass, "__repr__", refuse)
    digests = {tuple(argv): digest for argv, digest in GOLDEN}
    for argv in (FK + ["--format", "json"],
                 ["hex", "reduce", "--n", "3", "--poly", HEX, "--format", "json"]):
        code, out, _ = run_cli(capsys, argv)
        assert code == 0, argv
        assert hashlib.sha256(out.encode()).hexdigest() == digests[tuple(argv)]
        code, out, err = run_cli(capsys, argv[:-1] + ["text"])
        assert (code, out) == (3, ""), argv
        assert err == "internal error: RuntimeError: __repr__ called\n"


def test_seed_flag_accepted(capsys):
    code, out, _ = run_cli(capsys, ["delta", "--k", "4", "--seed", "17"])
    assert code == 0
    code2, out2, _ = run_cli(capsys, ["delta", "--k", "4", "--seed", "99"])
    assert out == out2


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, ["delta", "--k", "4", "--format", "json",
                                    "--output", str(target)])
    assert code == 0
    assert out == ""
    assert GClass.from_json(json.loads(target.read_text())["class"]) == delta(4)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [["delta", "--k", "4"], ["fk", "--k", "20", "--format", "json"]],
                         ids=["small", "large"])
def test_unwritable_stdout_exits_2(argv, unbuffered):
    # a full device is an unwritable output like a bad --output: one error
    # line and exit 2, with nothing left over for the flush at interpreter exit
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    with open("/dev/full", "w") as full:
        run = subprocess.run([sys.executable, "-m", "barbell.cli"] + argv, env=env,
                             stdout=full, stderr=subprocess.PIPE, text=True)
    assert (run.returncode, run.stderr) == (2, "error: cannot write stdout: "
                                               "No space left on device\n")


def test_selfcheck_passes(capsys):
    code, out, _ = run_cli(capsys, ["selfcheck", "--kmax", "6"])
    assert code == 0
    assert "FAIL" not in out
    assert "ok   relator orbit-locality" in out


def test_group_structures_run_no_smith_form(capsys, monkeypatch):
    # both structure commands answer from closed forms; the Smith form is
    # only the oracle, so a broken one must not reach them
    def broken(m):
        raise AssertionError("smith_normal_form called")

    monkeypatch.setattr(intlat, "smith_normal_form", broken)
    monkeypatch.setattr(hexagon, "smith_normal_form", broken)
    got = lambda_structure(LambdaContext(3, 4), (-300, 300))
    assert (got.free_rank, got.torsion) == (299, (2,))
    for n in (3, 4):
        for a in range(-6, 7):
            for b in range(-6, 7):
                orbit_structure(orbit_of(a, b), n)
    for argv in (["lambda", "structure", "--w0", "5", "--n", "4", "--window=-20,20"],
                 ["orbit", "structure", "--alpha", "1", "--beta", "2", "--n", "4"]):
        code, out, _ = run_cli(capsys, argv)
        assert code == 0 and "structure" in out, argv


def test_selfcheck_fault_injection_names_check(capsys, monkeypatch):
    # corrupt one relator instance so it escapes its orbit
    real = hexagon.k_relator

    def corrupt(p, q, n):
        rel = real(p, q, n)
        if (p, q) == (2, 1):
            rel = rel + LaurentPoly2.monomial(99, 98)
        return rel

    monkeypatch.setattr(hexagon, "k_relator", corrupt)
    code, out, err = run_cli(capsys, ["selfcheck", "--kmax", "4"])
    assert code == 3
    assert "invariant violated: relator orbit-locality" in err
    assert "FAIL relator orbit-locality" in out


@pytest.mark.parametrize("fmt, digest", [
    ("text", "7f74cb155b73e4d1cdf6dc0fb230a6d65021e006ec840fe892472c99f38d3ddb"),
    ("json", "38a221eb1ddb58dde762330476eab850c3cd1a7473b26e36a2342426782ef60a"),
], ids=["text", "json"])
def test_selfcheck_failure_report_bytes(capsys, monkeypatch, fmt, digest):
    # two faults: a relator escaping its orbit fails orbit-locality, relator
    # family equivalence and normal-form soundness, whose spans are keyed by
    # monomial, and crashes torsion factors, where orbit_relators raises an
    # AssertionError naming the relator's point, the escaping monomial and
    # the orbit's rep; a raising cover_pullback crashes one
    real = hexagon.k_relator

    def corrupt(p, q, n):
        rel = real(p, q, n)
        return rel + LaurentPoly2.monomial(99, 98) if (p, q) == (2, 1) else rel

    def broken(m, x):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(hexagon, "k_relator", corrupt)
    monkeypatch.setattr(selfcheck, "cover_pullback", broken)
    code, out, err = run_cli(capsys, ["selfcheck", "--kmax", "4", "--format", fmt])
    assert (code, err) == (3, "invariant violated: cover multiplicativity\n")
    assert hashlib.sha256(out.encode()).hexdigest() == digest
