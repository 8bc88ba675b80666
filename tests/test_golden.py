"""Golden stdout digests: fixed argv must keep printing the same bytes.

Each row is an argv and the sha256 of its stdout.  A change that moves
any output byte fails here; if the change is meant to, the digest is
recomputed and the contract change is recorded.
"""

import hashlib
import json
import re
from pathlib import Path

import pytest

from barbell.cli import main


def _payload(terms):
    return json.dumps({"terms": terms})


# origin (0,0); vertex-six orbits of (1,0) and (5,5); edge-six orbits of
# (2,1) and (-1,1); twelve-orbits of (3,1), (2,-1) and (-2,5)
HEX = _payload([
    {"e1": 0, "e2": 0, "c": "3"},
    {"e1": 1, "e2": 0, "c": "-2"},
    {"e1": 0, "e2": 1, "c": "5"},
    {"e1": 5, "e2": 5, "c": "-3"},
    {"e1": 2, "e2": 1, "c": "4"},
    {"e1": 1, "e2": 2, "c": "-1"},
    {"e1": -1, "e2": 1, "c": "7"},
    {"e1": 3, "e2": 1, "c": "6"},
    {"e1": 1, "e2": 3, "c": "-9"},
    {"e1": 2, "e2": -1, "c": "1"},
    {"e1": -2, "e2": 5, "c": "123456789012345678901234567890"},
])
# monomials near 10^30 on all six degenerate lines: the origin, the
# vertex-six orbits of (T, 0) and (U, 0) and the edge-six orbits of (T, 2T)
# and (U, 2U), three of them met at more than one monomial
_T, _U = 10 ** 30 + 7, 2 * 10 ** 30 - 3
LINES = _payload([{"e1": a, "e2": b, "c": c} for (a, b), c in [
    ((_T, 0), "3"), ((0, -_T), "-5"), ((_T, _T), "2"), ((-_U, 0), "7"), ((0, _U), "-1"),
    ((_T, -_T), "4"), ((_T, 2 * _T), "-6"), ((2 * _T, _T), "123456789012345678901234567890"),
    ((-_U, -2 * _U), "9"), ((2 * _U, _U), "-2"), ((-_U, _U), "1"), ((0, 0), "1")]])
CHART = _payload([{"e1": 3, "e2": 1, "c": "1"}, {"e1": -2, "e2": 4, "c": "-5"},
                  {"e1": 0, "e2": 0, "c": "2"}])
POLY1 = _payload([{"e": 2, "c": "1"}, {"e": 0, "c": "-1"}, {"e": -3, "c": "4"},
                  {"e": 7, "c": "-2"}])
ALPHA = _payload([{"i": 4, "c": "1"}, {"i": 6, "c": "-3"}, {"i": 9, "c": "2"}])
FK = ["fk", "--k", "12", "--per-level", "--check-skew", "--sum"]
# twist vectors of length 39 with zero and negative weights
V40 = ("2,-2,5,1,-3,4,0,-4,3,-1,-5,2,-2,5,1,-3,4,0,-4,3,-1,-5,"
       "2,-2,5,1,-3,4,0,-4,3,-1,-5,2,-2,5,1,-3,4")
W40 = ("1,-3,2,-2,3,-1,4,0,-4,1,-3,2,-2,3,-1,4,0,-4,1,-3,2,-2,"
       "3,-1,4,0,-4,1,-3,2,-2,3,-1,4,0,-4,1,-3,2")

GOLDEN = [
    (FK + ["--format", "json"],
     "e0a35e7bd44906273e882edc44468356d75e64a68767bac26d86b5507d0e8473"),
    (FK + ["--format", "csv"],
     "6541970ade13c0ac18b01bd0d35b3c4a30639247891771991b69829a7d5cc6c4"),
    (FK + ["--format", "text"],
     "07b6c623917408f3bd910c7b54931c400ba93a7b3c65fe25ff63ab305bf786c9"),
    (["delta", "--k", "9", "--expand", "--w3"],
     "877f25bc09a55f31a321efa4c1d0cbb462d45fb5ee77474272832dce448ba060"),
    (["delta", "--k", "9", "--expand", "--w3", "--format", "json"],
     "d1c2cb9506a07602c5528936927ea9251fc06883073a2b36cb7e48eed58f0655"),
    (["independence", "--kmin", "4", "--kmax", "40", "--format", "json"],
     "3c651955beea823e2915c6aa28f9b028ca4f7179e5bb04d6fbe4fc24cdd546e4"),
    (["independence", "--kmin", "4", "--kmax", "40"],
     "7c1602e237f4f731f4504f26438b0a10c298947675dd29b79ea44e806ffa30b8"),
    (["hex", "reduce", "--n", "3", "--poly", HEX, "--format", "json"],
     "f14e016824344d2cb6c3c63b92319b09b873513f11b34b15646a54c838a11dba"),
    (["hex", "reduce", "--n", "4", "--poly", HEX, "--format", "json"],
     "c5c1efdff63f2f1430dcdf8fba4c5dd4d21e611d0961b5cea4cc5d57d990ad3e"),
    (["hex", "reduce", "--n", "3", "--poly", HEX],
     "ba8096c7b87ba07838feac5c936aaffdfd3787c0e219afea67ab5107ece8875a"),
    (["hex", "change-basis", "--dir", "12to13", "--poly", CHART, "--format", "json"],
     "b84d46326e847bdda4d28ff0e47dbfb6c71e253af285a1f6619e4bda3a99a1a3"),
    (["hex", "change-basis", "--dir", "13to12", "--poly", CHART, "--format", "json"],
     "6e745c93d49d5680b6b5d01106125b4a11648927d9eb5bbcd28198ad64693f41"),
    (["orbit", "--alpha", "3", "--beta", "1", "--format", "json"],
     "b87ac46497f32812f0dd2fd3f14bee5b12e891f79e0c5b3b69a61229db356135"),
    (["orbit", "--alpha", "-2", "--beta", "0"],
     "65542a9a25d5be22f526dac37f72734ee103eedc3d85a83f30014cf259f5965d"),
    (["orbit", "structure", "--alpha", "1", "--beta", "2", "--n", "4", "--format", "json"],
     "fbb43eb5c46efaa0258ff766e2b4aabcba75be6a4f9bb37783b80483f3eed15f"),
    (["lambda", "reduce", "--w0", "5", "--n", "4", "--poly", POLY1, "--format", "json"],
     "0704ec0d96410f4e27bdcd826f9c1dc60cdfcae5f91bae93d622c9df5f4a922c"),
    (["lambda", "structure", "--w0", "5", "--n", "4", "--window=-20,20"],
     "90835d93d549a09dd106f7c621f0b46079c8f2fdf2e5352b776c78d4b632fc8b"),
    (["whitehead", "relators", "--n", "3", "--window=-3,3", "--format", "json"],
     "bd74e36799dee498415794f4b07c20ebde95de38e6fc21ef50c69e707a3900a5"),
    (["whitehead", "facet", "--facet", "t1=t2", "--alpha", "1", "--beta", "-2",
      "--n", "4", "--format", "json"],
     "5f16e1b569bed1d11aa66044e04e6763a94484d839cdd7661aa2e2e063f99c52"),
    (["cover", "apply", "--m", "3", "--alpha", ALPHA, "--format", "json"],
     "89fd69cab36c4face12c4ce02e78ef25b7fd74f4e3ab2302bfd7e830121ea6ab"),
    (["cover", "kernel", "--m", "2", "--depth", "3", "--alpha", ALPHA],
     "381a95460e77f75726cc27fb99c8a845c026491607edf5748f969e54739fee4a"),
    (["twist", "--k", "5", "--v=0,-1,0,1", "--w", "0,0,1,0", "--format", "json"],
     "a35158970b5e21363fbe8c70e3e9ea6adc64c8a33380bd88cd31e9d85e6f86de"),
    (["selfcheck", "--kmax", "6", "--format", "json"],
     "2ff0b5402263627a250ce59b701094ba2f4dc5498b9f49a39092ebd3c6adef54"),
    # sparse independence JSON beyond kmax 40; a twist sum that skips zero weights
    (["independence", "--kmin", "4", "--kmax", "600", "--n", "4", "--format", "json"],
     "256c648305f9f65273b3bf9a50f5c1bdd3bab3b59272227cb6d9612b3b278e00"),
    (["twist", "--k", "9", "--v", "1,0,2,0,-3,1,1,1", "--w", "0,0,1,2,3,4,5,6",
      "--format", "json"],
     "939818057d683a565b0e9a539c916b0fff76531c9a5a361a10b942d827b29752"),
    # both chambers and the zero-weight corners of f_closed at k = 30; a
    # 4362-term flat twist sum
    (["fk", "--k", "30", "--check-skew", "--sum", "--format", "json"],
     "0fd281b89f401017efccff2318842fce817ced6bf1c199b17d0eedcf56c73e16"),
    (["twist", "--k", "40", "--v", V40, "--w", W40, "--format", "json"],
     "69454d932405fecb80d1762631fe9e5688893c8a9c553dbe5de93a4aa00a6d67"),
    # empty JSON containers: "orbits": [] and "entries": []
    (["hex", "reduce", "--n", "3", "--poly", '{"terms":[]}', "--format", "json"],
     "c8e93695ff91c92684308d47836ce40950658b5991cd5920b7bd0ff50b6f2040"),
    (["independence", "--kmin", "3", "--kmax", "3", "--format", "json"],
     "7a5f5eb671578122b4d19a0f62eb18d98f7ed5dfc8a95a431729f47a14059d6f"),
    # per-level blocks of both chambers and the p = q lines, whose levels
    # share one class per case; text prints no per-level block
    (["fk", "--k", "20", "--per-level", "--format", "json"],
     "8fb6c34d571e6262ecbf70d1d9b794eb4a0b425619d6684d5431731a876354bf"),
    (["fk", "--k", "30", "--per-level", "--format", "text"],
     "9b695c1dac70e50a32cff9a5ba83f061596060bbab40fb8813501f1379ce600a"),
    # even n: pair folds pick up the graded-swap sign and keep l = 0
    (["whitehead", "relators", "--n", "4", "--window=-5,5", "--format", "json"],
     "5ffdce86e11532a4c67713f507489f43df00a06d3a5428bf5101676e2ca7e8b6"),
    # nonzero velocity degree on a doubling facet, text output
    (["whitehead", "facet", "--facet", "t2=t3", "--alpha", "3", "--beta", "-2",
      "--n", "3", "--a1", "4", "--format", "text"],
     "b453cc4c5e2229fe4113b8be9955bf3cce6a8f2eb49910f7d554c40c465945bb"),
    # a W3 normal form at even n, written by the orbit template
    (["delta", "--k", "9", "--w3", "--n", "4", "--format", "json"],
     "1db6102459ded1b3f9f5796ff7962556ddf3805aa033055716c05e622d9f2221"),
    # the quotient structure as JSON: free rank and the torsion list
    (["lambda", "structure", "--w0", "5", "--n", "4", "--window=-20,20", "--format", "json"],
     "13f76ec29e258b7e636a7249a56e1fbff4d52336c4221c0478fd423c64c70c3b"),
    # a W3 normal form whose monomials all lie on the degenerate lines
    (["hex", "reduce", "--n", "4", "--format", "json", "--poly", LINES],
     "2c1de1b864582906dbdb7377151e5b3e33eaf0097bdf88797758b4c44c770d02"),
    # lambda reduce text: free part only, free part and torsion bit, torsion bit only
    (["lambda", "reduce", "--w0", "5", "--n", "3", "--poly", POLY1],
     "dd7908fd0e2ee080a741e258d67ef79f7926a79bc70d0e1d7bfa8b7f157b5a86"),
    (["lambda", "reduce", "--w0", "5", "--n", "4", "--poly", POLY1],
     "b3a05b28f9a34caf441ab9896029364fcb3a9625d52d3a1c8afb1c49da5e377b"),
    (["lambda", "reduce", "--w0", "5", "--n", "4", "--poly", _payload([{"e": 2, "c": "3"}])],
     "9216490816e94373b42b37993233f7dab1339ae1c464aba57938cfa28b9a75cb"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN,
                         ids=[" ".join(a[:3]) + " #%d" % i for i, (a, _) in enumerate(GOLDEN)])
def test_golden_stdout(capsys, argv, digest):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_readme_states_the_golden_count():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    stated = re.search(r"stdout of\s+(\d+)\s+fixed\s+argv", readme)
    assert stated and int(stated.group(1)) == len(GOLDEN)


def test_outputs_depend_on_n_only_through_its_parity(capsys):
    # each golden argv that takes --n prints the same bytes at n + 2 and at
    # n + 10^6, once the echoed n is written back
    rows = [(argv, digest) for argv, digest in GOLDEN if "--n" in argv]
    assert rows
    for argv, digest in rows:
        i = argv.index("--n") + 1
        n = int(argv[i])
        for m in (n + 2, n + 10 ** 6):
            assert main(argv[:i] + [str(m)] + argv[i + 1:]) == 0, (argv, m)
            out = capsys.readouterr().out
            out = out.replace('"n": %d' % m, '"n": %d' % n).replace("(n=%d)" % m, "(n=%d)" % n)
            assert hashlib.sha256(out.encode()).hexdigest() == digest, (argv, m)
