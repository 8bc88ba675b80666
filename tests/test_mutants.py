"""Mutation census rows: each mutant must make `selfcheck` fail, naming its check.

A row is (file, exact old text, new text, the check that must name it).
The test copies the whole tree, applies the mutant in the copy and runs
`selfcheck` there: pytest puts this checkout's `src` on sys.path, so a
mutated copy of `src` alone would import the unmutated package.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

MUTANTS = [
    # the shape table is derived from orbit_relators at import, so the
    # mutant is consistent: only an oracle with its own relators sees it
    ("src/barbell/hexagon.py",
     "    return IntMatrix(len(rows), len(orbit.elements), rows)\n",
     "    rows = rows[1:] if len(rows) > 2 else rows\n"
     "    return IntMatrix(len(rows), len(orbit.elements), rows)\n",
     "normal-form soundness"),
    # membership and every answer are unchanged by a negative pivot
    ("src/barbell/intlat.py",
     "                if v[j] < 0:\n",
     "                if False:\n",
     "snf certificate"),
    # a sign flip in the Smith form's 2x2 step: its U is no longer unimodular,
    # which the row span sees because it shares no step with the Smith form
    ("src/barbell/intlat.py",
     "    return x, y, -(q // g), p // g\n",
     "    return x, y, q // g, p // g\n",
     "snf certificate"),
    # Euclid's swap drops the displaced row, so the span loses a generator
    ("src/barbell/intlat.py",
     "                self.rows[j], v = v, row\n",
     "                self.rows[j], v = v, {}\n",
     "snf certificate"),
    # a level case and a closed-form weight off by one: per-level agreement
    # names both at its proof points, which it checks before its sweep
    ("src/barbell/classes.py",
     '        return "IIr" if p + q >= k else "IIre"\n',
     '        return "IIr" if p + q > k else "IIre"\n',
     "per-level agreement"),
    ("src/barbell/classes.py",
     "c * (k - p - 1)",
     "c * (k - p)",
     "per-level agreement"),
    # a sign flip in a roman form: skew symmetry names it at its proof points
    ("src/barbell/classes.py",
     "((p + q, -q), -c)",
     "((p + q, -q), c)",
     "skew symmetry"),
]


# a row's id is its check's name; a check that names several rows adds the
# row's index after its first
IDS = [check if all(m[3] != check for m in MUTANTS[:i]) else "%s %d" % (check, i)
       for i, (_, _, _, check) in enumerate(MUTANTS)]


@pytest.mark.parametrize("path, old, new, check", MUTANTS, ids=IDS)
def test_selfcheck_names_the_mutant(tmp_path, path, old, new, check):
    tree = tmp_path / "tree"
    shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks", "out"))
    target = tree / path
    text = target.read_text()
    assert text.count(old) == 1, "the mutant's old text no longer matches exactly once"
    target.write_text(text.replace(old, new))
    run = subprocess.run([sys.executable, "-m", "barbell.cli", "selfcheck", "--kmax", "8"],
                         cwd=tree, env=dict(os.environ, PYTHONPATH=str(tree / "src")),
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 3, run.stderr
    assert "\nFAIL %s: " % check in "\n" + run.stdout
