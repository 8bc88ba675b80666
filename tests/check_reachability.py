"""Fail when a function in src/barbell is reached by no command.

Lists every `def` under src/barbell by `ast`, then records each function
entered, under `sys.setprofile`, while these run in this process:

* every argv of `tests/test_golden.py`'s GOLDEN;
* one argv that exits 2 (an argument error);
* `selfcheck --kmax 3` with one planted failing check, which runs every
  other check in this process and exits 3.

A function that none of these reaches fails the run unless README's
"Library entry points" section lists it, as `module.qualname`; a listed name
that is not a function fails too.  Run from the repository root:

    PYTHONPATH=src python tests/check_reachability.py

pytest does not collect this file: tracing every call takes a few seconds.
"""

import ast
import contextlib
import io
import os
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]  # a real path, as reached_functions' paths are
PACKAGE = ROOT / "src" / "barbell"


def defined_functions():
    """{(path, first line of its code object): "module.qualname"} for every def."""
    out = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # a decorated function's code starts at its first decorator
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(path, line)] = prefix + child.name
                walk(child, path, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text(), str(path)), str(path), path.stem + ".")
    return out


def entry_points():
    """The names on README's "Library entry points" list."""
    readme = (ROOT / "README.md").read_text()
    section = re.search(r"^## Library entry points$(.*?)(?=^## |\Z)", readme, re.M | re.S)
    if section is None:
        raise SystemExit('README.md has no "Library entry points" section')
    return re.findall(r"^\* `([\w.]+)`", section.group(1), re.M)


def reached_functions():
    """The (path, first line) of every function entered by the runs above,
    import included: the hexagon shape table is derived at import."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    from barbell import cli, selfcheck
    from test_golden import GOLDEN

    def planted(kmax):
        raise selfcheck.CheckFailure("planted")

    checks = selfcheck.CHECKS
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for argv, _ in GOLDEN:
                if cli.main(list(argv)) != 0:
                    raise SystemExit("golden argv exited nonzero: %s" % " ".join(argv))
            if cli.main(["fk"]) != 2:
                raise SystemExit("fk without --k did not exit 2")
            selfcheck.CHECKS = checks + (("planted failure", planted),)
            if cli.main(["selfcheck", "--kmax", "3"]) != 3:
                raise SystemExit("a failing selfcheck did not exit 3")
    finally:
        sys.setprofile(None)
        selfcheck.CHECKS = checks
    return {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in codes}


def main():
    defined = defined_functions()
    listed = entry_points()
    reached = reached_functions()
    problems = ["README lists %s, which is not a function in src/barbell" % name
                for name in listed if name not in defined.values()]
    problems += ["%s (%s:%d) is reached by no command and not listed in README"
                 % (name, os.path.relpath(path, ROOT), line)
                 for (path, line), name in sorted(defined.items())
                 if (path, line) not in reached and name not in listed]
    for problem in problems:
        print(problem)
    print("%d functions, %d reached, %d listed, %d problems"
          % (len(defined), len(reached & defined.keys()), len(listed), len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
