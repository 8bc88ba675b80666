"""Batch command-line front end.

Every subcommand is deterministic: identical argv yields byte-identical
output.  JSON is the stable machine contract, text is for humans, and
CSV is for the F_k matrix only.  Exit codes: 0 success or `--help`; 2 a
`DomainError`, argument errors included (they name their parser:
`barbell fk: ...`), as one `error: <message>` stderr line and no stdout;
3 a failed selfcheck invariant (its report, then `invariant violated:
<name>`) or any other internal fault, an AssertionError included (one
`internal error: <Type>: <message>` line).  Integers of any size are
read and printed in full.  Handlers return the JSON payload, the text
lines and fk's CSV rows as functions, each called for its format only.
"""

import argparse
import functools
import json
import os
import sys
from itertools import chain

from . import DomainError, selfcheck as selfcheck_mod
from .classes import GClass, delta, f_closed, f_levels, independence_rank, twist_class, w3
from .hexagon import (HexNormalForm, basis_change_12_to_13, hex_normal_form, orbit_of,
                      orbit_structure)
from .lambda_group import (AlphaCombination, LambdaContext, cover_kernel_iterate,
                           cover_pullback, lambda_reduce, lambda_structure)
from .laurent import LaurentPoly1, LaurentPoly2, json_int
from .whitehead import FACETS, derive_R_relators, facet_map, pair_bracket


def _load(cls, text, what):
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise DomainError("bad %s JSON: %s" % (what, exc))
    try:
        return cls.from_json(obj)
    except DomainError as exc:
        raise DomainError("bad %s payload: %s" % (what, exc))


def _int(text):
    """The int an argv integer spells, by the payloads' rule (json_int): an
    optional "-" and ASCII digits only, so "1_0", "+1", " 1" and non-ASCII
    digits are refused, in argparse's words for a bad int."""
    try:
        return json_int(text, "argument")
    except DomainError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text) from None


def _parse_window(text):
    try:
        lo, hi = map(_int, text.split(","))
    except (ValueError, argparse.ArgumentTypeError):
        raise DomainError("window must be LO,HI with integer bounds")
    if lo > hi:
        raise DomainError("window must satisfy LO <= HI")
    return lo, hi


def _parse_csv_ints(text, what):
    try:
        return [_int(x) for x in text.split(",")] if text else []
    except argparse.ArgumentTypeError:
        raise DomainError("%s must be a comma-separated integer list" % what)


def _bracket_json(el):
    return {
        "triple": [{"e1": a, "e3": b, "c": str(el.triple[(a, b)])}
                   for a, b in sorted(el.triple)],
        "pairs": [{"i": i, "j": j, "base_exp": c0, "l": l,
                   "c": str(el.pairs[(i, j, c0, l)])}
                  for i, j, c0, l in sorted(el.pairs)],
    }


def _cmd_lambda(args):
    ctx = LambdaContext(args.w0, args.n)
    if args.action == "reduce":
        poly = _load(LaurentPoly1, args.poly, "polynomial")
        nf = lambda_reduce(poly, ctx)
        return (lambda: {"w0": ctx.w0, "n": ctx.n, "is_zero": nf.is_zero(),
                         "normal_form": {"free_part": nf.free_part.to_json(),
                                         "torsion_bit": nf.torsion_bit}},
                lambda: ["normal form: %r" % nf])
    lo, hi = _parse_window(args.window)
    st = lambda_structure(ctx, (lo, hi))
    return (lambda: {"w0": ctx.w0, "n": ctx.n, "window": [lo, hi], "structure": st._asdict()},
            lambda: ["structure on window [%d, %d]: %r" % (lo, hi, st)])


def _cmd_cover(args):
    comb = _load(AlphaCombination, args.alpha, "alpha combination")
    if args.action == "apply":
        out = cover_pullback(args.m, comb)
        return lambda: {"m": args.m, "result": out.to_json()}, lambda: ["pullback: %r" % out]
    ok = cover_kernel_iterate(comb, args.m, args.depth)
    return (lambda: {"m": args.m, "depth": args.depth, "in_kernel": ok},
            lambda: ["in kernel after %d iterations: %s" % (args.depth, "yes" if ok else "no")])


def _cmd_whitehead(args):
    if args.action == "facet":
        p = pair_bracket(args.alpha, args.beta, args.n)
        img = facet_map(args.facet, p, args.a1)
        return (lambda: {"facet": args.facet, "alpha": args.alpha, "beta": args.beta,
                         "n": args.n, "a1": args.a1, "image": _bracket_json(img)},
                lambda: ["image: %r" % img])
    lo, hi = _parse_window(args.window)
    rels = derive_R_relators(args.n, (lo, hi))
    # a relator has no pair terms: derive_R_relators checks they cancel
    return (lambda: {"n": args.n, "window": [lo, hi],
                     "relators": [{"alpha": a, "beta": b,
                                   "relator": _bracket_json(rel)["triple"]}
                                  for (a, b), rel in rels]},
            lambda: ["(%d, %d): %r" % (a, b, rel) for (a, b), rel in rels])


def _cmd_orbit(args):
    if (args.n is not None) != (args.action == "structure"):
        raise DomainError("orbit structure needs --n, and plain orbit takes none")
    orbit = orbit_of(args.alpha, args.beta)
    if args.action == "structure":
        st = orbit_structure(orbit, args.n)
        return (lambda: dict(orbit._asdict(), n=args.n, structure=st._asdict()),
                lambda: ["orbit of (%d, %d): %s, %d elements, structure %r"
                         % (args.alpha, args.beta, orbit.otype, len(orbit.elements), st)])
    return (orbit._asdict,
            lambda: ["orbit of (%d, %d): %s, rep (%d, %d), elements %s"
                     % (args.alpha, args.beta, orbit.otype, orbit.rep[0], orbit.rep[1],
                        list(orbit.elements))])


def _cmd_hex(args):
    poly = _load(LaurentPoly2, args.poly, "polynomial")
    if args.action == "reduce":
        nf = hex_normal_form(poly, args.n)
        return (lambda: {"n": args.n, "normal_form": nf, "is_zero": nf.is_zero()},
                lambda: ["normal form: %r" % nf])
    out = basis_change_12_to_13(poly)  # an involution: one map for either --dir
    return lambda: {"dir": args.dir, "result": out.to_json()}, lambda: ["result: %r" % out]


def _cmd_fk(args):
    k = args.k
    if k < 2:
        raise DomainError("--k must be >= 2 (F_k needs k >= 2)")
    mat = {(p, q): f_closed(k, p, q) for p in range(1, k) for q in range(1, k)}
    # the skew verdict and the sum are printed in every format
    if args.check_skew:
        ok = all((mat[(p, q)] + mat[(q, p)]).is_zero()
                 for p in range(1, k) for q in range(p, k))  # symmetric in (p, q)
        skew = "OK" if ok else "FAIL"
    if args.sum:
        total = GClass.sum(mat.values())

    def payload():
        out = {"k": k, "entries": [{"p": p, "q": q, "class": mat[(p, q)].to_json()}
                                   for p, q in sorted(mat)]}
        if args.check_skew:
            out["skew"] = skew
        if args.sum:
            out["sum_is_zero"] = total.is_zero()
            out["sum"] = total.to_json()
        if args.per_level:
            cols = {pq: f_levels(k, *pq) for pq in sorted(mat)}
            out["per_level"] = [
                {"L": lvl, "p": p, "q": q, "class": cols[(p, q)][lvl - 1].to_json()}
                for lvl in range(1, k) for p, q in cols]
        return out

    def text():
        lines = ["F_%d(%d,%d) = %r" % (k, p, q, mat[(p, q)]) for p, q in sorted(mat)]
        if args.check_skew:
            lines.append("skew: %s" % skew)
        if args.sum:
            lines.append("sum: %r" % total)
        return lines

    def csv_rows():
        return [["p\\q"] + [str(q) for q in range(1, k)]] + [
            [str(p)] + ["%r" % mat[(p, q)] for q in range(1, k)] for p in range(1, k)]
    return payload, text, csv_rows


def _cmd_delta(args):
    if args.n is not None and not args.w3:
        raise DomainError("delta takes --n only with --w3")
    n = 3 if args.n is None else args.n
    cls = delta(args.k)  # raises if delta_k disagrees with its 8-term expansion
    if args.w3:
        nf = hex_normal_form(w3(cls), n)

    def payload():
        out = {"k": args.k, "class": cls.to_json()}
        if args.expand:
            out["expansion"] = out["class"]
            out["matches_expansion"] = True
        if args.w3:
            out["n"] = n
            out["w3_normal_form"] = nf
            out["w3_is_zero"] = nf.is_zero()
        return out

    def text():
        lines = ["delta_%d = %r" % (args.k, cls)]
        if args.expand:
            lines.append("matches the 8-term expansion: yes")
        if args.w3:
            lines.append("W3 normal form (n=%d): %r" % (n, nf))
        return lines
    return payload, text


def _cmd_twist(args):
    v = _parse_csv_ints(args.v, "--v")
    w = _parse_csv_ints(args.w, "--w")
    cls = twist_class(args.k, v, w)
    return (lambda: {"k": args.k, "v": v, "w": w, "class": cls.to_json()},
            lambda: ["twisted class = %r" % cls])


def _cmd_independence(args):
    if args.kmin < 3:
        raise DomainError("--kmin must be >= 3 (delta_k needs k >= 3)")
    if args.kmax < args.kmin:
        raise DomainError("--kmax must be >= --kmin")
    ks = list(range(args.kmin, args.kmax + 1))
    deltas = [delta(k) for k in ks]
    rank, cols, rows = independence_rank(deltas, args.n)
    independent = rank == len(ks)

    def payload():
        # shape plus the nonzero cells as [i, j, "v"], in row-major order
        matrix = {"rows": len(rows), "cols": cols,
                  "entries": [[i, j, str(row[j])]
                              for i, row in enumerate(rows) for j in sorted(row)]}
        return {"kmin": args.kmin, "kmax": args.kmax, "n": args.n,
                "count": len(ks), "rank": rank, "independent": independent,
                "matrix": matrix}
    return payload, lambda: ["rank %d / %d: %s" % (
        rank, len(ks), "independent" if independent else "DEPENDENT")]


def _cmd_selfcheck(args):
    ok, results = selfcheck_mod.run(args.kmax)
    payload = lambda: {"passed": ok, "kmax": args.kmax,
                       "checks": [{"name": n, "passed": p, "detail": d}
                                  for n, p, d in results]}
    text = lambda: ["ok   " + n if p else "FAIL " + d for n, p, d in results]
    if not ok:
        first = next(n for n, p, _ in results if not p)
        raise InternalInvariantError(first, payload, text)
    return payload, text


class InternalInvariantError(Exception):
    def __init__(self, name, payload, text):
        super().__init__(name)
        self.name = name
        self.payload = payload
        self.text = text


class _Parser(argparse.ArgumentParser):
    # usage errors leave by the one exit-2 path, and help has one width;
    # subparsers inherit this class
    def __init__(self, **kwargs):
        # a fixed width, not the terminal's, so that --help prints the same bytes anywhere
        super().__init__(formatter_class=functools.partial(argparse.HelpFormatter, width=78),
                         **kwargs)

    def error(self, message):
        raise DomainError("%s: %s" % (self.prog, message))


def build_parser():
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "text"), default="text")
    common.add_argument("--output", metavar="FILE")
    common.add_argument("--seed", type=_int, help="accepted for harness "
                        "compatibility; all computation is deterministic")

    top = _Parser(prog="barbell", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    lam = sub.add_parser("lambda", help="circle-target quotient groups")
    lam_sub = lam.add_subparsers(dest="action", required=True)
    for action in ("reduce", "structure"):
        p = lam_sub.add_parser(action, parents=[common])
        p.add_argument("--w0", type=_int, required=True)
        p.add_argument("--n", type=_int, required=True)
        if action == "reduce":
            p.add_argument("--poly", required=True)
        else:
            p.add_argument("--window", required=True, metavar="LO,HI")

    cov = sub.add_parser("cover", help="finite-cover endomorphism")
    cov_sub = cov.add_subparsers(dest="action", required=True)
    p = cov_sub.add_parser("apply", parents=[common])
    p.add_argument("--m", type=_int, required=True)
    p.add_argument("--alpha", required=True)
    p = cov_sub.add_parser("kernel", parents=[common])
    p.add_argument("--m", type=_int, required=True)
    p.add_argument("--depth", type=_int, required=True)
    p.add_argument("--alpha", required=True)

    wh = sub.add_parser("whitehead", help="bracket facets and derived relators")
    wh_sub = wh.add_subparsers(dest="action", required=True)
    p = wh_sub.add_parser("facet", parents=[common])
    p.add_argument("--facet", required=True, choices=FACETS)
    p.add_argument("--alpha", type=_int, required=True)
    p.add_argument("--beta", type=_int, required=True)
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--a1", type=_int, default=0, help="velocity degree of the doubled point "
                   "(facets t1=t2 and t2=t3 only)")
    p = wh_sub.add_parser("relators", parents=[common])
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--window", required=True, metavar="LO,HI")

    p = sub.add_parser("orbit", parents=[common], help="hexagon-group orbits")
    p.add_argument("action", nargs="?", choices=("structure",))
    p.add_argument("--alpha", type=_int, required=True)
    p.add_argument("--beta", type=_int, required=True)
    p.add_argument("--n", type=_int, help="read by orbit structure only")

    hx = sub.add_parser("hex", help="hexagon-quotient normal forms")
    hx_sub = hx.add_subparsers(dest="action", required=True)
    p = hx_sub.add_parser("reduce", parents=[common])
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--poly", required=True)
    p = hx_sub.add_parser("change-basis", parents=[common])
    p.add_argument("--dir", required=True, choices=("13to12", "12to13"))
    p.add_argument("--poly", required=True)

    p = sub.add_parser("fk", parents=[common], help="the F_k matrix")
    p.add_argument("--k", type=_int, required=True)
    p.add_argument("--per-level", action="store_true", dest="per_level")
    p.add_argument("--check-skew", action="store_true", dest="check_skew")
    p.add_argument("--sum", action="store_true")

    p = sub.add_parser("delta", parents=[common], help="the delta_k class")
    p.add_argument("--k", type=_int, required=True)
    p.add_argument("--expand", action="store_true")
    p.add_argument("--w3", action="store_true")
    p.add_argument("--n", type=_int, help="read by --w3 only (default 3)")

    p = sub.add_parser("twist", parents=[common], help="twisted class for (v, w)")
    p.add_argument("--k", type=_int, required=True)
    p.add_argument("--v", required=True, metavar="CSV")
    p.add_argument("--w", required=True, metavar="CSV")

    p = sub.add_parser("independence", parents=[common],
                       help="rank certificate for delta_kmin .. delta_kmax")
    p.add_argument("--kmin", type=_int, required=True)
    p.add_argument("--kmax", type=_int, required=True)
    p.add_argument("--n", type=_int, default=3)

    p = sub.add_parser("selfcheck", parents=[common], help="run the invariant suite")
    p.add_argument("--kmax", type=_int, default=12)

    return top


_HANDLERS = {
    "lambda": _cmd_lambda,
    "cover": _cmd_cover,
    "whitehead": _cmd_whitehead,
    "orbit": _cmd_orbit,
    "hex": _cmd_hex,
    "fk": _cmd_fk,
    "delta": _cmd_delta,
    "twist": _cmd_twist,
    "independence": _cmd_independence,
    "selfcheck": _cmd_selfcheck,
}


_quote = json.encoder.encode_basestring_ascii


def _json_text(obj):
    """json.dumps(obj, sort_keys=True, indent=2), byte for byte, in one
    recursive walk with one branch per JSON type.  It takes dicts with
    str keys, lists, tuples, str, int, bool, None and HexNormalForm,
    written as the JSON object of its orbits; anything else, a float
    included, is a TypeError."""
    out = []
    put = out.append

    def emit(o, pad):
        if isinstance(o, str):
            put(_quote(o))
        elif o is None or o is True or o is False:
            put("null" if o is None else "true" if o else "false")
        elif isinstance(o, int):
            put(int.__repr__(o))
        elif isinstance(o, dict):
            inner, sep = pad + "  ", "{"
            for key in sorted(o):  # _quote rejects a key that is not a str
                put(f"{sep}{inner}{_quote(key)}: ")
                emit(o[key], inner)
                sep = ","
            put(pad + "}" if o else "{}")
        elif isinstance(o, (list, tuple)):
            inner, sep = pad + "  ", "["
            for v in o:
                put(sep + inner)
                emit(v, inner)
                sep = ","
            put(pad + "]" if o else "[]")
        elif isinstance(o, HexNormalForm):
            put(_normal_form_text(o, pad))
        else:
            raise TypeError("Object of type %s is not JSON serializable" % type(o).__name__)

    emit(obj, "\n")
    return "".join(out)


def _normal_form_text(nf, pad):
    """_json_text of {"orbits": [{"coords": [{"modulus": m, "value": "v"},
    ...], "rep": [a, b]}, ...]} for nf at `pad`, with no dict built: each
    distinct (value, modulus) coord is written once, and each orbit's
    record joins its coords' texts between a fixed head and tail."""
    p2, p3 = pad + "  ", pad + "    "
    if not nf.orbits:
        return '{%s"orbits": []%s}' % (p2, pad)
    p4, p5, p6 = p3 + "  ", p3 + "    ", p3 + "      "
    coord = '%s{%s"modulus": %%d,%s"value": "%%d"%s}' % (p5, p6, p6, p5)
    head = '{%s"coords": [' % p4
    tail = '%s],%s"rep": [%s%%d,%s%%d%s]%s}' % (p4, p4, p5, p5, p4, p3)
    texts = {vm: coord % (vm[1], vm[0]) for vm in set(chain.from_iterable(nf.orbits.values()))}
    records = [head + ",".join(map(texts.__getitem__, coords)) + tail % rep
               for rep, coords in sorted(nf.orbits.items())]
    return '{%s"orbits": [%s%s%s]%s}' % (p2, p3, ("," + p3).join(records), p2, pad)


def _render(args, payload, text, csv_rows=None):
    """The output text; `payload`, `text` and `csv_rows` are zero-argument
    functions, each called only when its format is asked for."""
    if args.format == "json":
        return _json_text(payload()) + "\n"
    if args.format == "csv":
        return "".join(",".join(cell.replace(",", ";") for cell in row) + "\n"
                       for row in csv_rows())
    return "".join(line + "\n" for line in text())


def _emit(args, rendered):
    if args.output is not None:
        try:
            with open(args.output, "w") as fh:
                fh.write(rendered)
        except OSError as exc:
            raise DomainError("cannot write --output %s: %s"
                              % (args.output, exc.strerror or exc))
    else:
        try:
            sys.stdout.write(rendered)
            sys.stdout.flush()
        except OSError as exc:
            # send what is still buffered to devnull, so that the flush at
            # interpreter exit neither fails nor changes the exit code
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
            raise DomainError("cannot write stdout: %s" % (exc.strerror or exc))


def main(argv=None):
    # integers of any size go in and out: lift Python's 4300-digit cap on
    # int <-> str conversion (absent before 3.10.7) for this call only
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _print_error(exc):
    # one stderr line, even for a message with a line break in it
    print("error: %s" % str(exc).replace("\n", "\\n"), file=sys.stderr)


def _run(argv):
    try:
        args = build_parser().parse_args(argv)
        if args.format == "csv" and args.command != "fk":
            raise DomainError("CSV output is provided for the fk matrix only")
        if getattr(args, "n", None) is not None and args.n < 3:
            raise DomainError("--n must be >= 3 (the paper's S^1 x B^n needs n >= 3)")
        _emit(args, _render(args, *_HANDLERS[args.command](args)))
    except DomainError as exc:
        _print_error(exc)
        return 2
    except InternalInvariantError as exc:
        try:
            _emit(args, _render(args, exc.payload, exc.text))
        except DomainError as err:
            _print_error(err)
        print("invariant violated: %s" % exc.name, file=sys.stderr)
        return 3
    except Exception as exc:
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
