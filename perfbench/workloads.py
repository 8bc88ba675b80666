"""The benchmark's workloads: `barbell` argument lists and output checks.

A workload is one round of CLI invocations.  Its inputs depend only on
the seed, and its check reads only what the CLI printed; no check
re-implements the calculator.  The one piece of mathematics built here
is the paper's 4-monomial relator k(p, q), used to make inputs whose
answers are known without computing them.
"""

import json
import random

# Linux refuses a single argv string longer than MAX_ARG_STRLEN (32 pages,
# counting the terminating NUL).  Payloads travel as one argument each.
MAX_ARG_STRLEN = 131072
ARG_LIMIT = MAX_ARG_STRLEN - 8192

INDEPENDENCE_COUNT = 247  # delta_4 .. delta_250
INDEPENDENCE_ARGS = ("independence", "--kmin", "4", "--kmax", "250",
                     "--n", "3", "--format", "json")

SELFCHECK_ARGS = ("selfcheck", "--kmax", "30", "--format", "json")
SELFCHECK_NAMES = (
    "laurent algebra", "snf certificate", "cokernel invariance",
    "lambda oracle equivalence", "lambda additivity", "theta span",
    "cover multiplicativity", "facet velocity independence",
    "cyclic identity", "t-action compatibility", "orbit partition",
    "relator orbit-locality", "relator family equivalence",
    "normal-form soundness", "torsion factors", "skew symmetry",
    "total sum vanishes", "per-level agreement",
    "symmetric-g compatibility", "delta expansion",
    "w3 hexagon vanishing", "basis-change consistency", "json round trip",
)

HEX_PARITIES = (3, 4)
HEX_TERMS = 2600       # monomials of x
HEX_RADIUS = 300       # x lives on [-300, 300]^2
HEX_RELATORS = 200     # k(p, q) with (p, q) in [-150, 150]^2, so x + r stays in the box
HEX_COEFFS = tuple(c for c in range(-9, 10) if c)
HEX_MULTIPLIERS = tuple(c for c in range(-3, 4) if c)


def k_relator(p, q, n):
    """The paper's relator at (p, q) as {(e1, e2): c}:

    t1^p t2^q - t1^q t2^(q-p) + (-1)^(n-1) (t1^p t2^(p-q) - t1^q t2^p).
    """
    s = (-1) ** (n - 1)
    out = {}
    _accumulate(out, [((p, q), 1), ((q, q - p), -1), ((p, p - q), s), ((q, p), -s)])
    return out


def _accumulate(acc, terms, scale=1):
    for mono, c in terms:
        v = acc.get(mono, 0) + scale * c
        if v:
            acc[mono] = v
        else:
            acc.pop(mono, None)


def poly_payload(poly):
    """The CLI's two-variable JSON format, compact, with a size guard."""
    text = json.dumps({"terms": [{"e1": a, "e2": b, "c": str(c)}
                                 for (a, b), c in sorted(poly.items())]},
                      separators=(",", ":"))
    if len(text.encode()) >= ARG_LIMIT:
        raise ValueError("payload of %d bytes exceeds the %d-byte argv limit"
                         % (len(text.encode()), ARG_LIMIT))
    return text


def hexreduce_polys(seed):
    """Per parity n: (n, x, x + r, r), with r an integer sum of k(p, q)."""
    rng = random.Random("hexreduce-%d" % seed)
    out = []
    for n in HEX_PARITIES:
        x = {}
        while len(x) < HEX_TERMS:
            mono = (rng.randint(-HEX_RADIUS, HEX_RADIUS),
                    rng.randint(-HEX_RADIUS, HEX_RADIUS))
            x[mono] = rng.choice(HEX_COEFFS)
        r = {}
        half = HEX_RADIUS // 2
        for _ in range(HEX_RELATORS):
            p, q = rng.randint(-half, half), rng.randint(-half, half)
            _accumulate(r, k_relator(p, q, n).items(), rng.choice(HEX_MULTIPLIERS))
        xr = dict(x)
        _accumulate(xr, r.items())
        out.append((n, x, xr, r))
    return out


def hexreduce_args(seed):
    args = []
    for n, x, xr, r in hexreduce_polys(seed):
        for poly in (x, xr, r):
            args.append(("hex", "reduce", "--n", str(n), "--format", "json",
                         "--poly", poly_payload(poly)))
    return args


def _json(output):
    """(object, problem) for one (exit code, stdout) pair."""
    code, out = output
    if code != 0:
        return None, "exit code %d" % code
    try:
        obj = json.loads(out)
    except ValueError as exc:
        return None, "stdout is not JSON: %s" % exc
    if not isinstance(obj, dict):
        return None, "stdout is not a JSON object"
    return obj, None


def check_independence(outputs):
    obj, problem = _json(outputs[0])
    if problem:
        return [problem]
    want = INDEPENDENCE_COUNT
    got = (obj.get("rank"), obj.get("count"), obj.get("matrix", {}).get("rows"),
           obj.get("independent"))
    if got != (want, want, want, True):
        return ["rank, count, matrix.rows, independent = %r, expected %r"
                % (got, (want, want, want, True))]
    return [None]


def check_selfcheck(outputs):
    obj, problem = _json(outputs[0])
    if problem:
        return [problem]
    passed = {c.get("name"): c.get("passed") for c in obj.get("checks", [])}
    missing = [n for n in SELFCHECK_NAMES if n not in passed]
    failing = sorted(n for n, ok in passed.items() if ok is not True)
    if obj.get("passed") is not True or missing or failing:
        return ["passed=%r, missing checks %r, failing checks %r"
                % (obj.get("passed"), missing, failing)]
    return [None]


def _reduced(output, n, want_zero):
    obj, problem = _json(output)
    if problem:
        return problem
    if obj.get("n") != n or obj.get("is_zero") is not want_zero:
        return ("n=%r is_zero=%r, expected n=%d is_zero=%r"
                % (obj.get("n"), obj.get("is_zero"), n, want_zero))
    return None


def check_hexreduce(outputs):
    """Per parity: x reduces to a nonzero form, x + r to the same bytes
    as x, and r to zero."""
    problems = []
    for i, n in enumerate(HEX_PARITIES):
        x, xr, r = outputs[3 * i:3 * i + 3]
        same = None if xr == x else "x + relators printed other bytes than x (n=%d)" % n
        problems += [_reduced(x, n, False), same, _reduced(r, n, True)]
    return problems


WORKLOADS = {
    "independence": (lambda seed: [INDEPENDENCE_ARGS], check_independence),
    "selfcheck": (lambda seed: [SELFCHECK_ARGS], check_selfcheck),
    "hexreduce": (hexreduce_args, check_hexreduce),
}
