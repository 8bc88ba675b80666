"""One `barbell` invocation with spans recorded at the layer boundaries.

    python3 perfbench/tracer.py SPANFILE ARGS...

runs `barbell ARGS...` in this process, with a wrapper at every module
binding of each traced function: the package imports functions with
`from .x import y`, so wrapping only the defining module would miss
most calls.  Spans (name, parent, weight, start, end) stay in memory and
are written to SPANFILE when the command returns.  Stdout is the
command's own, byte for byte; the benchmark checks that it is.

`summarize` reads a span file back and computes self times from it, and
`layer_metrics` turns the summaries of one round into the per-layer
metrics named in BENCHMARK.json.
"""

import array
import functools
import importlib
import json
import statistics
import sys
import time

# (module, attribute, span name).  "Class.method" patches every entry of
# the class dict that is the same function, such as GClass.__add__ = add.
SPANS = (
    ("intlat", "smith_normal_form", "intlat.snf"),
    ("intlat", "rank_over_rationals", "intlat.rank"),
    ("intlat", "IntegerRowSpan.add", "intlat.rowspan"),
    ("intlat", "IntegerRowSpan.contains", "intlat.rowspan"),
    ("hexagon", "orbit_of", "hexagon.orbit_of"),
    ("hexagon", "orbit_relators", "hexagon.orbit_relators"),
    ("hexagon", "hex_normal_form", "hexagon.normal_form"),
    ("classes", "f_level", "classes.f_level"),
    ("classes", "f_closed", "classes.f_closed"),
    ("classes", "delta", "classes.delta"),
    ("classes", "independence_rank", "classes.independence_rank"),
    ("laurent", "LaurentPoly1.from_json", "laurent.from_json"),
    ("laurent", "LaurentPoly2.from_json", "laurent.from_json"),
    ("lambda_group", "lambda_reduce", "lambda_group.reduce"),
    ("lambda_group", "relator_matrix", "lambda_group.relator_matrix"),
    ("lambda_group", "lambda_structure", "lambda_group.structure"),
    ("lambda_group", "cover_pullback", "lambda_group.cover"),
    ("whitehead", "bracket", "whitehead.bracket"),
    ("whitehead", "facet_map", "whitehead.facet_map"),
    ("whitehead", "derive_R_relators", "whitehead.derive_relators"),
    ("cli", "_render", "cli.render"),
    ("cli", "_emit", "cli.render"),
)
# Too frequent for a span each; counted only.
COUNTS = (("classes", "GClass.add", "classes.gclass_adds"),)

CHECK_PREFIX = "selfcheck:"
# selfcheck checks reported on their own; the rest are summed
NAMED_CHECKS = {"per-level agreement": "selfcheck.per_level_pct",
                "skew symmetry": "selfcheck.skew_pct",
                "total sum vanishes": "selfcheck.total_sum_pct"}


class Recorder:
    """Spans in parallel arrays; parents precede their children."""

    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.ids = array.array("i")
        self.parents = array.array("i")
        self.weights = array.array("q")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.stack = [-1]
        self.counts = {}
        self.sites = {}

    def name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def span(self, name, fn, weigh=None):
        """fn wrapped in a span; weigh(args, result) sets the span's weight."""
        nid = self.name_id(name)
        ids, parents, weights = self.ids, self.parents, self.weights
        starts, ends, stack = self.starts, self.ends, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            ids.append(nid)
            parents.append(stack[-1])
            weights.append(0)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if weigh is not None:
                weights[i] = weigh(args, result)
            return result
        return functools.update_wrapper(traced, fn)

    def counter(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return functools.update_wrapper(counted, fn)

    def dump(self, path):
        header = {"names": self.names, "counts": self.counts, "sites": self.sites,
                  "spans": len(self.starts)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.ids, self.parents, self.weights, self.starts, self.ends):
                arr.tofile(fh)


def _patch(modules, module, attr, wrap):
    """Replace every binding of module.attr with wrap(original).

    Returns how many bindings were replaced; 0 when the attribute is gone.
    """
    owner_name, _, meth = attr.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name, None)
        entry = vars(owner).get(meth) if owner is not None else None
        if entry is None:
            return 0
        is_cm = isinstance(entry, classmethod)
        orig = entry.__func__ if is_cm else entry
        new = wrap(orig)
        keys = [k for k, v in vars(owner).items()
                if (v.__func__ if isinstance(v, classmethod) else v) is orig]
        for k in keys:
            setattr(owner, k, classmethod(new) if is_cm else new)
        return len(keys)
    orig = getattr(module, attr, None)
    if orig is None:
        return 0
    new = wrap(orig)
    n = 0
    for mod in modules:
        for k, v in list(vars(mod).items()):
            if v is orig:
                setattr(mod, k, new)
                n += 1
    return n


def install(rec):
    """Wrap every traced function at every binding in the barbell package;
    returns the CLI entry point."""
    names = ("intlat", "laurent", "hexagon", "classes", "lambda_group",
             "whitehead", "selfcheck", "cli")
    modules = [importlib.import_module("barbell." + n) for n in names]
    by_name = dict(zip(names, modules))
    weighers = {"intlat.snf": _cells, "intlat.rank": _cells,
                "laurent.from_json": _terms, "cli.render": _rendered_bytes,
                "hexagon.orbit_of": _new_block(rec)}
    for mod, attr, name in SPANS:
        rec.sites[mod + "." + attr] = _patch(
            modules, by_name[mod], attr,
            lambda fn, name=name: rec.span(name, fn, weighers.get(name)))
    for mod, attr, name in COUNTS:
        rec.sites[mod + "." + attr] = _patch(
            modules, by_name[mod], attr,
            lambda fn, name=name: rec.counter(name, fn))
    selfcheck, cli = by_name["selfcheck"], by_name["cli"]
    selfcheck.CHECKS = tuple((name, rec.span(CHECK_PREFIX + name, fn))
                             for name, fn in selfcheck.CHECKS)
    build_parser = cli.build_parser

    def traced_build_parser():
        parser = rec.span("cli.parse", build_parser)()
        parser.parse_args = rec.span("cli.parse", parser.parse_args)
        return parser
    cli.build_parser = traced_build_parser
    return cli.main


def _cells(args, result):
    return args[0].rows * args[0].cols


def _terms(args, result):
    return len(args[1].get("terms", []))


def _rendered_bytes(args, result):
    return len(result.encode()) if isinstance(result, str) else 0


def _new_block(rec):
    # weight 1 on the first orbit_of call for each orbit inside one
    # hex_normal_form call: the weights sum to the orbit blocks reduced
    nf = rec.name_id("hexagon.normal_form")
    seen = set()

    def weigh(args, orbit):
        parent = rec.stack[-1]
        if parent < 0 or rec.ids[parent] != nf:
            return 0
        key = (parent, orbit.rep)
        if key in seen:
            return 0
        seen.add(key)
        return 1
    return weigh


def _empty():
    return {"calls": 0, "total_s": 0.0, "self_s": 0.0, "weight": 0}


def summarize(path):
    """Per span name: calls, inclusive and self seconds, summed weight.

    Also returns the counters and `snf_in_nf`, the Smith forms computed
    inside a hex_normal_form call.
    """
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        arrays = []
        for code in "iiqdd":
            arr = array.array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    ids, parents, weights, starts, ends = arrays
    names = header["names"]
    child = [0.0] * n
    for i in range(n):
        if parents[i] >= 0:
            child[parents[i]] += ends[i] - starts[i]
    nf = names.index("hexagon.normal_form") if "hexagon.normal_form" in names else -1
    snf = names.index("intlat.snf") if "intlat.snf" in names else -1
    in_nf = [False] * n
    snf_in_nf = 0
    out = {}
    for i in range(n):
        p = parents[i]
        in_nf[i] = p >= 0 and (in_nf[p] or ids[p] == nf)
        if in_nf[i] and ids[i] == snf:
            snf_in_nf += 1
        dur = ends[i] - starts[i]
        s = out.setdefault(names[ids[i]], _empty())
        s["calls"] += 1
        s["total_s"] += dur
        s["self_s"] += dur - child[i]
        s["weight"] += weights[i]
    return {"spans": out, "counts": header["counts"], "sites": header["sites"],
            "snf_in_nf": snf_in_nf}


def merge(summaries):
    """Sum the summaries of the invocations of one round."""
    spans, counts, snf_in_nf = {}, {}, 0
    for s in summaries:
        for name, v in s["spans"].items():
            acc = spans.setdefault(name, _empty())
            for k in acc:
                acc[k] += v[k]
        for name, v in s["counts"].items():
            counts[name] = counts.get(name, 0) + v
        snf_in_nf += s["snf_in_nf"]
    return {"spans": spans, "counts": counts, "snf_in_nf": snf_in_nf}


def layer_metrics(summary, wall_s):
    """Per-layer metrics of one traced round, as {name: (value, unit)}.

    Times are shares of the round's traced wall time in percent, so a
    layer that a workload never enters reads 0 and the share bounds what
    speeding that layer up can save.
    """
    spans = summary["spans"]

    def get(name):
        return spans.get(name) or _empty()

    def pct(seconds):
        return 100.0 * seconds / wall_s

    def self_pct(*names):
        return pct(sum(get(n)["self_s"] for n in names))

    def prefixed(prefix):
        return [n for n in spans if n.startswith(prefix)]

    checks = {n[len(CHECK_PREFIX):]: v["total_s"] for n, v in spans.items()
              if n.startswith(CHECK_PREFIX)}
    blocks = get("hexagon.orbit_of")["weight"]
    m = {
        "intlat.rank_calls": (get("intlat.rank")["calls"], "count"),
        "intlat.rank_cells": (get("intlat.rank")["weight"], "count"),
        "intlat.rank_self_pct": (self_pct("intlat.rank"), "%"),
        "intlat.snf_calls": (get("intlat.snf")["calls"], "count"),
        "intlat.snf_cells": (get("intlat.snf")["weight"], "count"),
        "intlat.snf_self_pct": (self_pct("intlat.snf"), "%"),
        "intlat.rowspan_self_pct": (self_pct("intlat.rowspan"), "%"),
        "hexagon.orbit_of_calls": (get("hexagon.orbit_of")["calls"], "count"),
        "hexagon.orbit_of_self_pct": (self_pct("hexagon.orbit_of"), "%"),
        "hexagon.normal_form_calls": (get("hexagon.normal_form")["calls"], "count"),
        "hexagon.normal_form_self_pct": (self_pct("hexagon.normal_form"), "%"),
        "hexagon.orbit_relators_calls": (get("hexagon.orbit_relators")["calls"], "count"),
        "hexagon.orbit_blocks": (blocks, "count"),
        "hexagon.snf_per_orbit": (summary["snf_in_nf"] / blocks if blocks else 0.0,
                                  "ratio"),
        "classes.f_level_calls": (get("classes.f_level")["calls"], "count"),
        "classes.f_level_self_pct": (self_pct("classes.f_level"), "%"),
        "classes.f_closed_calls": (get("classes.f_closed")["calls"], "count"),
        "classes.f_closed_self_pct": (self_pct("classes.f_closed"), "%"),
        "classes.gclass_adds": (summary["counts"].get("classes.gclass_adds", 0), "count"),
        "classes.delta_self_pct": (self_pct("classes.delta"), "%"),
        "classes.independence_rank_self_pct": (self_pct("classes.independence_rank"), "%"),
        "selfcheck.other_checks_pct": (
            pct(sum(t for n, t in checks.items() if n not in NAMED_CHECKS)), "%"),
        "laurent.from_json_self_pct": (self_pct("laurent.from_json"), "%"),
        "laurent.terms_parsed": (get("laurent.from_json")["weight"], "count"),
        "lambda_group.reduce_calls": (get("lambda_group.reduce")["calls"], "count"),
        "lambda_group.self_pct": (self_pct(*prefixed("lambda_group.")), "%"),
        "whitehead.bracket_calls": (get("whitehead.bracket")["calls"], "count"),
        "whitehead.self_pct": (self_pct(*prefixed("whitehead.")), "%"),
        "cli.parse_s": (get("cli.parse")["total_s"], "s"),
        "cli.render_s": (get("cli.render")["total_s"], "s"),
        "cli.render_bytes": (get("cli.render")["weight"], "bytes"),
    }
    for check, metric in NAMED_CHECKS.items():
        m[metric] = (pct(checks.get(check, 0.0)), "%")
    return m


def median_metrics(rounds):
    """Median of each metric over several rounds' layer_metrics."""
    return {k: (statistics.median(r[k][0] for r in rounds), rounds[0][k][1])
            for k in rounds[0]}


def main(argv):
    path, args = argv[0], argv[1:]
    rec = Recorder()
    cli_main = rec.span("cli.main", install(rec))
    try:
        return cli_main(args)
    finally:
        sys.stdout.flush()
        rec.dump(path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
