"""Benchmark of the `barbell` CLI; BENCHMARK.json at the repository root
describes its workloads and metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout.  It byte-compiles src/, times
set-up (interpreter start, `import barbell.cli`, `build_parser()`) in
fresh interpreters, then repeats rounds of the workload's invocations for
S seconds: each invocation is a fresh `barbell` process, one at a time,
with stdout captured.  Every output is checked; an invocation fails on a
non-zero exit, a failed check, or stdout bytes that differ from an
earlier run of the same argv on the same source.

With --trace 0 it reports the end-to-end metrics.  With --trace 1 it
alternates untraced rounds with rounds run under perfbench/tracer.py and
reports per-layer metrics; traced stdout must equal untraced stdout.

The last line of stdout is the JSON result.  A fuller record (run stamp,
round times, stdout digests) is written to perfbench/out/.
"""

import argparse
import collections
import hashlib
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 20
TIMEOUT_S = 60
CLI = "import sys; from barbell.cli import main; sys.exit(main())"
SETUP = "import barbell.cli; barbell.cli.build_parser()"


Invocation = collections.namedtuple("Invocation", "start end code rss_kb stdout")


def spawn(argv, env):
    """Run argv to completion with stdout and stderr sent to files in OUT.

    The child is reaped with wait4 for its own rusage; a child that
    outlives TIMEOUT_S, or this process being interrupted, kills it.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, str(OUT / "stdout"), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(OUT / "stderr"), flags, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    kill = True
    try:
        kill = not select.select([pidfd], [], [], TIMEOUT_S)[0]
    finally:
        if kill:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        end = time.perf_counter()
        os.close(pidfd)
    return Invocation(start, end, os.waitstatus_to_exitcode(status),
                      usage.ru_maxrss, (OUT / "stdout").read_bytes())


def digest(data):
    return hashlib.sha256(data).hexdigest()


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def time_setup(py, env, n):
    """Wall times of n fresh interpreters importing barbell.cli and
    building its parser."""
    times = []
    for _ in range(n):
        inv = spawn([py, "-c", SETUP], env)
        if inv.code != 0:
            raise RuntimeError("set-up probe exited %d" % inv.code)
        times.append(inv.end - inv.start)
    return times


def check_round(check, invs, keys, known):
    """Problems (None when fine) and stdout digests per invocation.

    An invocation fails the workload's check, or its stdout differs from
    the digest `known` holds for the same argv key; `known` learns the
    digests it has not seen.
    """
    problems = check([(inv.code, inv.stdout) for inv in invs])
    digests = [digest(inv.stdout) for inv in invs]
    for i, (key, dig) in enumerate(zip(keys, digests)):
        if known.setdefault(key, dig) != dig and problems[i] is None:
            problems[i] = "stdout differs from an earlier run of this argv"
    return problems, digests


def end_to_end(rounds, setup):
    """The end-to-end metrics, as {name: (value, unit)}, from untraced rounds."""
    return {
        "wall_s": (statistics.median(r["wall_s"] for r in rounds), "s"),
        "peak_rss_kb": (statistics.median(r["rss_kb"] for r in rounds), "KiB"),
        "stdout_bytes": (statistics.median(r["stdout_bytes"] for r in rounds), "bytes"),
        "setup_s": (statistics.median(setup), "s"),
    }


def run(workload, seed, seconds, trace):
    make_args, check = WORKLOADS[workload]
    cli_args = make_args(seed)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("BARBELL_THREADS", None)
    py = sys.executable
    stamp = {"python": platform.python_version(), "nproc": os.cpu_count(),
             "loadavg_start": os.getloadavg(), "git_commit": git_commit(),
             "source_sha256": source_digest(), "workload": workload,
             "seed": seed, "seconds": seconds, "trace": trace,
             "argv_bytes": [sum(len(a) for a in args) for args in cli_args]}

    store_path = OUT / "digests.json"
    store = json.loads(store_path.read_text()) if store_path.exists() else {}
    known = store.setdefault(stamp["source_sha256"], {})
    keys = [digest("\0".join(args).encode()) for args in cli_args]

    # set-up is timed half before the rounds and half after, so that a slow
    # spell of the host weighs on it as it does on the rounds
    half = 0 if trace else SETUP_SAMPLES // 2
    setup = time_setup(py, env, half)

    plain, traced, failures = [], [], []
    attempted = 0
    t0 = time.perf_counter()
    while not plain or time.perf_counter() - t0 < seconds:
        invs = [spawn([py, "-c", CLI, *args], env) for args in cli_args]
        attempted += len(invs)
        problems, digests = check_round(check, invs, keys, known)
        failures += [(len(plain), i, p) for i, p in enumerate(problems) if p]
        plain.append({"wall_s": invs[-1].end - invs[0].start,
                      "rss_kb": max(inv.rss_kb for inv in invs),
                      "stdout_bytes": sum(len(inv.stdout) for inv in invs),
                      "digests": digests})
        if not trace:
            continue
        summaries, invs = [], []
        for i, args in enumerate(cli_args):
            inv = spawn([py, str(HERE / "tracer.py"), str(OUT / "spans"), *args], env)
            invs.append(inv)
            attempted += 1
            if inv.code != 0 or digest(inv.stdout) != digests[i]:
                failures.append((len(plain) - 1, i, "traced stdout differs from untraced"))
            else:
                summaries.append(tracer.summarize(OUT / "spans"))
        if len(summaries) == len(cli_args):
            wall = invs[-1].end - invs[0].start
            traced.append({"wall_s": wall, "sites": summaries[0]["sites"],
                           "layers": tracer.layer_metrics(tracer.merge(summaries), wall)})

    setup += time_setup(py, env, half)
    store_path.write_text(json.dumps(store, indent=1, sort_keys=True))
    stamp["loadavg_end"] = os.getloadavg()

    walls = [r["wall_s"] for r in plain]
    if trace:
        if not traced:
            raise RuntimeError("no traced round completed")
        metrics = tracer.median_metrics([r["layers"] for r in traced])
        t_wall = statistics.median(r["wall_s"] for r in traced)
        metrics["trace.wall_s"] = (t_wall, "s")
        metrics["trace.overhead_s"] = (t_wall - statistics.median(walls), "s")
    else:
        metrics = end_to_end(plain, setup)
    record = {"stamp": stamp, "rounds": plain, "traced_rounds": traced,
              "wall_s_quartiles": quartiles(walls), "setup_s": setup,
              "failures": failures,
              "metrics": {k: v for k, (v, _) in metrics.items()}}
    name = "%s-seed%d-trace%d.json" % (workload, seed, trace)
    (OUT / name).write_text(json.dumps(record, indent=1))
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "barbell" / "cli.py").is_file():
        print("error: no barbell sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    os.chdir(ROOT)
    OUT.mkdir(exist_ok=True)
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], check=True)
    result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
