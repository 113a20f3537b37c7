"""Seeded coxkit benchmark.

    python3 perfbench/run.py --workload session-words --seed 1 --seconds 30 --trace 0

Runs one workload (see workloads.py) as a closed loop with one client in
this process, against the coxkit sources of the checkout this file sits
in.  Queries are issued until --seconds of query time have passed and at
least the workload's census has completed; every answer is checked
outside the timed region by the independent checker.  The census is a
fixed number of whole rounds of query shapes that every run completes.
Whatever is counted rather than timed is taken over the census alone:
decided_ratio, peak_rss_mb, the two digests and every per-layer metric.
So a faster program that fits more queries into --seconds does not move
them; they depend on the seed and the code but not on the machine.

The last line of standard output is one JSON object.  With --trace 0 it
carries the end-to-end metrics; setup_s is the median over fresh
processes of the time from launch to a workload ready to run.  With
--trace 1 it carries the per-layer metrics from tracer.py, which traces
the census and is then removed, plus trace_overhead_ratio, which compares
the traced time of the census with an untraced child run of the same
seed.

The exit status is 0 only when every answer was correct and no query
raised an undocumented exception.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 7


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def import_coxkit():
    """coxkit from this checkout's src/, never from anywhere else."""
    if not (SRC / "coxkit" / "__init__.py").is_file():
        fail("no coxkit sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import coxkit
    if Path(coxkit.__file__).resolve().parent != (SRC / "coxkit").resolve():
        fail("imported coxkit from %s, not from %s" % (coxkit.__file__, SRC))
    return coxkit


def digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def percentile(values, q):
    """The q-quantile by the nearest-rank rule."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def run_loop(wl, seconds, census, at_census, tracer, coxkit):
    """Issue queries until the time is spent and the census is done.

    at_census() is called once, right after query number census was judged.
    """
    lat = []
    decided = []
    answers = []
    descs = []
    failures = []
    busy = 0.0
    clock = time.perf_counter
    while len(lat) < census or busy < seconds:
        i = len(lat)
        q = wl.next_query()
        if tracer is not None:
            tracer.begin_query(i, q.kind)
        exc = None
        t0 = clock()
        try:
            res = q.run()
        except Exception as e:
            exc = e
        dt = clock() - t0
        busy += dt
        lat.append(dt)
        if exc is None:
            try:
                ok = q.judge(res)
                answer = wl.answer(res)
            except Exception as e:
                failures.append((i, q.desc, "%s: %s" % (type(e).__name__, e)))
                ok, answer = False, "wrong"
        elif isinstance(exc, coxkit.BudgetExceeded):
            ok, answer = False, "budget-exceeded"
        else:
            failures.append((i, q.desc, "%s: %s" % (type(exc).__name__, exc)))
            ok, answer = False, "raised"
        decided.append(ok)
        if i < census:
            answers.append(answer)
            descs.append(q.desc)
        if i + 1 == census:
            at_census()
    return lat, decided, answers, descs, failures


def child(args):
    """Run this file again in a fresh process and return its JSON line."""
    cmd = [sys.executable, str(Path(__file__).resolve())] + args
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)
    if proc.returncode != 0:
        fail("child %s failed: %s" % (args, proc.stderr.strip()[-400:]))
    return proc.stdout.strip().splitlines()[-1]


def measure_setup(name, seed):
    """Median over fresh processes of start-to-ready time of the set-up."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        ready = float(child(["--workload", name, "--seed", str(seed), "--setup-only"]))
        times.append(ready - start)
    return statistics.median(times)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--queries", type=int, default=None,
                   help="run exactly this many queries and take them as the census "
                        "(used for the overhead baseline)")
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the monotonic clock, and exit")
    args = p.parse_args()

    coxkit = import_coxkit()
    sys.path.insert(0, str(HERE))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        fail("unknown workload %r; choose from %s" % (args.workload, sorted(workloads.WORKLOADS)))
    workdir = OUT / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    tracer = None
    if args.trace:
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer().install(coxkit)
    snap = {}

    def at_census():
        snap["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()
            tracer.finish()
            snap["layers"] = tracer.metrics()

    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.setup_only:
            print(repr(time.monotonic()))
            return 0
        if args.queries is not None:
            seconds, census = 0.0, args.queries
        else:
            seconds, census = args.seconds, wl.census
        lat, decided, answers, descs, failures = run_loop(
            wl, seconds, census, at_census, tracer, coxkit)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    n = len(lat)
    input_digest = digest((wl.inputs, descs))
    answer_digest = digest(answers)
    census_busy = sum(lat[:census])
    for i, desc, msg in failures[:20]:
        print("FAIL query %d %r: %s" % (i, desc, msg))
    print("workload %s seed %d trace %d python %s nproc %d"
          % (args.workload, args.seed, args.trace, platform.python_version(), os.cpu_count()))
    print("input_digest %s answer_digest %s (first %d queries)" % (input_digest, answer_digest, census))
    print("queries %d failed %d error_ratio %.6f decided_ratio %.6f (first %d queries)"
          % (n, len(failures), len(failures) / n, sum(decided[:census]) / census, census))
    print("census_busy_s %.6f peak_rss_mb %.3f at the census, %.3f at the end %s"
          % (census_busy, snap["rss_mb"],
             resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
             json.dumps(wl.report())))

    if tracer is not None:
        metrics = snap["layers"]
        base = json.loads(child(["--workload", args.workload, "--seed", str(args.seed),
                                 "--trace", "0", "--queries", str(census)]))
        metrics["trace_overhead_ratio"] = (census_busy / base["census_busy_s"], "ratio")
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / ("trace-%s-%d.jsonl" % (args.workload, args.seed))
        tracer.write(trace_path)
        print("spans %d dropped %d written to %s" % (len(tracer.spans), tracer.dropped, trace_path))
        if base["answer_digest"] != answer_digest:
            failures.append((-1, "trace", "traced answers differ from untraced ones"))
    elif args.queries is not None:
        metrics = {}
    else:
        metrics = {
            "setup_s": (measure_setup(args.workload, args.seed), "s"),
            "queries_per_s": (n / sum(lat), "1/s"),
            "latency_p50_ms": (statistics.median(lat) * 1000.0, "ms"),
            "latency_p90_ms": (percentile(lat, 0.9) * 1000.0, "ms"),
            "decided_ratio": (sum(decided[:census]) / census, "ratio"),
            "peak_rss_mb": (snap["rss_mb"], "MB"),
        }
        print("samples %d (latency includes the in-query verification step)" % n)

    result = {
        "correct": not failures,
        "attempted": n,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.queries is not None:
        result.update(census_busy_s=census_busy, answer_digest=answer_digest)
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
