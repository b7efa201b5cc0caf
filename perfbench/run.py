"""Benchmark for stagger: one workload, one seed, one process, one client.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Items are run as a closed loop with a single client: the next item starts
when the previous one has been checked.  Input generation is not timed.

--trace 0  runs items until S seconds of item time have passed and at
           least MIN_ITEMS items are done, times set-up in SETUP_RUNS fresh
           interpreters spread over the run, and reports the end-to-end
           metrics of BENCHMARK.json.
--trace 1  runs a fixed number of items (TRACE_ITEMS_PER_S * S), each
           once untraced and once under the external tracer, and reports
           the per-layer metrics plus the tracing overhead.

Every run writes a record (environment, per-item input sizes and latency,
check counts, metrics) to ``.bench_out/`` and prints, as the last line of
standard output, {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_RUNS = 15        # fresh interpreters per run; their median is setup_s
MIN_ITEMS = 100           # so that at least 10 samples lie beyond p90
MAX_LOOP_S = 120          # hard stop so a run always ends within 180 s
TRACE_ITEMS_PER_S = {"envelope": 10.0, "certify-wide": 1.5,
                     "elim-scale": 2.5}


def _load_program():
    """Import stagger from this checkout's src/, or exit without a result."""
    init = os.path.join(SRC, "stagger", "__init__.py")
    if not os.path.isfile(init):
        sys.exit("perfbench: %s is missing; run from the root of a "
                 "checkout of the repository" % init)
    sys.path.insert(0, SRC)
    import stagger
    import stagger.cli  # noqa: F401
    if os.path.dirname(os.path.abspath(stagger.__file__)) != \
            os.path.dirname(init):
        sys.exit("perfbench: imported stagger from %s, not from %s"
                 % (stagger.__file__, SRC))


def _commit():
    """HEAD of the checkout when it is a git repository, else None."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def setup_probe(workload: str):
    """Set-up seconds of one fresh interpreter, and whether its item passed."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "probe.py"), workload],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    return res["setup_s"], res["ok"]


def end_to_end(workload, seed, seconds, workloads, tally, record):
    """Runs and checks items 1, 2, ... until ``seconds`` of item time have
    passed and MIN_ITEMS items are done, or after MAX_LOOP_S of wall time.

    Set-up probes run between items, spread evenly over the item time, so
    that their median does not hinge on the load of the shared host in one
    moment.
    """
    make = workloads.MAKERS[workload]
    setup, setup_ok, done = [], [], []

    def probe():
        s, ok = setup_probe(workload)
        setup.append(s)
        setup_ok.append(ok)

    busy = 0.0
    tally.run(workloads.first_item(workload))   # warm-up, not timed
    wall0 = time.perf_counter()
    for i in itertools.count(1):
        if (busy >= seconds and len(done) >= MIN_ITEMS) or \
                time.perf_counter() - wall0 > MAX_LOOP_S:
            break
        while len(setup) < SETUP_RUNS and \
                busy >= seconds * len(setup) / SETUP_RUNS:
            probe()
        item = make(seed, i)
        t0 = time.perf_counter()
        tally.run(item)
        dt = time.perf_counter() - t0
        busy += dt
        done.append((i, dt, item.sizes))
    while len(setup) < SETUP_RUNS:   # a run cut short by MAX_LOOP_S
        probe()
    lat = [dt for _i, dt, _s in done]
    ms = sorted(1000.0 * x for x in lat)
    record.update(setup_samples_s=setup, setup_ok=setup_ok,
                  items=_item_rows(done), samples=len(lat))
    return all(setup_ok), {
        "setup_s": (statistics.median(setup), "s"),
        "items_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(ms), "ms"),
        "latency_p90_ms": (statistics.quantiles(ms, n=10)[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def per_layer(workload, seed, seconds, workloads, tally, record):
    """Each item runs twice, untraced and traced, in alternating order, so
    that the overhead ratio does not pick up the host's drift."""
    import tracer

    make = workloads.MAKERS[workload]
    tr = tracer.Tracer()
    runs = {False: [], True: []}
    problems = []
    n = max(2, round(TRACE_ITEMS_PER_S[workload] * seconds))
    tally.run(workloads.first_item(workload))   # warm-up, not traced
    for i in range(1, n + 1):
        for traced in ((False, True) if i % 2 else (True, False)):
            item = make(seed, i)
            if traced:
                tr.install()
            try:
                t0 = time.perf_counter()
                tally.run(item)
                dt = time.perf_counter() - t0
            finally:
                if traced:
                    problems += tr.restore()
            runs[traced].append((i, dt, item.sizes))
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, "%s-seed%d-spans.json.gz"
                              % (workload, seed))
    tr.write(spans_path)

    summ = tr.summary()
    metrics = {}
    for name in tracer.NAMES:
        metrics[name + ".calls"] = (summ[name]["calls"], "count")
        metrics[name + ".self_s"] = (summ[name]["self_s"], "s")
    for layer, fns in tracer.LAYERS.items():
        metrics[layer + ".self_s"] = (
            sum(summ["%s.%s" % (layer, f)]["self_s"] for f in fns), "s")
    metrics["stag.geometry_report.repeat_share"] = (
        tr.repeat_share("stag.geometry_report"), "ratio")
    aisle = summ["stag.aisle_member"]["calls"]
    metrics["derived.li_star.per_aisle_member"] = (
        summ["derived.li_star"]["calls"] / aisle if aisle else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = (
        sum(dt for _i, dt, _s in runs[True])
        / sum(dt for _i, dt, _s in runs[False]), "ratio")
    record.update(items=_item_rows(runs[True]), samples=len(runs[True]),
                  spans_file=os.path.relpath(spans_path, ROOT),
                  spans=len(tr.spans), restore_problems=problems)
    return not problems, metrics


def _item_rows(done):
    return [dict(index=i, latency_s=dt, **sizes) for i, dt, sizes in done]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(TRACE_ITEMS_PER_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _load_program()
    import workloads

    with open(os.path.join(HERE, "predictions.json")) as fh:
        predictions = json.load(fh)["predictions"]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        why = {w["name"]: w["why"] for w in json.load(fh)["workloads"]}
    record = {
        "workload": args.workload, "why": why.get(args.workload),
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "machine": platform.machine(), "commit": _commit(),
        "clients": 1, "loop": "closed", "predictions": predictions,
    }
    tally = workloads.Tally()
    measure = per_layer if args.trace else end_to_end
    ok, metrics = measure(args.workload, args.seed, args.seconds, workloads,
                          tally, record)
    correct = ok and tally.failed == 0
    record.update(attempted=tally.attempted, failed=tally.failed,
                  failed_ratio=tally.failed / tally.attempted,
                  checks=tally.checks, first_errors=tally.first_errors,
                  metrics={k: v for k, (v, _u) in metrics.items()})
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    for err in tally.first_errors:
        print("perfbench: %s" % err, file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
