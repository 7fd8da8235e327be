"""coxwalk benchmark: one workload, one fresh process, one JSON result.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {paper,automata,elements} \
        --seed N --seconds S --trace {0,1}

With --trace 0 the workload runs passes for up to S seconds (at least
one), and the last line of stdout carries the end-to-end metrics.  With
--trace 1 it runs one pass untraced and the same pass traced, and reports
the per-layer metrics.  The line before the result ("meta ...") records
the code and machine it came from; the full result, with spans for a
traced run, is also written to perfbench/results/.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracer import Tracer, peak_rss_mb, per_layer_metrics
from workloads import WORKLOADS, Record, figure1_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# Set-up is timed in this process and in this many fresh child processes;
# setup_s is the median.
SETUP_PROBES = 4

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "pass_s": "s",
    "write_s": "s",
    "read_s": "s",
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
}


def _import_coxwalk():
    """Import coxwalk from this checkout's src/ and nowhere else."""
    if not (SRC / "coxwalk" / "__init__.py").is_file():
        raise SystemExit(f"error: no coxwalk sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import coxwalk

    if Path(coxwalk.__file__).resolve().parent != (SRC / "coxwalk").resolve():
        raise SystemExit(f"error: imported coxwalk from {coxwalk.__file__}, not {SRC}")
    return coxwalk


def _timed_setup(workload):
    t0 = perf_counter()
    _import_coxwalk()
    state = workload.setup()
    return state, perf_counter() - t0


def _probe_setup(name):
    """Set-up time of a fresh process, as measured inside it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--setup-probe"],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout.split()[-1])


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "coxwalk").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_sha():
    if not (ROOT / ".git").exists():
        return None  # a plain checkout; the source digest identifies the code
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _meta(args, coxwalk):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "kernel_backend": coxwalk.KERNEL_BACKEND,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def tail_percentile(n):
    """The highest percentile, up to the 99th, with at least ten of n
    samples beyond it; 50 (the median) when there are too few."""
    return max(50, min(99, int(100 * (1 - 10 / n))))


def _percentile(samples, pct):
    if pct == 50 or len(samples) < 2:
        return statistics.median(samples)
    return statistics.quantiles(samples, n=100)[pct - 1]


def end_to_end_metrics(rec, setup_samples):
    passes = rec.passes
    latency = rec.latency_ms
    values = {
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": (rec.attempted - rec.failed) / rec.attempted,
        "pass_s": statistics.median(p[0] for p in passes),
        "write_s": statistics.median(p[1] for p in passes),
        "read_s": statistics.median(p[2] for p in passes),
        "requests_per_s": len(latency) / sum(p[0] for p in passes),
        "latency_p50_ms": statistics.median(latency),
        "latency_tail_ms": _percentile(latency, tail_percentile(len(latency))),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def run_untraced(workload, state, seconds, rng, rec):
    """Passes until the next one would end after `seconds`; at least one."""
    start = perf_counter()
    walls = []
    while True:
        t0 = perf_counter()
        inputs = workload.inputs(state, rng)
        results = workload.run_pass(state, inputs, rec)
        workload.check(state, results, rec)
        del results
        gc.collect()
        walls.append(perf_counter() - t0)
        if perf_counter() - start + statistics.median(walls) > seconds:
            return


def run_traced(workload, state, rng, rec):
    """One pass untraced, then the same inputs traced."""
    inputs = workload.inputs(state, rng)
    t0 = perf_counter()
    results = workload.run_pass(state, inputs, rec)
    untraced_s = perf_counter() - t0
    workload.check(state, results, rec)
    del results
    gc.collect()

    over_budget = rec.over_budget
    tracer = Tracer(figure1_names())
    t0 = perf_counter()
    with tracer:
        results = workload.run_pass(state, inputs, rec)
    traced_s = perf_counter() - t0
    workload.check(state, results, rec)
    metrics = per_layer_metrics(tracer, traced_s / untraced_s, rec.over_budget - over_budget)
    return metrics, tracer.spans


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]()
    state, setup_s = _timed_setup(workload)
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    import coxwalk

    setup_samples = [setup_s]
    if not args.trace:
        setup_samples += [_probe_setup(args.workload) for _ in range(SETUP_PROBES)]
    rng = random.Random(args.seed)
    rec = Record()
    spans = None
    if args.trace:
        metrics, spans = run_traced(workload, state, rng, rec)
    else:
        run_untraced(workload, state, args.seconds, rng, rec)
        metrics = end_to_end_metrics(rec, setup_samples)

    meta = _meta(args, coxwalk)
    meta["passes"] = rec.passes
    meta["requests"] = len(rec.latency_ms)
    meta["tail_percentile"] = tail_percentile(len(rec.latency_ms)) if rec.latency_ms else None
    meta["export_over_budget"] = rec.over_budget
    meta["setup_samples"] = setup_samples
    result = {
        "correct": not rec.wrong,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out, "w") as fh:
        json.dump({"meta": meta, "result": result, "wrong": rec.wrong, "spans": spans}, fh)
    for line in rec.wrong:
        print(f"WRONG {line}", file=sys.stderr)
    print("meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
