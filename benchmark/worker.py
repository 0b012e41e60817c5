"""One benchmark process: set up one workload, run its passes, check them.

``run.py`` starts this script in a fresh interpreter for each set-up probe
and for each measured run, with the BLAS thread count already fixed in the
environment, so that set-up time and peak memory belong to one workload.
Every time it reports is in reference seconds (see ``speed.py``).
Results go to the JSON file named by ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import speed

if __name__ == "__main__":
    # Sample the core's speed from here on, so that set-up, imports
    # included, is measured on the same clock as the passes; the clock
    # carries the first probe's speed back to the process start.
    _PROBE = speed.SpeedProbe()
    _PROBE.start()

import scipy  # noqa: E402

import markov_flow  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from tracer import END, START, Tracer, summarize  # noqa: E402
from workloads import SIZES, WORKLOADS, Tally  # noqa: E402

MIN_PASSES = 3   # byte identity needs two; a third lowers the odds that
                 # every pass of a run meets interference


def environment(threads: str) -> dict:
    """What the figures depend on besides the code."""
    def blas(config):
        dep = config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep['name']} {dep['version']}"

    return {
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config),
        "scipy_blas": blas(scipy.show_config),
        "speed_probe": {"interval_s": speed.INTERVAL_S, "loops": speed.PROBE_LOOPS,
                        "sums": speed.PROBE_SUMS, "array_bytes": speed.PROBE_ARRAY_BYTES,
                        "reference_s": speed.REFERENCE_S},
    }


def run_passes(workload, seconds: float, trace: bool):
    """Timed passes filling ``seconds`` of wall time, to within half a pass.

    In a traced run, passes alternate untraced and traced, starting
    untraced; the tracer is paused while a pass checks its outputs.
    Returns ``[(traced, PassResult, spans or None)]`` and the tally.
    """
    tally = Tally()
    tracer = Tracer()
    passes = []
    wall = 0.0
    while len(passes) < MIN_PASSES or wall + wall / len(passes) / 2 < seconds:
        traced = trace and len(passes) % 2 == 1
        spans = None
        if traced:
            with tracer:
                result = workload.run_pass(tally, tracer.paused)
            spans = tracer.take()
        else:
            result = workload.run_pass(tally, contextlib.nullcontext)
        wall += sum(end - start for start, end in result.timed)
        passes.append((traced, result, spans))
    return passes, tally


def pass_timings(result, clock) -> dict:
    """The timings of one pass, in reference seconds.

    ``wall_s`` totals the pass's timed sections and each step metric its
    own, or takes their median when they repeat one call.  Chain
    latencies come from the pass's chains, or from the whole pass where
    it is one chain.
    """
    def durations(sections):
        a = np.asarray(sections, dtype=float).reshape(-1, 2)
        return clock(a[:, 1]) - clock(a[:, 0])

    wall = float(durations(result.timed).sum())
    chains = durations(result.chains) if result.chains is not None else np.array([wall])
    timings = {
        name: float(np.median(durations(sections)) if name in result.per_call
                    else durations(sections).sum())
        for name, sections in result.steps.items()
    }
    timings.update({
        "wall_s": wall,
        "clock_wall_s": sum(end - start for start, end in result.timed),
        "chains_per_s": len(chains) / float(chains.sum()),
        "chain_p50_ms": 1e3 * float(np.percentile(chains, 50)),
        "chain_p95_ms": 1e3 * float(np.percentile(chains, 95)),
    })
    return timings


def in_reference_time(spans, clock) -> list:
    """The spans with their start and end on the reference clock."""
    starts = clock(np.array([s[START] for s in spans], dtype=float))
    ends = clock(np.array([s[END] for s in spans], dtype=float))
    out = []
    for span, start, end in zip(spans, starts, ends):
        span = list(span)
        span[START], span[END] = float(start), float(end)
        out.append(span)
    return out


def end_to_end(timings) -> dict:
    """Each timing of the run is its median over the untraced passes."""
    plain = [t for t in timings if not t["traced"]]
    return {name: statistics.median(t[name] for t in plain)
            for name in END_TO_END if name in plain[0]}


def per_layer(timings, layers) -> dict:
    """Each per-layer figure at its median over the traced passes, and the
    tracing overhead as the difference of the median pass times."""
    values = {
        name: statistics.median(stats.get(name, 0) for stats in layers)
        for name in PER_LAYER if name != "trace_overhead_s"
    }
    values["trace_overhead_s"] = (
        statistics.median(t["wall_s"] for t in timings if t["traced"])
        - statistics.median(t["wall_s"] for t in timings if not t["traced"])
    )
    return values


def failure_counts(failures) -> dict:
    counts: dict[str, int] = {}
    for f in failures:
        key = f"{f['op']}: {f['kind']}: {f['error'].split(':', 1)[0]}"
        counts[key] = counts.get(key, 0) + 1
    return counts


def main(probe, argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.perf_counter() of the parent just before it "
                             "started this process")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", help="where a traced run writes its spans")
    args = parser.parse_args(argv)

    src = (Path.cwd() / "src").resolve()
    if src not in Path(markov_flow.__file__).resolve().parents:
        sys.stderr.write(f"markov_flow was imported from {markov_flow.__file__}, "
                         f"not from {src}\n")
        return 2

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](SIZES[args.size])
    workload.setup(args.seed, workdir)
    ready = time.perf_counter()
    result = {}

    if args.mode == "run":
        passes, tally = run_passes(workload, args.seconds, bool(args.trace))
    probe.stop()
    clock = probe.work_clock()
    result["setup_s"] = float(clock(ready) - clock(args.spawned_at))
    result["setup_clock_s"] = ready - args.spawned_at
    probes = np.asarray(probe.durations)
    result["speed_probes"] = {
        "count": len(probes),
        "ms_p5_p50_p95": [float(x) for x in 1e3 * np.percentile(probes, [5, 50, 95])],
    }

    if args.mode == "run":
        timings = [{"traced": traced, **pass_timings(r, clock)} for traced, r, _ in passes]
        spans = [in_reference_time(s, clock) for traced, _, s in passes if traced]
        layers = [summarize(s) for s in spans]
        for t, stats in zip((t for t in timings if t["traced"]), layers):
            t["layers"] = stats
        metrics = per_layer(timings, layers) if args.trace else end_to_end(timings)
        if not args.trace:
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result.update({
            "metrics": metrics,
            "attempted": tally.attempted,
            "failed": len(tally.failures),
            "errors": tally.errors,
            "failure_counts": failure_counts(tally.failures),
            "failures_first": tally.failures[:20],
            "passes": timings,
            "environment": environment(os.environ.get("OPENBLAS_NUM_THREADS", "")),
        })
        missing = set(PER_LAYER if args.trace else END_TO_END) - set(metrics) - {"setup_s"}
        if missing:
            sys.stderr.write(f"metrics missing: {sorted(missing)}\n")
            return 1
        if args.spans:
            Path(args.spans).write_text(json.dumps(spans), encoding="utf-8")

    Path(args.result).write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(_PROBE))
