"""Benchmark of markov-flow, run from the root of a source checkout.

    python3 benchmark/run.py --workload dense_chain --seed 0 --seconds 20 --trace 0
    python3 benchmark/run.py --smoke

Each run starts fresh worker processes (``benchmark/worker.py``) with one
BLAS/OpenMP thread, imports ``markov_flow`` from ``src/``, and prints one
JSON object as the last line of standard output:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones.  Details of each
run (environment, passes, failures) go to ``.bench_out/``.  See
``benchmark/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, WORKLOADS

HERE = Path(__file__).resolve().parent
# One thread on every commit measured: on a 2-core machine a 400-point
# n=160 evolve took 3.8 s with two BLAS threads against 1.4 s with one.
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Extra processes that only set up, so setup_s is a median of several.
SETUP_PROBES = 6
TIME_LIMIT_S = 175.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = THREADS
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(root: Path, out: Path, tag: str, worker_args: list, deadline: float) -> dict:
    """Run one worker to completion and return the result it wrote."""
    workdir = out / f"work-{tag}"
    result = out / f"{tag}.result.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), *worker_args,
           "--workdir", str(workdir), "--result", str(result),
           "--spawned-at", repr(time.perf_counter())]
    # The worker's standard output goes to ours for errors: the last line of
    # our standard output is reserved for the result.
    proc = subprocess.Popen(cmd, cwd=root, env=child_env(root),
                            stdout=sys.stderr, stderr=sys.stderr)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {tag} ran past the time limit") from None
    finally:
        if proc.poll() is None:     # timed out, interrupted or terminated
            proc.kill()
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    if code != 0 or not result.exists():
        raise BenchError(f"worker {tag} exited with code {code}")
    data = json.loads(result.read_text(encoding="utf-8"))
    result.unlink()
    return data


def measure(root: Path, out: Path, workload: str, seed: int, seconds: float,
            trace: int, size: str, probes: int, deadline: float) -> dict:
    """One run: set-up probes (untraced only), then the measured worker."""
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
              "--trace", str(trace), "--size", size]
    setup_samples = []
    if not trace:
        for i in range(probes):
            data = spawn(root, out, f"{workload}-setup{i}",
                         common + ["--mode", "setup"], deadline)
            setup_samples.append(data["setup_s"])
    run_args = common + ["--mode", "run"]
    if trace:
        run_args += ["--spans", str(out / f"{workload}-seed{seed}.spans.json")]
    data = spawn(root, out, f"{workload}-run", run_args, deadline)
    setup_samples.append(data["setup_s"])
    metrics = dict(data["metrics"])
    if not trace:
        metrics["setup_s"] = statistics.median(setup_samples)
    names = PER_LAYER if trace else END_TO_END
    data["setup_samples"] = setup_samples
    data["line"] = {
        "correct": data["errors"] == 0,
        "attempted": data["attempted"],
        "failed": data["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in names.items()},
    }
    details = out / f"{workload}-seed{seed}-trace{trace}.json"
    details.write_text(json.dumps(data, indent=1), encoding="utf-8")
    sys.stderr.write(f"{workload} seed {seed}: {len(data['passes'])} passes, "
                     f"{data['attempted']} operations, {data['failed']} failed "
                     f"({data['errors']} unexplained); environment {data['environment']}\n")
    for key, count in sorted(data["failure_counts"].items()):
        sys.stderr.write(f"  {count:5d} x {key}\n")
    return data["line"]


def smoke(root: Path, out: Path, deadline: float) -> int:
    """Every workload at tiny sizes, untraced and traced, with every check."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            line = measure(root, out, workload, 0, 0.0, trace, "smoke", 1, deadline)
            print(json.dumps({"workload": workload, "trace": trace, **line}))
            ok = ok and line["correct"]
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="markov-flow benchmark",
        epilog="Run from the root of a checkout; see benchmark/README.md.")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny sizes and exit")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    root = Path.cwd()
    if not (root / "src" / "markov_flow" / "__init__.py").is_file():
        sys.stderr.write("no src/markov_flow here: run from the root of a "
                         "markov-flow checkout\n")
        return 2
    # Terminating the benchmark unwinds it, so that it stops its worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + TIME_LIMIT_S
    out = root / ".bench_out" / ("smoke" if args.smoke else "")
    out.mkdir(parents=True, exist_ok=True)
    try:
        if args.smoke:
            return smoke(root, out, deadline)
        line = measure(root, out, args.workload, args.seed, args.seconds,
                       args.trace, "full", SETUP_PROBES, deadline)
    except BenchError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
