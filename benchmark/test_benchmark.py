"""The benchmark's own tests: smoke mode, the metric list, the tracer.

Run from the repository root with ``python -m pytest benchmark``.  They
are not part of the library's suite under ``tests/``.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import markov_flow as mf  # noqa: E402
import speed  # noqa: E402
from metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402

# The two defects this benchmark keeps in its data (see README.md).
KNOWN_REFUSALS = {"cycle_decompose: refused: NotBalanced",
                  "dual: refused: ColumnSumViolation"}


def test_benchmark_json_lists_the_metrics_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert spec["paths"] == ["benchmark"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_smoke_mode_runs_every_workload_with_every_check():
    proc = subprocess.run([sys.executable, "benchmark/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [(x["workload"], x["trace"]) for x in lines] == [
        (w, t) for w in WORKLOADS for t in (0, 1)]
    for line in lines:
        assert line["correct"] and line["attempted"] > 0
        names = PER_LAYER if line["trace"] else END_TO_END
        assert list(line["metrics"]) == list(names)
        if not line["trace"]:
            assert all(m["value"] > 0 for m in line["metrics"].values())
    details = json.loads((ROOT / ".bench_out" / "smoke" /
                          "chain_batch-seed0-trace0.json").read_text())
    assert set(details["failure_counts"]) <= KNOWN_REFUSALS
    assert details["failed"] == sum(details["failure_counts"].values()) > 0


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "benchmark/run.py", "--workload",
                           "chain_batch", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_work_clock_scales_by_probe_speed_and_skips_probe_time():
    probe = speed.SpeedProbe()
    ref = speed.REFERENCE_S
    # Probes at 1.0 (reference speed) and at 2.0 (half speed), each taking
    # its timed duration, with one second of work between them.
    probe.starts = [1.0, 2.0 + ref]
    probe.durations = [ref, 2 * ref]
    probe.ends = [s + d for s, d in zip(probe.starts, probe.durations)]
    clock = probe.work_clock()
    assert clock(1.0 + ref) - clock(1.0) == 0.0                       # probe time
    assert np.isclose(clock(2.0 + ref) - clock(1.0 + ref), 0.5)       # half speed
    assert np.isclose(clock(1.0) - clock(0.5), 0.5)                   # before the first
    assert np.isclose(clock(5.0 + 3 * ref) - clock(2.0 + 3 * ref), 1.5)  # after the last
    assert np.allclose(clock(np.array([0.5, 1.0])), [clock(0.5), clock(1.0)])
    probe.ends[0] += 0.25           # an untimed start that took 0.25 s
    clock = probe.work_clock()
    assert np.isclose(clock(2.0 + ref) - clock(1.0), 0.75 * 0.5)


def test_speed_probe_samples_while_installed():
    probe = speed.SpeedProbe()
    probe.start()
    try:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            sum(range(1000))
    finally:
        probe.stop()
    assert len(probe.starts) >= 3
    clock = probe.work_clock()
    assert clock(probe.starts[-1]) > clock(probe.starts[0])


def test_tracer_records_intra_package_calls_as_children():
    rates = np.ones((3, 3))
    np.fill_diagonal(rates, 0.0)
    gen = mf.from_offdiagonal_rates(rates)
    original = mf.stationary_solve
    tracer = Tracer()
    with tracer:
        mf.decompose(gen)
        assert mf.stationary_solve is not original
        with tracer.paused():
            mf.decompose(gen)
    assert mf.stationary_solve is original
    assert mf.decompose.__module__ == "markov_flow.decompose"
    spans = tracer.take()
    names = [s[0] for s in spans]
    assert names == ["decompose.decompose", "stationary.stationary_solve"]
    assert spans[1][3] == 0     # the solve's parent is decompose
    stats = summarize(spans)
    assert stats["stationary.stationary_solve.states"] == 3
    assert stats["decompose.decompose.self_s"] <= stats["decompose.decompose.total_s"]
    assert stats["decompose.calls"] == 1 and stats["stationary.calls"] == 1


def test_tracer_records_the_error_that_leaves_a_call():
    tracer = Tracer()
    a = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with tracer:
        try:
            mf.cycle_decompose(a)
        except mf.errors.NotBalanced:
            pass
    stats = summarize(tracer.take())
    assert stats["decompose.cycle_decompose.errors"] == 1
