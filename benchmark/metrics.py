"""Names and units of the metrics the benchmark reports.

``BENCHMARK.json`` at the repository root lists the same names; the
benchmark's own test checks that the two agree.
"""

WORKLOADS = ("dense_chain", "fpe_refine", "chain_batch")

# Reported by every untraced run (``--trace 0``), on every workload.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "decompose_s": "s",
    "cycles_s": "s",
    "bound_s": "s",
    "evolve_s": "s",
    "chains_per_s": "1/s",
    "chain_p50_ms": "ms",
    "chain_p95_ms": "ms",
}

# Reported by every traced run (``--trace 1``), on every workload.  A
# function a workload never calls reports 0 calls and 0 seconds.
PER_LAYER = {
    "spectral.symmetric_eigensolve.calls": "count",
    "spectral.symmetric_eigensolve.self_s": "s",
    "spectral.spectral_bound.calls": "count",
    "evolve.evolve.self_s": "s",
    "evolve.evolve.points": "count",
    "evolve.entropy_trace.self_s": "s",
    "stationary.stationary_solve.calls": "count",
    "stationary.stationary_solve.self_s": "s",
    "stationary.stationary_solve.states": "count",
    "stationary.stationary_tree.self_s": "s",
    "continuum.discretize_fpe_detailed.calls": "count",
    "continuum.discretize_fpe_detailed.self_s": "s",
    "continuum.discretize_fpe_detailed.cells": "count",
    "continuum.operator_symmetry_report.self_s": "s",
    "core.validate_generator.calls": "count",
    "core.validate_generator.self_s": "s",
    "decompose.decompose.calls": "count",
    "decompose.decompose.self_s": "s",
    "decompose.cycle_decompose.self_s": "s",
    "decompose.cycle_decompose.errors": "count",
    "decompose.cycle_decompose.cycles": "count",
    "decompose.dual.errors": "count",
    "entropy.calls": "count",
    "entropy.self_s": "s",
    "cli.main.self_s": "s",
    "trace_overhead_s": "s",
}
