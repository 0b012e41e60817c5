"""Command-line interface: one subcommand per library operation.

File conventions: matrices and configuration travel as JSON (human-
diffable), time series as CSV with full-precision values (17 significant
digits).  Exit codes: 0 success, 2 validation error with a message naming
the violated invariant, 1 internal error.  All outputs are byte-identical
across runs for identical inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import instances
from .core import (
    as_dense,
    generator_from_json,
    generator_to_json,
    probability_from_json,
    probability_vector,
)
from .continuum import refinement_study
from .decompose import compose, cycle_decompose, decompose, dual
from .entropy import RELATIVE_GINI, RELATIVE_SHANNON, SHANNON, gini_divergence, kl_divergence, shannon_entropy
from .errors import MarkovFlowError
from .evolve import default_time_grid, entropy_trace, evolve
from .spectral import spectral_bound, verify_bound
from .stationary import stationary_solve, stationary_tree

TRACE_TOKENS = {
    "shannon": SHANNON,
    "kl": RELATIVE_SHANNON,
    "gini": RELATIVE_GINI,
}


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit_text(text: str, output: str | None):
    if output:
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, output: str | None):
    _emit_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", output)


def _csv_text(header: list[str], columns: list[np.ndarray]) -> str:
    row = ",".join(["%.17g"] * len(columns))
    lines = [",".join(header)]
    lines.extend(row % values for values in zip(*(col.tolist() for col in columns)))
    return "\n".join(lines) + "\n"


def _matrix_from_json(obj, *keys):
    if isinstance(obj, dict):
        for key in keys:
            if key in obj:
                return np.asarray(obj[key], dtype=float)
        raise ValueError(f"matrix JSON object needs one of the fields {keys}")
    return np.asarray(obj, dtype=float)


def _decomposition_json(d) -> dict:
    return {"pi": d.pi.p.tolist(), "S": as_dense(d.S).tolist(),
            "A": as_dense(d.A).tolist()}


def _emit_trajectory_csv(traj, output: str | None):
    header = ["t"] + [f"p_{i + 1}" for i in range(traj.n)]
    columns = [traj.times] + [traj.states[:, i] for i in range(traj.n)]
    for name in sorted(traj.traces):
        header.append(name)
        columns.append(traj.traces[name])
    _emit_text(_csv_text(header, columns), output)


def _emit_bound_csv(report, output: str | None):
    _emit_text(
        _csv_text(
            ["t", "D", "bound_lambda2", "bound_2lambda2", "ratio"],
            [report.times, report.divergence, report.bound, report.bound_sharp,
             report.ratio],
        ),
        output,
    )


def _cmd_stationary(args) -> int:
    gen = generator_from_json(_read_json(args.input))
    if args.method == "tree":
        pi = stationary_tree(gen)
    else:
        pi = stationary_solve(gen)
    _emit_json({"pi": pi.p.tolist()}, args.output)
    return 0


def _cmd_decompose(args) -> int:
    d = decompose(generator_from_json(_read_json(args.input)))
    _emit_json(_decomposition_json(d), args.output)
    return 0


def _cmd_compose(args) -> int:
    pi = probability_from_json(_read_json(args.pi))
    s = _matrix_from_json(_read_json(args.S), "S", "matrix")
    a = _matrix_from_json(_read_json(args.A), "A", "matrix")
    gen = compose(pi, s, a)
    _emit_json(generator_to_json(gen), args.output)
    return 0


def _cmd_dual(args) -> int:
    gen = dual(generator_from_json(_read_json(args.input)))
    _emit_json(generator_to_json(gen), args.output)
    return 0


def _cmd_cycles(args) -> int:
    d = decompose(generator_from_json(_read_json(args.input)))
    cycles = cycle_decompose(d.A)
    _emit_json(
        {
            "cycles": [
                {"nodes": list(nodes), "weight": weight}
                for nodes, weight in cycles.cycles
            ]
        },
        args.output,
    )
    return 0


def _cmd_entropy(args) -> int:
    gen = generator_from_json(_read_json(args.input))
    p0 = probability_from_json(_read_json(args.p0))
    if p0.n != gen.n:
        raise ValueError(
            f"size invariant violated: p0 has {p0.n} entries, the generator "
            f"has {gen.n} states"
        )
    if args.kind == "shannon":
        value = shannon_entropy(p0)
    else:
        pi = stationary_solve(gen)
        if args.kind == "kl":
            value = kl_divergence(p0, pi)
        else:
            value = gini_divergence(p0, pi)
    _emit_text(json.dumps(value) + "\n", args.output)
    return 0


def _time_grid(gen, args, d, sb=None) -> np.ndarray:
    """The ``--t-max``/``--points`` grid.  Without ``--t-max`` it runs to
    ten relaxation times of ``sb``, the spectral bound of ``gen``'s
    decomposition ``d``; when ``sb`` is None it is computed from ``d`` here,
    on a best-effort basis."""
    if args.t_max is not None:
        return default_time_grid(gen, points=args.points, t_max=args.t_max)
    if sb is None:
        try:
            sb = spectral_bound(d)
        except MarkovFlowError:
            return default_time_grid(gen, points=args.points)
    return default_time_grid(gen, points=args.points, decay_rate=sb.lambda2)


def _cmd_evolve(args) -> int:
    gen = generator_from_json(_read_json(args.input))
    p0 = probability_from_json(_read_json(args.p0))
    tokens = [tok.strip() for tok in args.traces.split(",") if tok.strip()]
    unknown = [tok for tok in tokens if tok not in TRACE_TOKENS]
    if unknown:
        raise ValueError(
            f"unknown trace tokens {unknown}; available: {sorted(TRACE_TOKENS)}"
        )
    d = decompose(gen)
    traj = evolve(gen, p0, _time_grid(gen, args, d))
    traj = entropy_trace(traj, d, [TRACE_TOKENS[tok] for tok in tokens])
    _emit_trajectory_csv(traj, args.output)
    return 0


def _cmd_bound(args) -> int:
    gen = generator_from_json(_read_json(args.input))
    p0 = probability_from_json(_read_json(args.p0))
    d = decompose(gen)
    sb = spectral_bound(d)
    traj = evolve(gen, p0, _time_grid(gen, args, d, sb))
    _emit_bound_csv(verify_bound(traj, sb), args.output)
    return 0


def _cmd_continuum(args) -> int:
    conf = _read_json(args.problem)
    domain = conf.get("domain", [[-3.0, 3.0], [-3.0, 3.0]])
    phi = conf.get("phi", "quadratic")
    if phi == "custom_samples":
        phi = np.asarray(conf["phi_samples"], dtype=float)
        if args.refine != 1:
            raise ValueError(
                "custom potential samples cannot be resampled: use --refine 1"
            )
        if phi.shape != (args.grid, args.grid):
            raise ValueError(
                f"phi_samples shape {phi.shape} does not match grid {args.grid}"
            )
    diffusion = conf.get("D", "identity")
    if isinstance(diffusion, list):
        diffusion = np.asarray(diffusion, dtype=float)
    gamma = conf.get("gamma", 0.0)
    if isinstance(gamma, list):
        gamma = np.asarray(gamma, dtype=float)
        if args.refine != 1:
            raise ValueError("sampled gamma cannot be resampled: use --refine 1")

    grids = [args.grid * (2 ** k) for k in range(args.refine)]
    levels = refinement_study(domain, grids, phi, diffusion, gamma)
    l1 = [lv["l1_error_gibbs"] for lv in levels]
    mismatch = [lv["mismatch"] for lv in levels]
    report = {
        "domain": domain,
        "phi": conf.get("phi", "quadratic"),
        "gamma": conf.get("gamma", 0.0),
        "grids": grids,
        "levels": levels,
        "l1_ratios": [a / b for a, b in zip(l1, l1[1:]) if b > 0.0],
        "mismatch_ratios": [a / b for a, b in zip(mismatch, mismatch[1:]) if b > 0.0],
    }
    _emit_json(report, args.output)
    return 0


def _cmd_demo(args) -> int:
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    for name, gen in (
        ("decomposition_2state.json", instances.two_state()),
        ("decomposition_3cycle.json", instances.three_cycle()),
    ):
        path = out / name
        _emit_json(_decomposition_json(decompose(gen)), str(path))
        written.append(path)

    gen, p0 = instances.shannon_nonmonotone()
    times = np.concatenate([[0.0], np.geomspace(1e-3, 20.0, 200)])
    traj = evolve(gen, p0, times)
    traj = entropy_trace(traj, decompose(gen),
                         [SHANNON, RELATIVE_SHANNON, RELATIVE_GINI])
    path = out / "entropy_traces.csv"
    _emit_trajectory_csv(traj, str(path))
    written.append(path)

    cyc = instances.three_cycle()
    sb = spectral_bound(decompose(cyc))
    times = np.concatenate([[0.0], np.geomspace(1e-3, 10.0 / sb.lambda2, 200)])
    traj = evolve(cyc, probability_vector([1.0, 0.0, 0.0]), times)
    path = out / "bound_3cycle.csv"
    _emit_bound_csv(verify_bound(traj, sb), str(path))
    written.append(path)

    for path in written:
        sys.stdout.write(f"wrote {path}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="markov-flow",
        description="Decompose continuous-time Markov chains into stationary "
                    "distribution, reversible flow and circulation; evolve, "
                    "trace entropies and verify spectral decay bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stationary", help="stationary distribution of a generator")
    p.add_argument("--input", required=True, help="generator JSON file")
    p.add_argument("--method", choices=["solve", "tree"], default="solve")
    p.add_argument("--output", help="output JSON path (default: stdout)")
    p.set_defaults(func=_cmd_stationary)

    p = sub.add_parser("decompose", help="split a generator into (pi, S, A)")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("compose", help="build a generator from pi, S and A")
    p.add_argument("--pi", required=True, help="probability JSON file")
    p.add_argument("--S", required=True, help="symmetric flow JSON file")
    p.add_argument("--A", required=True, help="circulation JSON file")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("dual", help="time-reversed chain (same pi, negated circulation)")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("cycles", help="peel the circulation into weighted cycles")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_cycles)

    p = sub.add_parser("entropy", help="entropy or divergence of a distribution")
    p.add_argument("--input", required=True)
    p.add_argument("--p0", required=True, help="probability JSON file")
    p.add_argument("--kind", choices=["gini", "shannon", "kl"], required=True)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("evolve", help="integrate the master equation, emit CSV traces")
    p.add_argument("--input", required=True)
    p.add_argument("--p0", required=True)
    p.add_argument("--t-max", type=float, default=None,
                   help="end time (default: 10 / decay rate)")
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--traces", default="shannon,kl,gini",
                   help="comma-separated subset of shannon,kl,gini")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("bound", help="verify the spectral decay bound along a trajectory")
    p.add_argument("--input", required=True)
    p.add_argument("--p0", required=True)
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("continuum", help="discretize a drift-diffusion problem and "
                                         "run a grid-refinement study")
    p.add_argument("--problem", required=True, help="problem JSON file")
    p.add_argument("--grid", type=int, default=16, help="base grid size per axis")
    p.add_argument("--refine", type=int, default=3,
                   help="number of levels, doubling the grid each time")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_continuum)

    p = sub.add_parser("demo", help="regenerate the repository's worked examples")
    p.add_argument("--output-dir", default=".")
    p.set_defaults(func=_cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (MarkovFlowError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        sys.stderr.write(f"internal error: {exc!r}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
