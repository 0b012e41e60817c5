"""The benchmark's workloads: inputs made from a seed, timed passes, checks.

Each workload makes its inputs in :meth:`setup` and hands the library
only those inputs.  :meth:`run_pass` times calls into public entry points
(``markov_flow.cli.main`` and library functions) and checks their outputs
outside the timed region, against the acceptance suite's tolerances.

Every library call or CLI subcommand is one operation.  An operation
fails when it raises a ``MarkovFlowError`` ("refused"), when its output
fails a check ("wrong"), or when it raises anything else or leaves output
the checks cannot read ("error").  All three count in the run's
``failed``; only "error" makes the run incorrect, since it means the
benchmark could not tell what the program did.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.linalg

import markov_flow as mf
import markov_flow.cli
from markov_flow.errors import MarkovFlowError

# Sizes of the real workloads and of the smoke mode the benchmark's own
# test runs.  The smoke sizes keep every check and every code path.
SIZES = {
    "full": {
        "dense_n": 120, "evolve_points": 1000,
        "fpe_grid": 16, "fpe_refine": 3,
        "batch_chains": 600, "batch_n_max": 40,
    },
    "smoke": {
        "dense_n": 10, "evolve_points": 40,
        "fpe_grid": 16, "fpe_refine": 2,
        "batch_chains": 36, "batch_n_max": 10,
    },
}

# Tolerances, each taken from the acceptance suite (tests/test_acceptance.py)
# or the unit test that covers the same quantity.
ROUNDTRIP_RTOL = 1e-12      # criterion 01: recompose / compose round trip
TREE_ATOL = 1e-10           # criterion 03: solve versus spanning trees
A_PART_RTOL = 1e-13         # criterion 04: circulation production
DUAL_RTOL = 1e-12           # criterion 09: dual involution, pi, -A
CYCLES_RTOL = 1e-14         # criterion 10: cycle superposition
CYCLE_DUST_RTOL = 1e-15     # cycle_decompose's default rtol: dust it drops
FPE_RATIO_MIN = 3.5         # criterion 11: L1 error ratio per halving
FPE_RESIDUAL_MAX = 1e-12    # criterion 11: adjointness residuals
FPE_CIRCULATION_MIN = 1e-6  # criterion 11: circulation stays visible
BOUND_RTOL = 1e-8           # criterion 07: D <= bound * (1 + 1e-8)
EIG_RTOL = 1e-10            # test_spectral: eigenvalues to 1e-10 * ||G||
EXPM_ATOL = 1e-13           # test_evolve: rows against a closed form
MONOTONE_TOL = 1e-10        # criterion 05: divergence never rises
STATIONARY_RTOL = 1e-10     # stationary_solve's own residual contract


class Skipped(Exception):
    """An operation not run because an operation it needs failed."""


@dataclass
class PassResult:
    """What one pass timed, as ``(start, end)`` pairs of ``time.perf_counter``.

    The caller turns them into durations once the pass is over (see
    ``speed.py``).
    """

    timed: list                 # the timed sections; wall_s is their total
    steps: dict                 # step metric name -> the sections it totals
    chains: list | None         # one section per chain finished in the pass;
                                # None when the whole pass is one chain
    per_call: frozenset = frozenset()   # steps whose sections are repeats of
                                        # one call: their median, not total


@dataclass
class Tally:
    """Operations attempted and the ones that failed, with reasons.

    Each operation counts once however many passes repeat it, so the
    totals depend on the seed alone and not on how many passes fitted.
    """

    attempted: int = 0
    failures: list = field(default_factory=list)   # dicts: op, item, kind, error

    def fail(self, op, item, kind, error):
        self.failures.append({"op": op, "item": item, "kind": kind,
                              "error": str(error)[:300]})

    @property
    def errors(self) -> int:
        return sum(1 for f in self.failures if f["kind"] == "error")


def _verdict(checked: dict, item, operations: int, digest: str, tally: Tally, check):
    """Check one item's outputs the first time a pass makes them.

    The first pass counts the item's operations as attempted and checks
    them in full.  A later pass only compares its outputs with the first
    one's bytes; the first pass whose outputs differ adds one failure for
    breaking run-to-run identity.
    """
    seen = checked.get(item)
    if seen is None:
        checked[item] = [digest, False]
        tally.attempted += operations
        check(tally)
    elif seen[0] != digest and not seen[1]:
        seen[1] = True
        tally.fail("identity", item, "wrong", "outputs differ between passes of one run")


def _digest(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(blob)
    return h.hexdigest()


def _rel(a, b, scale) -> float:
    return float(np.abs(np.asarray(a) - np.asarray(b)).max()) / max(scale, 1e-300)


def _random_rates(rng, n, family):
    """Off-diagonal rates of one chain; the families of tests/helpers.py."""
    if family == "birth_death":
        rates = np.zeros((n, n))
        for u in range(n - 1):
            rates[u + 1, u] = rng.uniform(0.2, 2.0)
            rates[u, u + 1] = rng.uniform(0.2, 2.0)
        return rates
    rates = rng.uniform(0.2, 2.0, (n, n))
    if family == "sparse":
        keep = rng.random((n, n)) < 0.2
        ring = np.zeros((n, n), dtype=bool)
        ring[(np.arange(n) + 1) % n, np.arange(n)] = True
        rates *= keep | ring
    np.fill_diagonal(rates, 0.0)
    return rates


def _generator_matrix(rates) -> np.ndarray:
    """Column-convention generator: diagonal is minus the column sums."""
    q = rates.copy()
    np.fill_diagonal(q, -rates.sum(axis=0))
    return q


def _cli(args) -> tuple[int, tuple[float, float]]:
    gc.collect()   # every timed call starts from the same collector state
    start = time.perf_counter()
    code = markov_flow.cli.main(args)
    return code, (start, time.perf_counter())


class DenseChain:
    """One dense n=120 chain through a CLI session of four subcommands.

    The spectrum (``bound``), the evolution (``evolve``), cycle peeling
    (``cycles``) and the CLI's JSON and CSV emitters do most of the work.
    ``bound`` is dominated by the Jacobi eigensolver and ``evolve`` never
    calls it, so a spectral change and an evolution change move different
    step metrics of this one workload.
    """

    name = "dense_chain"
    STEPS = ("decompose", "cycles", "bound", "evolve")
    # One decompose call takes about 40 ms, too short to give a steady
    # figure once a pass; a pass makes it this many times, reports the
    # median, and counts only the first in wall_s.
    DECOMPOSE_CALLS = 9

    def __init__(self, size: dict):
        self.n = size["dense_n"]
        self.points = size["evolve_points"]
        self._checked = {}

    def setup(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.q = _generator_matrix(_random_rates(rng, self.n, "dense"))
        self.p0 = np.zeros(self.n)
        self.p0[0] = 1.0
        self.pi_ref, self.lambda2_ref, self.g_norm = _numpy_spectrum(self.q)
        self.files = {
            "q": workdir / "q.json", "p0": workdir / "p0.json",
            "decompose": workdir / "decomposition.json",
            "cycles": workdir / "cycles.json",
            "bound": workdir / "bound.csv", "evolve": workdir / "evolve.csv",
        }
        _write_json(self.files["q"], {"n": self.n, "convention": "column",
                                      "q": self.q.tolist()})
        _write_json(self.files["p0"], self.p0.tolist())
        self.t_max = 10.0 / self.lambda2_ref
        self._warm_up(workdir)

    def _warm_up(self, workdir: Path):
        """The same session on a 4-state chain, so first-call costs land in
        set-up rather than in the first timed pass."""
        rates = _random_rates(np.random.default_rng(0), 4, "dense")
        q_path, p_path = workdir / "warm_q.json", workdir / "warm_p0.json"
        _write_json(q_path, {"n": 4, "q": _generator_matrix(rates).tolist()})
        _write_json(p_path, [1.0, 0.0, 0.0, 0.0])
        out = str(workdir / "warm.out")
        for args in (["decompose", "--input", str(q_path), "--output", out],
                     ["cycles", "--input", str(q_path), "--output", out],
                     ["bound", "--input", str(q_path), "--p0", str(p_path),
                      "--output", out],
                     ["evolve", "--input", str(q_path), "--p0", str(p_path),
                      "--points", "10", "--output", out]):
            markov_flow.cli.main(args)

    def _session(self):
        f = {k: str(v) for k, v in self.files.items()}
        return {
            "decompose": ["decompose", "--input", f["q"], "--output", f["decompose"]],
            "cycles": ["cycles", "--input", f["q"], "--output", f["cycles"]],
            "bound": ["bound", "--input", f["q"], "--p0", f["p0"],
                      "--output", f["bound"]],
            "evolve": ["evolve", "--input", f["q"], "--p0", f["p0"],
                       "--t-max", repr(self.t_max), "--points", str(self.points),
                       "--traces", "shannon,kl,gini", "--output", f["evolve"]],
        }

    def run_pass(self, tally: Tally, untimed) -> PassResult:
        for step in self.STEPS:
            self.files[step].unlink(missing_ok=True)
        steps, codes = {}, {}
        for step, args in self._session().items():
            calls = self.DECOMPOSE_CALLS if step == "decompose" else 1
            codes[step], steps[f"{step}_s"] = 0, []
            for _ in range(calls):
                code, section = _cli(args)
                codes[step] = max(codes[step], code)
                steps[f"{step}_s"].append(section)
        with untimed():
            outputs = {step: (codes[step], _read_bytes(self.files[step]))
                       for step in self.STEPS}
            digest = _digest(*(repr(code).encode() + blob
                               for code, blob in outputs.values()))
            _verdict(self._checked, 0, len(self.STEPS), digest, tally,
                     lambda mine: self._check(outputs, mine))
        timed = [sections[0] for sections in steps.values()]
        return PassResult(timed, steps, None, frozenset({"decompose_s"}))

    def _check(self, outputs, tally):
        a = _flow_parts(self.q, self.pi_ref)[2]
        for step in self.STEPS:
            code, blob = outputs[step]
            if code != 0:
                kind = "refused" if code == 2 else "error"
                tally.fail(step, 0, kind, f"markov-flow {step} exited {code}")
                continue
            try:
                if step == "decompose":
                    a = self._check_decompose(blob, tally)
                elif step == "cycles":
                    self._check_cycles(blob, a, tally)
                else:
                    getattr(self, f"_check_{step}")(blob, tally)
            except MarkovFlowError as exc:
                tally.fail(step, 0, "wrong", f"inconsistent output: {exc!r}")
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                tally.fail(step, 0, "error", f"unreadable output: {exc!r}")

    def _check_decompose(self, blob, tally):
        obj = json.loads(blob)
        back = mf.compose(obj["pi"], obj["S"], obj["A"])
        err = _rel(back.q, self.q, np.abs(self.q).max())
        if err > ROUNDTRIP_RTOL:
            tally.fail("decompose", 0, "wrong", f"compose(pi, S, A) misses q by {err:.3g}")
        return np.asarray(obj["A"], dtype=float)

    def _check_cycles(self, blob, a_ref, tally):
        cycles = json.loads(blob)["cycles"]
        a = np.zeros((self.n, self.n))
        for cycle in cycles:
            nodes = cycle["nodes"]
            for u, v in zip(nodes, nodes[1:] + nodes[:1]):
                a[v, u] += cycle["weight"]
                a[u, v] -= cycle["weight"]
        err = _rel(a, a_ref, np.abs(a_ref).max())
        if err > _cycles_tolerance(a_ref):
            tally.fail("cycles", 0, "wrong", f"{len(cycles)} cycles superpose to A "
                                             f"within {err:.3g} only")

    def _check_bound(self, blob, tally):
        header, rows = _read_csv(blob)
        if header != ["t", "D", "bound_lambda2", "bound_2lambda2", "ratio"]:
            raise ValueError(f"unexpected bound header {header}")
        t, bound, ratio = rows[:, 0], rows[:, 2], rows[:, 4]
        if len(t) != 200:
            tally.fail("bound", 0, "wrong", f"{len(t)} rows, expected 200")
        if ratio.max() > 1.0 + BOUND_RTOL:
            tally.fail("bound", 0, "wrong", f"ratio {ratio.max()!r} exceeds 1+1e-8")
        implied = -math.log(bound[-1] / bound[0]) / (t[-1] - t[0])
        if abs(implied - self.lambda2_ref) > EIG_RTOL * self.g_norm:
            tally.fail("bound", 0, "wrong", f"bound implies lambda2 {implied!r}, "
                                            f"numpy gives {self.lambda2_ref!r}")

    def _check_evolve(self, blob, tally):
        header, rows = _read_csv(blob)
        expected = (["t"] + [f"p_{i + 1}" for i in range(self.n)]
                    + ["gini_divergence", "gini_production", "kl", "shannon"])
        if header != expected:
            raise ValueError("unexpected evolve header")
        if len(rows) != self.points:
            tally.fail("evolve", 0, "wrong", f"{len(rows)} rows, expected {self.points}")
        for k in (0, len(rows) // 2, len(rows) - 1):
            p = scipy.linalg.expm(self.q * rows[k, 0]) @ self.p0
            p = np.clip(p, 0.0, None)
            p /= p.sum()
            err = float(np.abs(rows[k, 1:self.n + 1] - p).max())
            if err > EXPM_ATOL:
                tally.fail("evolve", 0, "wrong", f"row {k} differs from expm by {err:.3g}")
        for name in ("gini_divergence", "kl"):
            series = rows[:, header.index(name)]
            if (np.diff(series) > MONOTONE_TOL).any():
                tally.fail("evolve", 0, "wrong", f"{name} trace rises")


class FpeRefine:
    """``continuum --grid 16 --refine 3``: the twisted problem of criterion 11.

    Quadratic potential, identity diffusion, gamma 0.5, on grids 16, 32 and
    64.  Continuum assembly, dense validation, dense stationary solves and
    the adjointness report do all the work; the spectrum and the evolution
    are never called.  Grid 64 (4096 states) is where the dense path costs
    the most time and memory.
    """

    name = "fpe_refine"
    PROBLEM = {"domain": [[-3.0, 3.0], [-3.0, 3.0]], "D": "identity",
               "gamma": 0.5, "phi": "quadratic"}

    def __init__(self, size: dict):
        self.grid = size["fpe_grid"]
        self.refine = size["fpe_refine"]
        self._checked = {}

    def setup(self, seed: int, workdir: Path):
        # The problem is fixed by criterion 11; the seed has nothing to vary.
        self.problem = workdir / "problem.json"
        self.report = workdir / "report.json"
        _write_json(self.problem, self.PROBLEM)
        markov_flow.cli.main(["continuum", "--problem", str(self.problem),
                              "--grid", "16", "--refine", "1",
                              "--output", str(workdir / "warm.json")])

    def run_pass(self, tally: Tally, untimed) -> PassResult:
        self.report.unlink(missing_ok=True)
        code, section = _cli(["continuum", "--problem", str(self.problem),
                              "--grid", str(self.grid), "--refine", str(self.refine),
                              "--output", str(self.report)])
        with untimed():
            blob = _read_bytes(self.report)
            _verdict(self._checked, 0, 1, _digest(repr(code).encode() + blob), tally,
                     lambda mine: self._check(code, blob, mine))
        steps = {f"{step}_s": [section] for step in DenseChain.STEPS}
        return PassResult([section], steps, None)

    def _check(self, code, blob, tally):
        if code != 0:
            kind = "refused" if code == 2 else "error"
            tally.fail("continuum", 0, kind, f"markov-flow continuum exited {code}")
            return
        try:
            report = json.loads(blob)
            grids = [self.grid * 2 ** k for k in range(self.refine)]
            problems = []
            if report["grids"] != grids or len(report["levels"]) != len(grids):
                problems.append(f"grids {report['grids']}, expected {grids}")
            ratios = report["l1_ratios"]
            if len(ratios) != len(grids) - 1 or min(ratios) < FPE_RATIO_MIN:
                problems.append(f"L1 ratios {ratios} below {FPE_RATIO_MIN}")
            for level in report["levels"]:
                residual = max(level["sym_residual"], level["anti_residual"])
                if residual > FPE_RESIDUAL_MAX:
                    problems.append(f"grid {level['grid']} residual {residual:.3g}")
                if level["max_circulation_rel"] <= FPE_CIRCULATION_MIN:
                    problems.append(f"grid {level['grid']} circulation "
                                    f"{level['max_circulation_rel']:.3g}")
        except (ValueError, KeyError, TypeError) as exc:
            tally.fail("continuum", 0, "error", f"unreadable report: {exc!r}")
            return
        for problem in problems:
            tally.fail("continuum", 0, "wrong", problem)


class ChainBatch:
    """600 small chains, n uniform in 3..40, through the library one by one.

    Families cycle through dense, 20%-sparse plus a ring, and birth-death
    (reversible); each chain gets a Dirichlet ``p``.  The same core,
    stationary and decompose layers as the other workloads run here as
    thousands of tiny calls, where the cost per call dominates: a change
    that speeds one big solve but adds set-up cost to every call shows here.
    """

    name = "chain_batch"
    FAMILIES = ("dense", "sparse", "birth_death")
    TREE_MAX_N = 7

    def __init__(self, size: dict):
        self.count = size["batch_chains"]
        self.n_max = size["batch_n_max"]
        self._checked = {}

    def setup(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        # Every family gets every size equally often (to within one), in a
        # seeded order, so seeds vary rates, order and p but not the mix of
        # sizes: with sizes drawn independently, how many chains landed in
        # the slow classes (tree enumeration at n = 6, 7; cycle peeling near
        # n = 40) moved chain_p50_ms and chain_p95_ms by about 9% between seeds.
        per_family = -(-self.count // len(self.FAMILIES))
        sizes = [rng.permutation(np.resize(np.arange(3, self.n_max + 1), per_family))
                 for _ in self.FAMILIES]
        self.chains = []
        for k in range(self.count):
            n = int(sizes[k % 3][k // 3])
            family = self.FAMILIES[k % 3]
            q = _generator_matrix(_random_rates(rng, n, family))
            p = rng.dirichlet(np.ones(n))
            self.chains.append((family, q, p))
        warm_q = _generator_matrix(_random_rates(np.random.default_rng(0), 4, "dense"))
        self._chain(warm_q, np.full(4, 0.25), {})

    def _chain(self, q, p, times):
        """Every operation on one chain; returns ``{op: result or exception}``
        and appends each call's ``(start, end)`` to ``times[op]``."""
        out = {}

        def call(op, *args):
            if any(isinstance(a, BaseException) for a in args):
                out[op] = Skipped("an operation it needs failed")
                return out[op]
            start = time.perf_counter()
            try:
                out[op] = getattr(mf, op)(*args)
            except Exception as exc:  # noqa: BLE001 - every failure is recorded
                out[op] = exc
            times.setdefault(op, []).append((start, time.perf_counter()))
            return out[op]

        gen = call("validate_generator", q)
        pi = call("stationary_solve", gen)
        if q.shape[0] <= self.TREE_MAX_N:
            call("stationary_tree", gen)
        d = call("decompose", gen)
        call("recompose", d)
        call("dual", gen)
        call("is_detailed_balance", gen)
        call("cycle_decompose", d.A if not isinstance(d, BaseException) else d)
        call("gini_divergence", p, pi)
        call("kl_divergence", p, pi)
        call("production_split", p, d)
        return out

    def run_pass(self, tally: Tally, untimed) -> PassResult:
        # Each chain is checked right after it, outside its timing, so the
        # process never holds more than one chain's outputs: peak_rss_mb
        # stays the library's, not the benchmark's.
        times, chains = {}, []
        clock = time.perf_counter
        gc.collect()
        for index, (family, q, p) in enumerate(self.chains):
            start = clock()
            out = self._chain(q, p, times)
            chains.append((start, clock()))
            with untimed():
                _verdict(self._checked, index, len(out), _digest(_chain_bytes(out)),
                         tally,
                         lambda mine: self._check_chain(index, family, q, p, out, mine))
        steps = {"decompose_s": times["decompose"],
                 "cycles_s": times["cycle_decompose"],
                 "bound_s": chains, "evolve_s": chains}
        return PassResult(chains, steps, chains)

    def _check_chain(self, index, family, q, p, out, tally):
        for op, value in out.items():
            if isinstance(value, BaseException):
                kind = "refused" if isinstance(value, (MarkovFlowError, Skipped)) \
                    else "error"
                tally.fail(op, index, kind, f"{type(value).__name__}: {value}")
        ok = {op: v for op, v in out.items() if not isinstance(v, BaseException)}
        scale = np.abs(q).max()
        problems = []
        if "validate_generator" in ok and not np.array_equal(ok["validate_generator"].q, q):
            problems.append(("validate_generator", "q changed by validation"))
        pi = ok.get("stationary_solve")
        if pi is not None:
            residual = float(np.abs(q @ pi.p).max())
            if residual > STATIONARY_RTOL * scale or pi.p.min() <= 0.0 \
                    or abs(pi.p.sum() - 1.0) > 1e-12:
                problems.append(("stationary_solve", f"residual {residual:.3g}"))
        if "stationary_tree" in ok and pi is not None:
            err = float(np.abs(ok["stationary_tree"].p - pi.p).max())
            if err > TREE_ATOL:
                problems.append(("stationary_tree", f"differs from solve by {err:.3g}"))
        d = ok.get("decompose")
        if d is not None:
            f_scale = np.abs(d.F).max()
            sums = max(float(np.abs(m.sum(axis=ax)).max())
                       for m in (d.F, d.S, d.A) for ax in (0, 1)) / f_scale
            if pi is not None and not np.array_equal(d.pi.p, pi.p):
                problems.append(("decompose", "pi differs from stationary_solve"))
            if sums > ROUNDTRIP_RTOL or _rel(d.S + d.A, d.F, f_scale) > 1e-15:
                problems.append(("decompose", f"zero-sum error {sums:.3g}"))
        if "recompose" in ok:
            err = _rel(ok["recompose"].q, q, scale)
            if err > ROUNDTRIP_RTOL:
                problems.append(("recompose", f"round trip error {err:.3g}"))
        if "dual" in ok and d is not None:
            problems.extend(self._check_dual(index, ok["dual"], q, d, tally))
        if "is_detailed_balance" in ok and d is not None:
            report = ok["is_detailed_balance"]
            if report.balanced != (family == "birth_death") \
                    or report.max_circulation != float(np.abs(d.A).max()):
                problems.append(("is_detailed_balance",
                                 f"balanced={report.balanced} for a {family} chain"))
        if "cycle_decompose" in ok and d is not None:
            a = np.zeros_like(d.A)
            for nodes, weight in ok["cycle_decompose"].cycles:
                for u, v in zip(nodes, nodes[1:] + nodes[:1]):
                    a[v, u] += weight
                    a[u, v] -= weight
            a_scale = np.abs(d.A).max()
            if a_scale > 0.0 and _rel(a, d.A, a_scale) > _cycles_tolerance(d.A):
                problems.append(("cycle_decompose", "cycles do not superpose to A"))
        if pi is not None:
            gini_ref = float((p * p / pi.p).sum() - 1.0)
            mask = p > 0.0
            kl_ref = float((p[mask] * np.log(p[mask] / pi.p[mask])).sum())
            for op, ref in (("gini_divergence", gini_ref), ("kl_divergence", kl_ref)):
                if op in ok and abs(ok[op] - ref) > 1e-12 * max(1.0, abs(ref)):
                    problems.append((op, f"{ok[op]!r} against {ref!r}"))
        if "production_split" in ok and d is not None:
            split = ok["production_split"]
            r = p / d.pi.p
            s_ref = float(2.0 * r @ d.S @ r)
            a_scale = max(np.linalg.norm(d.A) * float(r @ r), 1e-300)
            if abs(split["a_part"]) > A_PART_RTOL * a_scale \
                    or abs(split["s_part"] - s_ref) > 1e-12 * max(1.0, abs(s_ref)) \
                    or split["s_part"] > 1e-12 * max(1.0, abs(s_ref)):
                problems.append(("production_split", f"split {split}"))
        for op, message in problems:
            tally.fail(op, index, "wrong", message)

    @staticmethod
    def _check_dual(index, star, q, d, tally):
        """Criterion 09: same pi, negated circulation, and an involution.

        Re-applying ``dual`` may itself refuse; that counts as a refusal of
        this chain's ``dual`` operation.
        """
        f_scale = max(np.abs(d.F).max(), 1e-300)
        try:
            d_star = mf.decompose(star)
            back = mf.dual(star)
        except MarkovFlowError as exc:
            tally.fail("dual", index, "refused",
                       f"{type(exc).__name__}: on the dual chain: {exc}")
            return []
        problems = []
        if np.abs(d_star.pi.p - d.pi.p).max() > DUAL_RTOL:
            problems.append(("dual", "stationary distribution changed"))
        if _rel(d_star.A, -d.A, f_scale) > DUAL_RTOL:
            problems.append(("dual", "circulation not negated"))
        err = _rel(back.q, q, np.abs(q).max())
        if err > DUAL_RTOL:
            problems.append(("dual", f"dual(dual(q)) misses q by {err:.3g}"))
        return problems


def _chain_bytes(out: dict) -> bytes:
    """Stable bytes of one chain's outputs, for comparing passes."""
    parts = []
    for op, value in out.items():
        parts.append(op.encode())
        if isinstance(value, BaseException):
            parts.append(f"{type(value).__name__}:{value}".encode())
        elif hasattr(value, "q"):
            parts.append(value.q.tobytes())
        elif hasattr(value, "p"):
            parts.append(value.p.tobytes())
        elif hasattr(value, "F"):
            parts.extend(m.tobytes() for m in (value.pi.p, value.F, value.S, value.A))
        else:
            parts.append(repr(getattr(value, "cycles", value)).encode())
    return b"|".join(parts)


def _cycles_tolerance(a) -> float:
    """How far, relative to max|A|, a cycle superposition may miss ``A``.

    A sum of cycles is exactly balanced, but an ``A`` computed from a
    decomposition has rows that sum to zero only to round-off.  The part
    peeling cannot remove is an acyclic flow carrying that imbalance, plus
    the dust edges it drops; no edge of such a flow exceeds half the l1
    norm of the node imbalances.  Criterion 10's circulations are balanced
    by construction, so there only its 1e-14 applies.
    """
    n = a.shape[0]
    scale = np.abs(a).max()
    imbalance = float(np.abs(a.sum(axis=1)).sum()) / 2.0
    return CYCLES_RTOL + imbalance / scale + n * (n - 1) * CYCLE_DUST_RTOL


def _numpy_spectrum(q):
    """Reference pi, lambda2 and ||G|| from numpy alone (no library code)."""
    n = q.shape[0]
    m = q.copy()
    m[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    pi = np.linalg.solve(m, b)
    s = _flow_parts(q, pi)[1]
    root = np.sqrt(pi)
    g = s / np.outer(root, root)
    w = np.linalg.eigvalsh(-(g + g.T) / 2.0)
    return pi, float(w[1]), float(np.linalg.norm(g))


def _flow_parts(q, pi):
    f = q * pi[np.newaxis, :]
    return f, (f + f.T) / 2.0, (f - f.T) / 2.0


def _read_bytes(path: Path) -> bytes:
    return path.read_bytes() if path.exists() else b""


def _write_json(path: Path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")


def _read_csv(blob: bytes):
    reader = csv.reader(io.StringIO(blob.decode("utf-8")))
    header = next(reader)
    rows = np.array([[float(x) for x in row] for row in reader])
    return header, rows


WORKLOADS = {cls.name: cls for cls in (DenseChain, FpeRefine, ChainBatch)}
