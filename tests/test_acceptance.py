"""Acceptance suite: every release criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All sweeps are seeded and deterministic.
"""

import functools
import time

import numpy as np

from markov_flow import (
    cycle_decompose,
    decompose,
    dof_report,
    dual,
    entropy_trace,
    evolve,
    probability_vector,
    production_split,
    recompose,
    refinement_study,
    shannon_production_split,
    spectral_bound,
    stationary_solve,
    stationary_tree,
    superpose_cycles,
    verify_bound,
)
from markov_flow import RELATIVE_GINI, RELATIVE_SHANNON, SHANNON
from markov_flow.cli import main as cli_main
from markov_flow.evolve import default_time_grid
from markov_flow.instances import shannon_nonmonotone, three_cycle, two_state

from helpers import random_circulation, random_generator, random_probability


def _report(num, name, ok, detail=""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_roundtrip():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst_entry = 0.0
    worst_sums = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        gen = random_generator(rng, n, density=float(rng.uniform(0.3, 1.0)))
        d = decompose(gen)
        back = recompose(d)
        q_scale = np.abs(gen.q).max()
        worst_entry = max(worst_entry, np.abs(back.q - gen.q).max() / q_scale)
        f_scale = np.abs(d.F).max()
        for m in (d.F, d.S, d.A):
            worst_sums = max(
                worst_sums,
                np.abs(m.sum(axis=0)).max() / f_scale,
                np.abs(m.sum(axis=1)).max() / f_scale,
            )
    elapsed = time.monotonic() - start
    ok = worst_entry <= 1e-12 and worst_sums <= 1e-12 and elapsed <= 60.0
    _report(
        1, "decomposition round trip on 1000 chains, n in 2..50", ok,
        f"max entry err {worst_entry:.2e}, max sum err {worst_sums:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_02_dof_accounting():
    two = dof_report(2)
    three = dof_report(3)
    ok = (
        two == {"dof_pi": 1, "dof_S": 1, "dof_A": 0, "total": 2}
        and three == {"dof_pi": 2, "dof_S": 3, "dof_A": 1, "total": 6}
    )
    _report(2, "degree-of-freedom counts for n=2 and n=3", ok,
            f"n=2 -> {two}, n=3 -> {three}")


def test_criterion_03_stationary_cross_method():
    rng = np.random.default_rng(103)
    worst = 0.0
    start = time.monotonic()
    for _ in range(1000):
        n = int(rng.integers(3, 8))
        gen = random_generator(rng, n, density=float(rng.uniform(0.4, 1.0)))
        diff = np.abs(stationary_solve(gen).p - stationary_tree(gen).p).max()
        worst = max(worst, diff)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-10
    _report(3, "linear solve vs spanning-tree oracle on 1000 chains", ok,
            f"max deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_04_circulation_production_vanishes():
    rng = np.random.default_rng(104)
    worst_rel = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 11))
        d = decompose(random_generator(rng, n))
        p = random_probability(rng, n)
        parts = production_split(p, d)
        r = p.p / d.pi.p
        scale = max(np.linalg.norm(d.A) * float(r @ r), 1e-300)
        worst_rel = max(worst_rel, abs(parts["a_part"]) / scale)

    # contrast: the log-based divergence has no such cancellation
    rng2 = np.random.default_rng(1040)
    largest_shannon_a = 0.0
    for _ in range(100):
        gen = random_generator(rng2, 3)
        d = decompose(gen)
        if np.abs(d.A).max() <= 1e-8 * np.abs(d.F).max():
            continue
        p = random_probability(rng2, 3)
        if p.p.min() <= 0.0:
            continue
        largest_shannon_a = max(
            largest_shannon_a, abs(shannon_production_split(p, d)["a_part"])
        )
    ok = worst_rel <= 1e-13 and largest_shannon_a > 1e-6
    _report(4, "quadratic production blind to circulation; log-based is not",
            ok, f"max |a_part| rel {worst_rel:.2e}, "
                f"log-based counterexample {largest_shannon_a:.2e}")


def test_criterion_05_divergence_monotonicity():
    rng = np.random.default_rng(105)
    worst_gini_rise = -np.inf
    worst_kl_rise = -np.inf
    for _ in range(1000):
        n = int(rng.integers(2, 11))
        gen = random_generator(rng, n, density=float(rng.uniform(0.4, 1.0)))
        p0 = random_probability(rng, n, concentrated=bool(rng.integers(2)))
        grid = default_time_grid(gen, points=30)
        traj = entropy_trace(evolve(gen, p0, grid), decompose(gen),
                             [RELATIVE_SHANNON, RELATIVE_GINI])
        gd = traj.traces["gini_divergence"]
        kl = traj.traces["kl"]
        worst_gini_rise = max(worst_gini_rise, float(np.diff(gd).max()))
        worst_kl_rise = max(worst_kl_rise, float(np.diff(kl).max()))
    ok = worst_gini_rise <= 1e-10 and worst_kl_rise <= 1e-10
    _report(5, "divergences non-increasing along 1000 trajectories", ok,
            f"worst rise: quadratic {worst_gini_rise:.2e}, "
            f"log-based {worst_kl_rise:.2e}")


def test_criterion_06_shannon_nonmonotone_instance():
    gen, p0 = shannon_nonmonotone()
    times = np.concatenate([[0.0], np.geomspace(1e-3, 20.0, 200)])
    traj = entropy_trace(evolve(gen, p0, times), decompose(gen),
                         [SHANNON, RELATIVE_SHANNON])
    h = traj.traces["shannon"]
    peak = int(np.argmax(h))
    rise = h[peak] - h[0]
    fall = h[peak] - h[-1]
    kl_ok = traj.monotone_violations["kl"] is None
    ok = rise >= 1e-3 and fall >= 1e-3 and kl_ok
    _report(6, "stored 3-state chain: Shannon rises then falls, divergence "
               "stays monotone", ok,
            f"rise {rise:.3f} nats, fall {fall:.3f} nats, KL monotone: {kl_ok}")


@functools.lru_cache(maxsize=1)
def _bound_sweep():
    rng = np.random.default_rng(107)
    worst_sharp = 0.0
    worst_norm_identity = 0.0
    worst_projection = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 9))
        gen = random_generator(rng, n, density=float(rng.uniform(0.4, 1.0)))
        d = decompose(gen)
        sb = spectral_bound(d)
        p0 = random_probability(rng, n, concentrated=bool(rng.integers(2)))
        grid = np.geomspace(1e-3, 10.0 / sb.lambda2, 40)
        traj = evolve(gen, p0, grid)
        # raises BoundViolated where D exceeds the sharp 2 lambda2 bound
        report = verify_bound(traj, spectral_bound(d))
        div = report.divergence
        above = div > 1e-13 * max(1.0, div[0])   # verify_bound's dust floor
        worst_sharp = max(worst_sharp, float((div[above] / report.bound_sharp[above]).max()))
        worst_norm_identity = max(worst_norm_identity, report.norm_identity_error)
        worst_projection = max(worst_projection, report.projection_error)
    return worst_sharp, worst_norm_identity, worst_projection


def test_criterion_07_spectral_decay_bound():
    worst_sharp, _, _ = _bound_sweep()

    # two-state oracle: gap 3; the squared distance decays at exactly twice
    # the gap, which sits inside the proven exp(-gap t) envelope
    gen2 = two_state()
    d2 = decompose(gen2)
    sb2 = spectral_bound(d2)
    t = np.linspace(0.0, 3.0, 60)
    traj2 = evolve(gen2, probability_vector([1.0, 0.0]), t)
    rep2 = verify_bound(traj2, spectral_bound(d2))
    lam2_ok = abs(sb2.lambda2 - 3.0) <= 1e-12
    dev2 = np.abs(rep2.divergence - 0.5 * np.exp(-2.0 * sb2.lambda2 * t)).max()
    inside2 = bool((rep2.ratio <= 1.0 + 1e-8).all())

    # three-cycle oracle: gap 3/2, decay exactly 2 * gap = 3
    gen3 = three_cycle()
    d3 = decompose(gen3)
    sb3 = spectral_bound(d3)
    traj3 = evolve(gen3, probability_vector([1.0, 0.0, 0.0]), t)
    rep3 = verify_bound(traj3, spectral_bound(d3))
    lam3_ok = abs(sb3.lambda2 - 1.5) <= 1e-12
    dev3 = np.abs(rep3.divergence - 2.0 * np.exp(-3.0 * t)).max()

    ok = (
        lam2_ok and dev2 <= 1e-10 and inside2
        and lam3_ok and dev3 <= 1e-9 and worst_sharp <= 1.0 + 1e-8
    )
    _report(7, "decay bound holds on 1000 chains; closed-form oracles exact",
            ok, f"two-state dev {dev2:.2e}, three-cycle dev {dev3:.2e}, "
                f"largest D / sharp bound {worst_sharp:.12f}")


def test_criterion_08_proof_identities():
    _, worst_norm_identity, worst_projection = _bound_sweep()
    ok = worst_norm_identity <= 1e-12 and worst_projection <= 1e-12
    _report(8, "norm and projection identities along all trajectories", ok,
            f"max norm-identity error {worst_norm_identity:.2e}, "
            f"max projection {worst_projection:.2e}")


def test_criterion_09_dual_process():
    rng = np.random.default_rng(109)
    worst_inv = 0.0
    worst_pi = 0.0
    worst_a = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 13))
        gen = random_generator(rng, n, density=float(rng.uniform(0.4, 1.0)))
        d = decompose(gen)
        star = dual(gen)
        d_star = decompose(star)
        worst_pi = max(worst_pi, np.abs(d_star.pi.p - d.pi.p).max())
        worst_a = max(
            worst_a,
            np.abs(d_star.A + d.A).max() / max(np.abs(d.F).max(), 1e-300),
        )
        back = dual(star)
        worst_inv = max(
            worst_inv, np.abs(back.q - gen.q).max() / np.abs(gen.q).max()
        )
    ok = worst_inv <= 1e-12 and worst_pi <= 1e-12 and worst_a <= 1e-12
    _report(9, "dual: involution, same stationary state, negated circulation",
            ok, f"involution {worst_inv:.2e}, pi {worst_pi:.2e}, "
                f"circulation {worst_a:.2e}")


def test_criterion_10_cycle_decomposition():
    rng = np.random.default_rng(110)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(4, 11))
        a, _ = random_circulation(rng, n, n_cycles=int(rng.integers(1, 5)))
        back = superpose_cycles(cycle_decompose(a), n)
        worst = max(worst, np.abs(back - a).max() / max(np.abs(a).max(), 1e-300))
    ok = worst <= 1e-14
    _report(10, "cycle peeling reconstructs 200 circulations exactly", ok,
            f"max relative error {worst:.2e}")


def test_criterion_11_continuum_refinement():
    start = time.monotonic()
    domain = ((-3.0, 3.0), (-3.0, 3.0))
    grids = (16, 32, 64)

    plain = refinement_study(domain, grids, "quadratic", "identity", 0.0)
    plain_ratios = [
        plain[k]["l1_error_gibbs"] / plain[k + 1]["l1_error_gibbs"]
        for k in range(len(grids) - 1)
    ]
    plain_db = max(lv["max_circulation_rel"] for lv in plain)

    twisted = refinement_study(domain, grids, "quadratic", "identity", 0.5)
    twisted_ratios = [
        twisted[k]["l1_error_gibbs"] / twisted[k + 1]["l1_error_gibbs"]
        for k in range(len(grids) - 1)
    ]
    twisted_a = min(lv["max_circulation_rel"] for lv in twisted)
    sym_residual = max(
        max(lv["sym_residual"], lv["anti_residual"]) for lv in plain + twisted
    )
    elapsed = time.monotonic() - start

    ok = (
        all(r >= 3.5 for r in plain_ratios)
        and all(r >= 3.5 for r in twisted_ratios)
        and plain_db <= 1e-12
        and twisted_a > 1e-6
        and sym_residual <= 1e-12
        and elapsed <= 180.0
    )
    _report(11, "drift-diffusion discretization: Gibbs convergence and "
                "symmetry structure", ok,
            f"L1 ratios {['%.2f' % r for r in plain_ratios]} / "
            f"{['%.2f' % r for r in twisted_ratios]}, db {plain_db:.1e}, "
            f"circulation {twisted_a:.1e}, residual {sym_residual:.1e}, "
            f"{elapsed:.0f}s")


def test_criterion_12_demo_determinism(tmp_path):
    dirs = [tmp_path / "run_a", tmp_path / "run_b"]
    for d in dirs:
        assert cli_main(["demo", "--output-dir", str(d)]) == 0
    names = sorted(p.name for p in dirs[0].iterdir())
    identical = all(
        (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
        for name in names
    )
    ok = identical and len(names) == 4
    _report(12, "demo output byte-identical across consecutive runs", ok,
            f"{len(names)} files compared")
