import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.sparse import issparse

from markov_flow import (
    RELATIVE_GINI,
    RELATIVE_SHANNON,
    SHANNON,
    GeneratorMatrix,
    cycle_decompose,
    decompose,
    discretize_fpe,
    discretize_fpe_detailed,
    dual,
    entropy_trace,
    evolve,
    fpe_problem,
    from_offdiagonal_rates,
    gibbs_distribution,
    gini_divergence,
    gini_production,
    is_detailed_balance,
    kl_divergence,
    lambda2,
    operator_symmetry_report,
    probability_vector,
    production_split,
    recompose,
    refinement_study,
    shannon_production_split,
    spectral_bound,
    stationary_solve,
    superpose_cycles,
    verify_bound,
)
from markov_flow.continuum import _assemble
from markov_flow.decompose import FlowDecomposition
from markov_flow.errors import ExcessiveClipping, MarkovFlowError, Overflow, TooLarge

from helpers import count_calls

DOMAIN = ((-3.0, 3.0), (-3.0, 3.0))
# coarse grids need a gentler cell Peclet number, hence a smaller box
SMALL = ((-2.0, 2.0), (-2.0, 2.0))


def test_problem_validation():
    with pytest.raises(ValueError):
        fpe_problem(DOMAIN, 3, 8, "quadratic")
    with pytest.raises(ValueError):
        fpe_problem(DOMAIN, 8, 8, "unknown_tag")
    with pytest.raises(ValueError):
        fpe_problem(DOMAIN, 8, 8, "quadratic", diffusion=[[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(ValueError, match="unknown diffusion tag 'isotropic'"):
        fpe_problem(DOMAIN, 8, 8, "quadratic", diffusion="isotropic")
    with pytest.raises(ValueError, match="diffusion symmetry violated"):
        fpe_problem(DOMAIN, 8, 8, "quadratic", diffusion=[[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(TooLarge):
        fpe_problem(DOMAIN, 257, 256, "quadratic")
    with pytest.raises(ValueError):
        fpe_problem(((3.0, -3.0), (-3.0, 3.0)), 8, 8, "quadratic")


@pytest.mark.parametrize("nx, ny", [(8.0, 8), (8, 8.5), (True, 8)])
def test_grid_size_that_is_not_an_integer_is_refused(nx, ny):
    with pytest.raises(ValueError, match="grid invariant violated: nx and ny must be integers"):
        fpe_problem(DOMAIN, nx, ny, "quadratic")


def test_gibbs_uniform_for_constant_potential():
    prob = fpe_problem(DOMAIN, 6, 6, lambda x, y: np.zeros_like(x))
    gibbs = gibbs_distribution(prob)
    np.testing.assert_allclose(gibbs.p, np.full(36, 1 / 36), atol=1e-15)


def test_gibbs_quadratic_peaks_at_center():
    prob = fpe_problem(DOMAIN, 9, 9, "quadratic")
    gibbs = gibbs_distribution(prob)
    assert abs(gibbs.p.sum() - 1.0) <= 1e-14
    peak = int(np.argmax(gibbs.p))
    assert peak == prob.index(4, 4)  # center cell of a 9x9 grid


def test_gibbs_overflow_guard():
    prob = fpe_problem(DOMAIN, 8, 8, lambda x, y: 500.0 * (x * x + y * y))
    with pytest.raises(Overflow):
        gibbs_distribution(prob)


def test_small_grid_generator_is_valid():
    prob = fpe_problem(((-1.0, 1.0), (-1.0, 1.0)), 4, 4, "quadratic")
    gen = discretize_fpe(prob)  # validate_generator runs inside
    assert gen.n == 16


def test_pure_diffusion_detailed_balance_and_gibbs():
    prob = fpe_problem(DOMAIN, 12, 12, "quadratic", "identity", 0.0)
    gen, clip = discretize_fpe_detailed(prob)
    assert clip.fraction == 0.0
    report = is_detailed_balance(gen)
    assert report.balanced
    assert report.max_circulation <= 1e-12 * report.flow_scale
    l1 = np.abs(stationary_solve(gen).p - gibbs_distribution(prob).p).sum()
    assert l1 <= 0.05


def test_pure_diffusion_second_order_convergence():
    errors = []
    for grid in (8, 16):
        prob = fpe_problem(DOMAIN, grid, grid, "quadratic")
        gen = discretize_fpe(prob)
        errors.append(
            np.abs(stationary_solve(gen).p - gibbs_distribution(prob).p).sum()
        )
    assert errors[0] / errors[1] >= 3.0


def test_anisotropic_diffusion_second_order_convergence():
    errors = []
    for grid in (16, 32, 64):
        prob = fpe_problem(DOMAIN, grid, grid, "quadratic", np.diag([1.0, 0.6]), 0.4)
        gen = discretize_fpe(prob)
        errors.append(
            np.abs(stationary_solve(gen).p - gibbs_distribution(prob).p).sum()
        )
    assert errors[0] / errors[1] >= 3.5
    assert errors[1] / errors[2] >= 3.5


def _skew_phi(x, y):
    return 0.5 * x * x + 0.3 * y * y + 0.1 * x * y


def _skew_diffusion(x, y):
    off = 0.03 * (1.0 + 0.1 * y)
    return [[1.0 + 0.1 * x * x, off], [off, 0.8 + 0.1 * y * y]]


def _skew_gamma(x, y):
    return 0.3 + 0.1 * x


def test_axis_swap_only_relabels_cells():
    # an off-diagonal, varying D and a varying gamma on a non-square grid;
    # swapping x and y transposes every field and negates gamma, so the
    # swapped problem's chain is the original one with its cells relabeled
    prob = fpe_problem(SMALL, 7, 6, _skew_phi, _skew_diffusion, _skew_gamma)
    swapped = fpe_problem(
        SMALL, 6, 7,
        lambda x, y: _skew_phi(y, x),
        lambda x, y: np.asarray(_skew_diffusion(y, x))[::-1, ::-1],
        lambda x, y: -_skew_gamma(y, x),
    )
    gen, clip = discretize_fpe_detailed(prob)
    gen_t, clip_t = discretize_fpe_detailed(swapped)
    # cell (i, j) of the 7x6 grid is cell (j, i) of the 6x7 grid
    perm = np.arange(prob.n).reshape(6, 7).T.reshape(-1)
    scale = np.abs(gen.q).max()
    assert np.abs(gen_t.q[np.ix_(perm, perm)] - gen.q).max() <= 1e-14 * scale
    assert clip.entries_clipped > 0
    assert clip_t.entries_clipped == clip.entries_clipped


def _face_loop_rates(prob):
    """Reference assembly: one face at a time, in Python, pre-clip."""
    phi, dif, gam = prob.phi, prob.diffusion, prob.gamma
    nx, ny, idx = prob.nx, prob.ny, prob.index
    L = np.zeros((prob.n, prob.n))
    for axis, h_n, h_t in ((0, prob.hx, prob.hy), (1, prob.hy, prob.hx)):
        sign = 1.0 if axis == 0 else -1.0       # G's off-axis entry
        for i in range(nx - 1 + axis):
            for j in range(ny - axis):
                lo, hi = (i, j), (i + 1 - axis, j + axis)
                d_nn = 0.5 * (dif[lo][axis, axis] + dif[hi][axis, axis])
                d_nt = 0.5 * (dif[lo][axis, 1 - axis] + sign * gam[lo]
                              + dif[hi][axis, 1 - axis] + sign * gam[hi])
                dphi_n = (phi[hi] - phi[lo]) / h_n
                terms = [(lo, d_nn * (0.5 * dphi_n - 1.0 / h_n)),
                         (hi, d_nn * (0.5 * dphi_n + 1.0 / h_n))]
                for (a, b) in (lo, hi):
                    if axis == 0:
                        up, dn = (a, min(b + 1, ny - 1)), (a, max(b - 1, 0))
                    else:
                        up, dn = (min(a + 1, nx - 1), b), (max(a - 1, 0), b)
                    dphi_t = (phi[up] - phi[dn]) / (2.0 * h_t)
                    terms += [((a, b), d_nt * 0.5 * dphi_t),
                              (up, d_nt * 0.5 / (2.0 * h_t)),
                              (dn, -d_nt * 0.5 / (2.0 * h_t))]
                for cell, coeff in terms:
                    L[idx(*lo), idx(*cell)] += coeff / h_n
                    L[idx(*hi), idx(*cell)] -= coeff / h_n
    np.fill_diagonal(L, 0.0)
    return L


@pytest.mark.parametrize("case", ["skew", "twisted"])
def test_assembly_matches_face_loop(case):
    if case == "skew":
        prob = fpe_problem(SMALL, 7, 6, _skew_phi, _skew_diffusion, _skew_gamma)
    else:
        prob = fpe_problem(DOMAIN, 12, 12, "quadratic", "identity", 0.5)
    rates = _face_loop_rates(prob)
    gen, clip = discretize_fpe_detailed(prob)
    # same arithmetic in the same order: equal to the last bit
    expected = from_offdiagonal_rates(np.clip(rates, 0.0, None))
    np.testing.assert_array_equal(gen.q.toarray(), expected.q)
    assert clip.entries_clipped == int((rates < 0.0).sum())


def test_circulation_preserves_gibbs_but_breaks_balance():
    errors = []
    for grid in (8, 16):
        prob = fpe_problem(SMALL, grid, grid, "quadratic", "identity", 0.5)
        gen = discretize_fpe(prob)
        d = decompose(gen)
        assert np.abs(d.A).max() > 1e-6 * np.abs(d.F).max()
        errors.append(np.abs(d.pi.p - gibbs_distribution(prob).p).sum())
    assert errors[0] / errors[1] >= 3.0


def test_excessive_clipping_raises():
    prob = fpe_problem(DOMAIN, 8, 8, "quadratic", "identity", 20.0)
    with pytest.raises(ExcessiveClipping):
        discretize_fpe(prob)


def test_double_well_catalog_runs():
    prob = fpe_problem(DOMAIN, 10, 10, "double_well")
    gen = discretize_fpe(prob)
    l1 = np.abs(stationary_solve(gen).p - gibbs_distribution(prob).p).sum()
    assert l1 <= 0.2


def test_operator_adjointness_residuals():
    prob = fpe_problem(DOMAIN, 10, 10, "quadratic", "identity", 0.5)
    d = decompose(discretize_fpe(prob))
    report = operator_symmetry_report(prob, d)
    assert report.sym_residual <= 1e-12
    assert report.anti_residual <= 1e-12
    other = fpe_problem(DOMAIN, 8, 8, "quadratic", "identity", 0.5)
    with pytest.raises(ValueError, match="decomposition has 100 states, the 8x8 grid has 64"):
        operator_symmetry_report(other, d)


def test_diffusion_only_operator_has_no_antisymmetric_part():
    prob = fpe_problem(DOMAIN, 10, 10, "quadratic", "identity", 0.0)
    gen = discretize_fpe(prob)
    L = gen.q.toarray() * stationary_solve(gen).p[np.newaxis, :]
    anti = (L - L.T) / 2.0
    assert np.linalg.norm(anti) <= 1e-12 * np.linalg.norm(L)
    # and the mismatch report agrees: gamma = 0 means A_G is exactly zero
    report = operator_symmetry_report(prob, decompose(discretize_fpe(prob)))
    assert report.mismatch <= 1e-12


def test_mismatch_measures_symmetric_part_against_diffusion_flow():
    prob = fpe_problem(DOMAIN, 10, 10, "quadratic", "identity", 0.5)
    d = decompose(discretize_fpe(prob))
    free = decompose(discretize_fpe(fpe_problem(DOMAIN, 10, 10, "quadratic")))
    expected = np.linalg.norm((d.S - free.F).toarray()) / np.linalg.norm(d.F.toarray())
    report = operator_symmetry_report(prob, d)
    assert abs(report.mismatch - expected) <= 1e-12 * expected


def test_mismatch_decays_under_refinement():
    mismatches = []
    for grid in (12, 24):
        prob = fpe_problem(DOMAIN, grid, grid, "quadratic", "identity", 0.5)
        mismatches.append(operator_symmetry_report(prob, decompose(discretize_fpe(prob))).mismatch)
    assert mismatches[0] / mismatches[1] >= 2.0


def test_discrete_invariants_hold_on_fpe_chain():
    # the discrete and continuous settings run through one framework:
    # every chain-level invariant holds for the discretized operator
    prob = fpe_problem(SMALL, 5, 5, "quadratic", "identity", 0.4)
    gen = discretize_fpe(prob)
    d = decompose(gen)
    back = recompose(d)
    assert np.abs(back.q - gen.q).max() <= 1e-12 * np.abs(gen.q).max()

    p0 = np.zeros(25)
    p0[0] = 1.0
    lam2 = lambda2(d)
    t = np.geomspace(1e-3, 10.0 / lam2, 50)
    traj = evolve(gen, probability_vector(p0), t)
    report = verify_bound(traj, spectral_bound(d))  # raises if the decay bound fails
    div = report.divergence
    assert ((div[1:] - div[:-1]) <= 1e-10).all()


def test_sparse_twin_gives_the_same_results():
    # every consumer of a generator or decomposition gives the same result,
    # within round-off, on the CSR generator and on its dense twin
    prob = fpe_problem(SMALL, 5, 5, "quadratic", "identity", 0.4)
    gen = discretize_fpe(prob)
    twin = GeneratorMatrix(gen.q.toarray())
    assert issparse(gen.q) and not issparse(twin.q)

    def close(a, b, rtol=1e-12):
        a = a.toarray() if issparse(a) else np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        assert np.abs(a - b).max() <= rtol * max(np.abs(b).max(), 1.0)

    close(stationary_solve(gen).p, stationary_solve(twin).p)
    d = decompose(gen)
    assert issparse(d.F) and issparse(d.S) and issparse(d.A)
    d_dense = decompose(twin)
    close(d.pi.p, d_dense.pi.p)
    for part in ("F", "S", "A"):
        close(getattr(d, part), getattr(d_dense, part), 1e-14)
    # the decomposition's consumers get its own parts, densified
    d_twin = FlowDecomposition(pi=d.pi, F=d.F.toarray(), S=d.S.toarray(),
                               A=d.A.toarray())

    db, db_twin = is_detailed_balance(gen), is_detailed_balance(twin)
    assert db.balanced == db_twin.balanced is False
    close(db.max_circulation, db_twin.max_circulation)
    close(db.max_pairwise_violation, db_twin.max_pairwise_violation)
    close(db.flow_scale, db_twin.flow_scale)

    close(recompose(d).q, recompose(d_twin).q)
    close(dual(gen).q, dual(twin).q)
    close(spectral_bound(d).eigenvalues, spectral_bound(d_twin).eigenvalues)

    p0 = np.zeros(prob.n)
    p0[0] = 1.0
    times = np.geomspace(1e-3, 10.0, 20)
    traj = evolve(gen, probability_vector(p0), times)
    traj_twin = evolve(twin, probability_vector(p0), times)
    close(traj.states, traj_twin.states)
    kinds = [SHANNON, RELATIVE_SHANNON, RELATIVE_GINI]
    traces = entropy_trace(traj, d, kinds).traces
    traces_twin = entropy_trace(traj_twin, d_twin, kinds).traces
    assert traces.keys() == traces_twin.keys()
    for name in traces:
        close(traces[name], traces_twin[name])

    p = traj.states[5]
    close(kl_divergence(p, d.pi), kl_divergence(p, d_twin.pi))
    close(gini_divergence(p, d.pi), gini_divergence(p, d_twin.pi))
    close(gini_production(p, d), gini_production(p, d_twin))
    for split in (production_split, shannon_production_split):
        a, b = split(p, d), split(p, d_twin)
        close([a["s_part"], a["a_part"]], [b["s_part"], b["a_part"]])

    cycles = cycle_decompose(d.A)
    assert cycles.cycles == cycle_decompose(d_twin.A).cycles
    close(superpose_cycles(cycles, prob.n), d_twin.A, 1e-13)


def test_entropy_productions_run_on_csr_parts_past_the_dense_cap(monkeypatch):
    # the productions read CSR parts as they are, so a level beyond the cap
    # on densified operands gives its dense twin's values
    monkeypatch.setattr("markov_flow.core.DENSE_MAX_STATES", 100)
    gen = discretize_fpe(fpe_problem(DOMAIN, 16, 16, "quadratic", "identity", 0.5))
    d = decompose(gen)
    assert issparse(d.A) and d.n == 256
    d_twin = FlowDecomposition(pi=d.pi, F=d.F.toarray(), S=d.S.toarray(),
                               A=d.A.toarray())
    p = np.random.default_rng(3).uniform(0.5, 1.5, d.n)
    p /= p.sum()

    s_part = gini_production(p, d_twin)
    assert abs(gini_production(p, d) - s_part) <= 1e-12 * abs(s_part)
    for split, a_scale in ((production_split, "s_part"),
                           (shannon_production_split, "a_part")):
        a, b = split(p, d), split(p, d_twin)
        assert abs(a["s_part"] - b["s_part"]) <= 1e-12 * abs(b["s_part"])
        # the quadratic split's a_part is round-off, measured at its s_part's scale
        assert abs(a["a_part"] - b["a_part"]) <= 1e-12 * abs(b[a_scale])


def test_reversible_sparse_twin_gives_the_same_split():
    # gamma = 0: the CSR generator's spanning-tree pi and the dense LU
    # solve agree on a detailed-balance generator, and both splits
    # recompose to it
    gen = discretize_fpe(fpe_problem(SMALL, 6, 6, "quadratic", "identity", 0.0))
    twin = GeneratorMatrix(gen.q.toarray())
    pi, pi_twin = stationary_solve(gen).p, stationary_solve(twin).p
    assert np.abs(pi - pi_twin).max() <= 1e-12 * pi_twin.max()
    scale = np.abs(twin.q).max()
    for g in (gen, twin):
        d = decompose(g)
        assert is_detailed_balance(g).balanced
        back = recompose(d).q
        back = back.toarray() if issparse(back) else back
        assert np.abs(back - twin.q).max() <= 1e-12 * scale


def test_level_past_the_dense_cap_converges():
    # 16384 cells: twice the old dense cap; one dense 16384 x 16384 array
    # alone would take 2.1 GB, and the whole study stays below a sixteenth
    tracemalloc.start()
    try:
        levels = refinement_study(DOMAIN, (64, 128), "quadratic", "identity", 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16384 * 16384 * 8 / 16
    assert [lv["n"] for lv in levels] == [4096, 16384]
    assert levels[0]["l1_error_gibbs"] / levels[1]["l1_error_gibbs"] >= 3.5
    for lv in levels:
        assert max(lv["sym_residual"], lv["anti_residual"]) <= 1e-12
        assert lv["max_circulation_rel"] > 1e-6


def test_refinement_study_reports():
    levels = refinement_study(SMALL, (8, 16), "quadratic", "identity", 0.5)
    assert [lv["grid"] for lv in levels] == [8, 16]
    assert levels[0]["l1_error_gibbs"] / levels[1]["l1_error_gibbs"] >= 3.0
    for lv in levels:
        assert lv["clip_fraction"] < 0.01
        assert lv["sym_residual"] <= 1e-12


def test_twisted_study_factors_once_per_level(monkeypatch):
    # only the twisted operator needs SuperLU; its gamma-free twin is
    # reversible and takes the spanning-tree pi.  The reference refuses
    # every tree, so it factors both operators of each level with SuperLU
    factor = count_calls(monkeypatch, "scipy.sparse.linalg", "splu")
    levels = refinement_study(DOMAIN, (16, 32), "quadratic", "identity", 0.5)
    assert factor.call_count == 2
    monkeypatch.setattr("markov_flow.stationary._reversible_pi",
                        lambda q, root: None)
    reference = refinement_study(DOMAIN, (16, 32), "quadratic", "identity", 0.5)
    assert factor.call_count == 6
    for lv, ref in zip(levels, reference, strict=True):
        # every field but the mismatch comes from the twisted operator's
        # solve alone; the mismatch also takes the gamma-free operator's pi
        assert abs(lv["mismatch"] - ref["mismatch"]) <= 1e-12 * ref["mismatch"]
        assert {k: v for k, v in lv.items() if k != "mismatch"} \
            == {k: v for k, v in ref.items() if k != "mismatch"}


@pytest.mark.parametrize("problem", [
    lambda: fpe_problem(DOMAIN, 12, 12, "quadratic", "identity", 0.5),
    lambda: fpe_problem(DOMAIN, 12, 10, "quadratic", "identity",
                        lambda x, y: 0.3 + 0.1 * x * y),
    lambda: fpe_problem(DOMAIN, 12, 12, "double_well", "identity", 0.5),
    # D_xy keeps the twin's transverse terms
    lambda: fpe_problem(DOMAIN, 12, 12, "quadratic", [[1.0, 0.01], [0.01, 1.0]], 0.5),
], ids=["gamma-0.5", "gamma-field", "double-well", "D_xy"])
def test_twin_on_the_stored_geometry_is_the_gamma_free_operator(problem):
    prob = problem()
    discretize_fpe(prob)
    geometry = prob._stencil
    twin, _ = _assemble(prob, np.zeros_like(prob.gamma))
    assert prob._stencil is geometry
    fresh = discretize_fpe(replace(prob, gamma=np.zeros_like(prob.gamma))).q
    for name in ("indptr", "indices", "data"):
        assert getattr(twin.q, name).tobytes() == getattr(fresh, name).tobytes(), name


def test_study_builds_each_level_geometry_once(monkeypatch):
    build = count_calls(monkeypatch, "markov_flow.continuum", "_stencil_geometry")
    refinement_study(DOMAIN, (16, 32), "quadratic", "identity", 0.5)
    assert build.call_count == 2


def _reference_level(grid):
    """One level of the study from the public functions, on fresh problems."""
    def fresh():
        return fpe_problem(DOMAIN, grid, grid, "quadratic", "identity", 0.5)

    gen, clip = discretize_fpe_detailed(fresh())
    d = decompose(gen)
    prob = fresh()
    ops = operator_symmetry_report(prob, decompose(discretize_fpe(prob)))
    return {
        "grid": grid,
        "n": grid * grid,
        "l1_error_gibbs": float(np.abs(d.pi.p - gibbs_distribution(fresh()).p).sum()),
        "clip_fraction": clip.fraction,
        "max_circulation_rel": float(np.abs(d.A).max() / np.abs(d.F).max()),
        "sym_residual": ops.sym_residual,
        "anti_residual": ops.anti_residual,
        "mismatch": ops.mismatch,
    }


def test_study_levels_equal_the_public_functions_on_fresh_problems():
    levels = refinement_study(DOMAIN, (16, 32), "quadratic", "identity", 0.5)
    # the reference runs the grids in the other order
    reference = [_reference_level(grid) for grid in (32, 16)][::-1]
    assert levels == reference


def test_extreme_diffusion_scale_leaves_the_report_scale_free():
    scale = 2.0 ** 600
    big = refinement_study(DOMAIN, (16, 32), "quadratic",
                           [[scale, 0.0], [0.0, scale]], 0.5 * scale)
    unit = refinement_study(DOMAIN, (16, 32), "quadratic", "identity", 0.5)
    for lv, ref in zip(big, unit, strict=True):
        assert all(np.isfinite(value) for value in lv.values()), lv
        assert max(lv["sym_residual"], lv["anti_residual"]) <= 1e-12, lv
        for key in ("l1_error_gibbs", "max_circulation_rel", "mismatch"):
            assert abs(lv[key] - ref[key]) <= 1e-10 * abs(ref[key]), (key, lv, ref)


def test_overflowing_rates_raise_the_finiteness_error():
    prob = fpe_problem(DOMAIN, 8, 8, "quadratic", "identity", 1e308)
    with pytest.raises(MarkovFlowError, match="finiteness invariant violated"):
        discretize_fpe(prob)


def test_refinement_study_needs_resamplable_fields(monkeypatch):
    # fields sampled on the first grid are refused before any level is built
    sampled = fpe_problem(DOMAIN, 8, 8, "quadratic", "identity", 0.5)
    build = count_calls(monkeypatch, "markov_flow.continuum", "fpe_problem")
    for name, fields in (("phi", {"phi": sampled.phi}),
                         ("D", {"phi": "quadratic", "diffusion": sampled.diffusion}),
                         ("gamma", {"phi": "quadratic", "gamma": sampled.gamma})):
        with pytest.raises(ValueError, match=f"sampled {name} cannot be resampled"):
            refinement_study(DOMAIN, (8, 16), **fields)
    assert build.call_count == 0
