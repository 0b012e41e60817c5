import importlib
import math

import mpmath
import numpy as np
import pytest
import scipy.linalg

from markov_flow import (
    RELATIVE_GINI,
    RELATIVE_SHANNON,
    SHANNON,
    decompose,
    default_time_grid,
    entropy_trace,
    evolve,
    from_offdiagonal_rates,
    gini_divergence,
    gini_production,
    kl_divergence,
    lambda2,
    probability_vector,
    relative_f_entropy,
    relative_f_kind,
    shannon_entropy,
)
from markov_flow.errors import Overflow
from markov_flow.instances import shannon_nonmonotone, three_cycle, two_state

from helpers import (
    StepTooLarge,
    count_calls,
    random_birth_death,
    random_generator,
    random_probability,
    rk4_integrate,
)

evolve_module = importlib.import_module("markov_flow.evolve")


def test_stationary_start_is_fixed_point():
    gen = three_cycle()
    d = decompose(gen)
    traj = evolve(gen, d.pi, np.linspace(0.0, 5.0, 20))
    assert np.abs(traj.states - d.pi.p[np.newaxis, :]).max() <= 1e-12


def test_two_state_closed_form():
    gen = two_state()
    t = np.linspace(0.0, 4.0, 60)
    traj = evolve(gen, probability_vector([1.0, 0.0]), t)
    expected = 2 / 3 + np.exp(-3.0 * t) / 3
    np.testing.assert_allclose(traj.states[:, 0], expected, atol=1e-13)
    np.testing.assert_allclose(traj.states[:, 1], 1.0 - expected, atol=1e-13)


def test_rk4_two_state_closed_form():
    gen = two_state()
    traj = rk4_integrate(gen, probability_vector([1.0, 0.0]), t_end=2.0, h=0.01)
    expected = 2 / 3 + np.exp(-3.0 * traj.times) / 3
    np.testing.assert_allclose(traj.states[:, 0], expected, atol=1e-9)


def test_integrators_agree():
    rng = np.random.default_rng(3)
    worst = 0.0
    # n = 24 and 40 take uniformized blocks on their short intervals
    for size in [None] * 15 + [24, 40]:
        n = size or int(rng.integers(3, 9))
        gen = random_generator(rng, n)
        p0 = random_probability(rng, n)
        rate = np.abs(np.diag(gen.q)).max()
        h = 0.02 / rate
        traj_rk = rk4_integrate(gen, p0, t_end=4.0 / rate, h=h)
        picks = [0, len(traj_rk.times) // 10, len(traj_rk.times) // 3, -1]
        traj_ex = evolve(gen, p0, traj_rk.times[picks])
        for row, k in zip(traj_ex.states, picks):
            worst = max(worst, np.abs(row - traj_rk.states[k]).max())
    assert worst <= 1e-8, worst


def reach(n):
    """The block reach ``lambda*(n)`` of an ``n``-state chain."""
    return evolve_module._reach(n, evolve_module._log_factorials(n))


@pytest.mark.parametrize("n", [20, 60, 120])
def test_dense_chain_steps_match_per_point_expm(n, monkeypatch):
    rng = np.random.default_rng(n)
    gen = random_generator(rng, n)
    p0 = probability_vector(np.eye(n)[0])
    t_max = 10.0 / lambda2(decompose(gen))
    mu = -gen.q.diagonal().min()
    expm_calls = count_calls(monkeypatch, "markov_flow.evolve", "expm")
    block_calls = count_calls(monkeypatch, "markov_flow.evolve", "_uniform_block")
    for points in (200, 1000):
        t = np.concatenate([[0.0], np.geomspace(1e-3, t_max, points - 1)])
        block_calls.reset_mock()
        traj = evolve(gen, p0, t)
        # every interval of a dense chain's 10/lambda2 grid is short in mu h
        assert expm_calls.call_count == 0
        assert (traj.states[0] == p0.p).all()
        for row, tk in zip(traj.states, t):
            expected = scipy.linalg.expm(gen.q * tk) @ p0.p
            assert np.abs(row - expected).max() <= 1e-13
    # the 1000-point grid is dense enough that each block reaches nearly
    # lambda*(n)/mu past its anchor, and the first serves hundreds of rows
    assert block_calls.call_count <= math.ceil(mu * t_max / reach(n)) + 1
    assert max(len(call.args[2]) for call in block_calls.call_args_list) >= 100


def test_block_takes_a_point_exactly_at_its_reach(monkeypatch):
    # seed 38: a double edge with mu * edge == lambda*(40) exists, which
    # it does not for every mu
    rng = np.random.default_rng(38)
    gen = random_generator(rng, 40)
    p0 = probability_vector(np.eye(40)[0])
    mu = -gen.q.diagonal().min()
    lam = reach(40)
    edge = lam / mu
    while mu * edge > lam:
        edge = np.nextafter(edge, 0.0)
    while mu * edge < lam:
        edge = np.nextafter(edge, np.inf)
    past = np.nextafter(edge, np.inf)
    assert mu * edge == lam < mu * past
    # the block from 0 takes edge; one ulp further starts a block at edge / 3
    block_calls = count_calls(monkeypatch, "markov_flow.evolve", "_uniform_block")
    for t, sizes in (([edge / 3.0, edge], [2]), ([edge / 3.0, past], [1, 1])):
        block_calls.reset_mock()
        traj = evolve(gen, p0, t)
        assert [len(call.args[2]) for call in block_calls.call_args_list] == sizes
        for row, tk in zip(traj.states, t):
            expected = scipy.linalg.expm(gen.q * tk) @ p0.p
            assert np.abs(row - expected).max() <= 1e-13


@pytest.mark.parametrize("span", [None, 1.5, 5.0])
def test_first_point_at_zero_is_p0(span, monkeypatch):
    # n = 18: t = 0 is the first row of a block, exactly p0; a second
    # point at mu t = span / 2 joins that block (0.75 <= lambda*(18) = 1.22)
    # or follows it by the propagator (2.5)
    rng = np.random.default_rng(41)
    gen = random_generator(rng, 18)
    p0 = probability_vector(np.eye(18)[0] * 0.5 + np.eye(18)[1] * 0.25
                            + np.eye(18)[2] * 0.25)
    mu = -gen.q.diagonal().min()
    t = [0.0] if span is None else [0.0, span / (2.0 * mu)]
    expm_calls = count_calls(monkeypatch, "markov_flow.evolve", "expm")
    traj = evolve(gen, p0, t)
    assert (traj.states[0] == p0.p).all()
    assert expm_calls.call_count == (span == 5.0)
    if span is not None:
        expected = scipy.linalg.expm(gen.q * t[1]) @ p0.p
        assert np.abs(traj.states[1] - expected).max() <= 1e-13


@pytest.mark.parametrize("lam", ["0", "1e-12", "1e-3", "0.5", "reach 18",
                                 "reach 120", "reach 400"])
def test_term_count_leaves_a_poisson_tail_below_round_off(lam):
    # J is the least power whose Poisson(lam) tail P(N > J) is <= 2^-53,
    # the tail taken with mpmath
    lam = reach(int(lam.split()[1])) if lam.startswith("reach") else float(lam)
    terms = evolve_module._term_count(lam, evolve_module._log_factorials(400))

    def tail(j):
        with mpmath.workdps(40):
            return mpmath.gammainc(j + 1, 0, mpmath.mpf(lam), regularized=True)

    assert tail(terms) <= mpmath.mpf(2) ** -53
    if lam > 0.0:
        assert tail(terms - 1) > mpmath.mpf(2) ** -53


@pytest.mark.parametrize("n, expected", [(18, 1.22), (40, 7.96), (120, 51.4),
                                         (400, 258.0)])
def test_reach_is_the_largest_with_n_terms(n, expected):
    lam = reach(n)
    assert round(lam, 2 if n < 100 else 1) == expected
    assert evolve_module._term_count(lam, evolve_module._log_factorials(n)) == n
    # nearly the largest: a relative 1e-8 further needs n + 1 powers
    with mpmath.workdps(40):
        beyond = mpmath.gammainc(n + 1, 0, mpmath.mpf(lam * (1.0 + 1e-8)),
                                 regularized=True)
    assert beyond > mpmath.mpf(2) ** -53


@pytest.mark.parametrize("chain", ["random", "stiff"])
@pytest.mark.parametrize("n", [18, 40, 120, 400])
def test_block_at_its_full_reach(n, chain, monkeypatch):
    # one block whose farthest point has mu h = lambda*(n), the most powers a
    # block takes; stiff rates span 1e-6..1e3.  P = I + q/mu and the Poisson
    # weights are nonnegative, so the rows are too, before any cleanup
    rng = np.random.default_rng(31)
    if chain == "stiff":
        rates = 10.0 ** rng.uniform(-6.0, 3.0, (n, n))
        np.fill_diagonal(rates, 0.0)
        gen = from_offdiagonal_rates(rates)
    else:
        gen = random_generator(rng, n)
    p0 = random_probability(rng, n)
    mu, lam = -gen.q.diagonal().min(), reach(n)
    h = lam / mu
    while mu * h > lam:
        h = np.nextafter(h, 0.0)
    t = [h / 7.0, h / 2.0, h]
    expm_calls = count_calls(monkeypatch, "markov_flow.evolve", "expm")
    block_calls = count_calls(monkeypatch, "markov_flow.evolve", "_uniform_block")
    cleanup_calls = count_calls(monkeypatch, "markov_flow.evolve", "_cleanup_states")
    traj = evolve(gen, p0, t)
    assert (expm_calls.call_count, block_calls.call_count) == (0, 1)
    assert cleanup_calls.call_args.args[0].min() >= 0.0
    for row, tk in zip(traj.states, t):
        expected = scipy.linalg.expm(gen.q * tk) @ p0.p
        assert np.abs(row - expected).max() <= 1e-13


@pytest.mark.parametrize("n", [17, 18])
def test_blocks_start_at_18_states(n, monkeypatch):
    rng = np.random.default_rng(43)
    gen = random_generator(rng, n)
    p0 = random_probability(rng, n)
    t = np.linspace(0.1, 5.0, 50) / -gen.q.diagonal().min()
    expm_calls = count_calls(monkeypatch, "markov_flow.evolve", "expm")
    block_calls = count_calls(monkeypatch, "markov_flow.evolve", "_uniform_block")
    traj = evolve(gen, p0, t)
    if n == 17:
        assert (expm_calls.call_count, block_calls.call_count) == (t.size, 0)
    else:
        assert expm_calls.call_count == 0 < block_calls.call_count
    for row, tk in zip(traj.states, t):
        expected = scipy.linalg.expm(gen.q * tk) @ p0.p
        assert np.abs(row - expected).max() <= 1e-13


def test_metastable_chain_takes_both_steps(monkeypatch):
    # two dense 20-state clusters joined by one pair of 1e-3 rates:
    # lambda2 ~ 1e-4, so the grid's late intervals are long in ||q||_1 h
    rng = np.random.default_rng(23)
    rates = np.zeros((40, 40))
    rates[:20, :20] = rng.uniform(0.2, 2.0, (20, 20))
    rates[20:, 20:] = rng.uniform(0.2, 2.0, (20, 20))
    rates[20, 19] = rates[19, 20] = 1e-3
    np.fill_diagonal(rates, 0.0)
    gen = from_offdiagonal_rates(rates)
    p0 = probability_vector(np.eye(40)[0])
    lam2 = lambda2(decompose(gen))
    assert 1e-5 < lam2 < 1e-3
    t = np.geomspace(1e-3, 10.0 / lam2, 200)
    expm_calls = count_calls(monkeypatch, "markov_flow.evolve", "expm")
    traj = evolve(gen, p0, t)
    assert 0 < expm_calls.call_count < t.size
    for row, tk in zip(traj.states, t):
        expected = scipy.linalg.expm(gen.q * tk) @ p0.p
        assert np.abs(row - expected).max() <= 1e-10
    np.testing.assert_allclose(traj.states.sum(axis=1), 1.0, atol=1e-14)


def test_overflowing_step_raises():
    with pytest.raises(Overflow, match="finiteness invariant violated"):
        evolve(three_cycle(), probability_vector([1.0, 0.0, 0.0]), [1e305])


def test_rk4_conserves_probability():
    rng = np.random.default_rng(5)
    gen = random_generator(rng, 5)
    p0 = random_probability(rng, 5)
    h = 0.05 / np.abs(np.diag(gen.q)).max()
    q = gen.q
    # raw steps, before the trajectory cleanup renormalizes
    p = p0.p.copy()
    for _ in range(200):
        k1 = q @ p
        k2 = q @ (p + 0.5 * h * k1)
        k3 = q @ (p + 0.5 * h * k2)
        k4 = q @ (p + h * k3)
        p = p + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        assert abs(p.sum() - 1.0) <= 1e-12


def test_rk4_fourth_order_convergence():
    gen = from_rates_3state()
    p0 = probability_vector([0.7, 0.2, 0.1])
    t_end = 1.0
    ref = evolve(gen, p0, np.array([t_end])).states[-1]
    err = []
    for h in (0.02, 0.01):
        traj = rk4_integrate(gen, p0, t_end, h)
        err.append(np.abs(traj.states[-1] - ref).max())
    ratio = err[0] / err[1]
    assert 8.0 <= ratio <= 32.0, ratio


def from_rates_3state():
    rng = np.random.default_rng(11)
    return random_generator(rng, 3)


def test_rk4_step_guard():
    gen = two_state()
    with pytest.raises(StepTooLarge):
        rk4_integrate(gen, probability_vector([1.0, 0.0]), t_end=1.0, h=0.2)
    with pytest.raises(ValueError):
        rk4_integrate(gen, probability_vector([1.0, 0.0]), t_end=1.0, h=-0.1)


def test_times_validation():
    gen = two_state()
    p0 = probability_vector([1.0, 0.0])
    with pytest.raises(ValueError):
        evolve(gen, p0, [-1.0, 0.0])
    with pytest.raises(ValueError):
        evolve(gen, p0, [0.0, 2.0, 1.0])
    with pytest.raises(ValueError):
        evolve(gen, p0, [])
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finiteness invariant violated"):
            evolve(gen, p0, [0.0, bad])


def test_evolve_rejects_size_mismatch():
    with pytest.raises(ValueError, match="size invariant violated: p0 has 2 entries"):
        evolve(three_cycle(), probability_vector([1.0, 0.0]), [0.0, 1.0])


def test_states_are_clean_probability_rows():
    rng = np.random.default_rng(7)
    gen = random_generator(rng, 6)
    traj = evolve(gen, random_probability(rng, 6), np.geomspace(1e-3, 50.0, 80))
    assert traj.states.min() >= 0.0
    np.testing.assert_allclose(traj.states.sum(axis=1), 1.0, atol=1e-14)


def test_long_time_limit_reaches_stationarity():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(3, 8))
        gen = random_generator(rng, n)
        d = decompose(gen)
        lam2 = lambda2(d)
        p0 = random_probability(rng, n, concentrated=True)
        t_end = 12.0 / lam2
        traj = evolve(gen, p0, np.array([t_end]))
        gap = np.abs(traj.states[-1] - d.pi.p).max()
        loose = 10.0 * np.exp(-lam2 * t_end) * np.sqrt(
            gini_divergence(p0, d.pi.p)
        ) * np.sqrt(d.pi.p.max())
        assert gap <= max(loose, 1e-13)


def test_default_time_grid():
    gen = two_state()
    grid = default_time_grid(gen, points=50)
    assert grid.shape == (50,)
    assert grid[0] > 0.0
    np.testing.assert_allclose(grid[-1], 10.0 / 1.0)  # min |q_ii| = 1
    grid2 = default_time_grid(gen, points=10, decay_rate=5.0)
    np.testing.assert_allclose(grid2[-1], 2.0)
    grid3 = default_time_grid(gen, points=10, t_max=7.0)
    np.testing.assert_allclose(grid3[-1], 7.0)


@pytest.mark.parametrize("t_max", [np.inf, -np.inf, np.nan, 0.0, -1.0])
def test_default_time_grid_rejects_bad_t_max(t_max):
    message = "finiteness invariant" if not np.isfinite(t_max) else "t_max must be > 0"
    with pytest.raises(ValueError, match=message):
        default_time_grid(two_state(), points=10, t_max=t_max)


@pytest.mark.parametrize("points", [0, -3])
def test_default_time_grid_rejects_too_few_points(points):
    with pytest.raises(ValueError, match="grid invariant violated: need at least one"):
        default_time_grid(two_state(), points=points, t_max=1.0)


def test_traces_detailed_balance_chain_kl_monotone():
    rng = np.random.default_rng(13)
    gen = random_birth_death(rng, 5)
    p0 = random_probability(rng, 5)
    traj = evolve(gen, p0, np.geomspace(1e-3, 40.0, 120))
    traj = entropy_trace(traj, decompose(gen), [RELATIVE_SHANNON, RELATIVE_GINI])
    assert traj.monotone_violations["kl"] is None
    assert traj.monotone_violations["gini_divergence"] is None
    assert "gini_production" in traj.traces
    assert traj.traces["gini_production"].max() <= 1e-12


def test_traces_shannon_nonmonotone_instance():
    gen, p0 = shannon_nonmonotone()
    times = np.concatenate([[0.0], np.geomspace(1e-3, 20.0, 200)])
    traj = entropy_trace(evolve(gen, p0, times), decompose(gen),
                         [SHANNON, RELATIVE_SHANNON, RELATIVE_GINI])
    shannon = traj.traces["shannon"]
    peak = int(np.argmax(shannon))
    assert shannon[peak] - shannon[0] >= 1e-3
    assert shannon[peak] - shannon[-1] >= 1e-3
    assert traj.monotone_violations["shannon"] is not None
    assert traj.monotone_violations["kl"] is None
    assert traj.monotone_violations["gini_divergence"] is None


def test_traces_gini_monotone_random_sweep():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        gen = random_generator(rng, n, density=float(rng.uniform(0.5, 1.0)))
        p0 = random_probability(rng, n, concentrated=bool(rng.integers(2)))
        grid = default_time_grid(gen, points=40)
        traj = entropy_trace(evolve(gen, p0, grid), decompose(gen), [RELATIVE_GINI])
        assert traj.monotone_violations["gini_divergence"] is None


def test_traces_custom_relative_f_kind_monotone():
    rng = np.random.default_rng(19)
    gen = random_generator(rng, 4)
    p0 = random_probability(rng, 4)
    kind = relative_f_kind(lambda x: (x - 1.0) ** 2, name="sq_dist")
    traj = evolve(gen, p0, np.geomspace(1e-3, 30.0, 80))
    traj = entropy_trace(traj, decompose(gen), [kind])
    assert traj.monotone_violations["sq_dist"] is None
    assert traj.traces["sq_dist"].max() <= 1e-12


def test_entropy_trace_arrays_are_readonly():
    gen = three_cycle()
    traj = evolve(gen, probability_vector([1.0, 0.0, 0.0]), np.linspace(0.0, 1.0, 5))
    quad = relative_f_kind(lambda x: (x - 1.0) ** 2, name="quad")
    traj = entropy_trace(traj, decompose(gen),
                         [SHANNON, RELATIVE_SHANNON, RELATIVE_GINI, quad])
    assert sorted(traj.traces) == ["gini_divergence", "gini_production", "kl",
                                   "quad", "shannon"]
    for name, series in traj.traces.items():
        assert not series.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            series[0] = 1.0


def test_vectorized_traces_equal_per_row_functions():
    rng = np.random.default_rng(29)
    cases = [shannon_nonmonotone()]
    for n, density in ((9, 0.3), (40, 0.15), (120, 1.0)):
        gen = random_generator(rng, n, density=density)
        cases.append((gen, probability_vector(np.eye(n)[0])))
        # mixed zero and nonzero entries: a row with zeros at t = 0
        weights = rng.random(n) * (rng.random(n) < 0.6)
        weights[0] = 1.0
        cases.append((gen, probability_vector(weights / weights.sum())))
    quad = relative_f_kind(lambda x: (x - 1.0) ** 2, name="quad")
    for gen, p0 in cases:
        d = decompose(gen)
        times = np.concatenate([[0.0], np.geomspace(1e-4, 30.0, 150)])
        traj = entropy_trace(evolve(gen, p0, times), d,
                             [SHANNON, RELATIVE_SHANNON, RELATIVE_GINI, quad])
        rows = traj.states
        assert (rows[0] == 0.0).any() == (p0.p == 0.0).any()
        for name, per_row in (
            ("shannon", shannon_entropy),
            ("kl", lambda row: kl_divergence(row, d.pi.p)),
            ("gini_divergence", lambda row: gini_divergence(row, d.pi.p)),
            ("quad", lambda row: relative_f_entropy(row, d.pi.p, quad.f)),
        ):
            assert (traj.traces[name] == [per_row(row) for row in rows]).all(), name
        assert (traj.traces["gini_production"] == gini_production(rows, d)).all()
        # one row alone is a vector-matrix product, which BLAS rounds
        # differently from that row of the stack's matrix product
        production = np.array([gini_production(row, d) for row in rows])
        scale = np.abs(production).max()
        assert np.abs(traj.traces["gini_production"] - production).max() <= 1e-14 * scale


def test_relative_f_trace_calls_f_a_fixed_number_of_times():
    rng = np.random.default_rng(31)
    gen = random_generator(rng, 6)
    d = decompose(gen)
    calls = []

    def f(x):
        calls.append(np.shape(x))
        return (x - 1.0) ** 2

    kind = relative_f_kind(f)
    counts = []
    for points in (10, 1000):
        traj = evolve(gen, random_probability(rng, 6), np.geomspace(1e-3, 10.0, points))
        calls.clear()
        entropy_trace(traj, d, [kind])
        counts.append(len(calls))
    # one f(1) check, at most nine convexity probes and one call on the stack
    assert counts[0] == counts[1] <= 11
    assert calls[-1] == (1000, 6)


def test_trajectory_is_immutable():
    gen = two_state()
    traj = evolve(gen, probability_vector([1.0, 0.0]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        traj.states[0, 0] = 2.0
