from dataclasses import replace

import numpy as np
import pytest

from markov_flow import (
    FlowDecomposition,
    ProbabilityVector,
    build_G,
    decompose,
    evolve,
    lambda2,
    probability_vector,
    spectral_bound,
    symmetric_eigensolve,
    validate_generator,
    verify_bound,
)
from markov_flow.errors import (
    BoundViolated,
    DisconnectedWarning,
    MarkovFlowError,
    NoConvergence,
    NotSymmetric,
    RowSumViolation,
)
from markov_flow.instances import three_cycle, two_state

from helpers import random_generator, random_probability


def test_build_G_three_cycle():
    d = decompose(three_cycle())
    G = build_G(d)
    # uniform stationary distribution scales the symmetric flow by n
    np.testing.assert_allclose(G, 3.0 * d.S, atol=1e-14)
    expected = np.full((3, 3), 0.5)
    np.fill_diagonal(expected, -1.0)
    np.testing.assert_allclose(G, expected, atol=1e-14)


def test_build_G_uniform_pi_is_scaled_S():
    rng = np.random.default_rng(3)
    # doubly-stochastic-style rates give uniform pi: symmetric rate pattern
    rates = rng.uniform(0.5, 1.5, (4, 4))
    rates = (rates + rates.T) / 2.0
    np.fill_diagonal(rates, 0.0)
    from markov_flow import from_offdiagonal_rates

    d = decompose(from_offdiagonal_rates(rates))
    np.testing.assert_allclose(d.pi.p, np.full(4, 0.25), atol=1e-12)
    np.testing.assert_allclose(build_G(d), 4.0 * d.S, atol=1e-12)


def test_build_G_annihilates_sqrt_pi():
    rng = np.random.default_rng(5)
    for _ in range(50):
        d = decompose(random_generator(rng, int(rng.integers(2, 12))))
        G = build_G(d)
        residual = np.abs(G @ np.sqrt(d.pi.p)).max()
        assert residual <= 1e-12 * max(np.abs(G).max(), 1.0)


def test_eigensolve_diagonal_matrix():
    w, u = symmetric_eigensolve(np.diag([1.0, 2.0, 3.0]))
    np.testing.assert_array_equal(w, [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(u, np.eye(3))


def test_eigensolve_three_cycle_spectrum():
    d = decompose(three_cycle())
    w, _ = symmetric_eigensolve(-build_G(d))
    np.testing.assert_allclose(w, [0.0, 1.5, 1.5], atol=1e-12)


def test_eigensolve_matches_library_oracle():
    rng = np.random.default_rng(7)
    for n in (2, 5, 12, 30, 50):
        m = rng.standard_normal((n, n))
        m = m + m.T
        w, u = symmetric_eigensolve(m)
        np.testing.assert_allclose(w, np.linalg.eigvalsh(m), atol=1e-10 * np.linalg.norm(m))
        recon = np.linalg.norm(m - u @ np.diag(w) @ u.T)
        assert recon <= 1e-10 * np.linalg.norm(m)
        assert np.abs(u.T @ u - np.eye(n)).max() <= 1e-12


def test_eigensolve_sign_convention_deterministic():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((6, 6))
    m = m + m.T
    w1, u1 = symmetric_eigensolve(m)
    w2, u2 = symmetric_eigensolve(m.copy())
    np.testing.assert_array_equal(u1, u2)
    for j in range(6):
        i = int(np.argmax(np.abs(u1[:, j])))
        assert u1[i, j] > 0.0


def test_eigensolve_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        symmetric_eigensolve(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_eigensolve_nonfinite_input_is_nonconvergence():
    with pytest.raises(NoConvergence):
        symmetric_eigensolve(np.array([[1.0, np.nan], [np.nan, 1.0]]))


def test_eigensolve_lapack_failure_is_nonconvergence(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NoConvergence, match="did not converge"):
        symmetric_eigensolve(np.eye(3))


def _hand_built(s, pi=None):
    """Unchecked decomposition with symmetric part ``s`` and no circulation."""
    n = s.shape[0]
    pi = np.full(n, 1.0 / n) if pi is None else pi
    return FlowDecomposition(pi=ProbabilityVector(pi), F=s, S=s, A=np.zeros((n, n)))


def test_spectral_bound_rejects_nonzero_row_sums():
    s = np.array([[-1.0, 0.5, 0.0], [0.5, -1.0, 0.5], [0.0, 0.5, -1.0]])
    with pytest.raises(RowSumViolation, match=r"sqrt\(pi\)"):
        spectral_bound(_hand_built(s))


def test_build_G_rejects_asymmetric_flow():
    s = np.array([[-1.0, 1.0], [0.5, -0.5]])
    with pytest.raises(NotSymmetric, match=r"G - G\^T"):
        build_G(_hand_built(s))


def test_spectral_bound_rejects_indefinite_symmetric_part():
    # zero row sums but positive diagonal: -G has eigenvalues -4 and 0
    s = np.array([[1.0, -1.0], [-1.0, 1.0]])
    with pytest.raises(NoConvergence, match="not PSD"):
        spectral_bound(_hand_built(s))


def test_lambda2_two_state_matches_relaxation_rate():
    d = decompose(two_state())
    sb = spectral_bound(d)
    np.testing.assert_allclose(sb.eigenvalues, [0.0, 3.0], atol=1e-12)
    np.testing.assert_allclose(sb.lambda2, 3.0, atol=1e-12)


def test_lambda2_three_cycle():
    np.testing.assert_allclose(lambda2(decompose(three_cycle())), 1.5, atol=1e-12)


def test_lambda2_equals_generator_gap_for_symmetric_chain():
    # symmetric rates give uniform pi and G == q, so the divergence decay
    # rate is the plain spectral gap of -q
    rng = np.random.default_rng(31)
    rates = rng.uniform(0.5, 1.5, (5, 5))
    rates = (rates + rates.T) / 2.0
    np.fill_diagonal(rates, 0.0)
    from markov_flow import from_offdiagonal_rates

    gen = from_offdiagonal_rates(rates)
    gap = np.sort(np.linalg.eigvalsh(-gen.q))[1]
    np.testing.assert_allclose(lambda2(decompose(gen)), gap, atol=1e-10)


def test_spectral_bound_leading_eigenvector_is_sqrt_pi():
    rng = np.random.default_rng(17)
    for _ in range(20):
        d = decompose(random_generator(rng, int(rng.integers(2, 10))))
        sb = spectral_bound(d)
        np.testing.assert_allclose(sb.eigenvectors[:, 0], np.sqrt(d.pi.p), atol=1e-8)


def test_disconnected_symmetric_flow_warns():
    # hand-built decomposition of two isolated reversible blocks
    s = np.zeros((4, 4))
    s[0, 1] = s[1, 0] = 0.125
    s[0, 0] = s[1, 1] = -0.125
    s[2, 3] = s[3, 2] = 0.25
    s[2, 2] = s[3, 3] = -0.25
    d = FlowDecomposition(
        pi=ProbabilityVector(np.full(4, 0.25)),
        F=s,
        S=s,
        A=np.zeros((4, 4)),
    )
    with pytest.warns(DisconnectedWarning):
        sb = spectral_bound(d)
    assert sb.lambda2 <= 1e-10 * sb.eigenvalues[-1]


def test_verify_bound_trivial_at_stationarity():
    gen = three_cycle()
    d = decompose(gen)
    traj = evolve(gen, d.pi, np.linspace(0.0, 3.0, 10))
    report = verify_bound(traj, spectral_bound(d))
    assert np.abs(report.divergence).max() <= 1e-12


def test_verify_bound_three_cycle_closed_form():
    gen = three_cycle()
    d = decompose(gen)
    # the demo's grid, down to D near 1e-8, where the cancellation of
    # sum(p^2/pi) - 1 alone would put D a relative 3e-8 off the curve
    t = np.concatenate([[0.0], np.geomspace(1e-3, 20.0 / 3.0, 200)])
    traj = evolve(gen, probability_vector([1.0, 0.0, 0.0]), t)
    report = verify_bound(traj, spectral_bound(d))
    np.testing.assert_allclose(report.divergence[0], 2.0, atol=1e-12)
    np.testing.assert_allclose(report.divergence, 2.0 * np.exp(-3.0 * t),
                               rtol=1e-10, atol=0.0)
    # degenerate spectrum makes the sharp rate exact: D sits on its bound
    np.testing.assert_allclose(report.divergence, report.bound_sharp, rtol=1e-8)
    assert report.norm_identity_error <= 1e-12
    assert report.projection_error <= 1e-12


def test_verify_bound_random_sweep():
    rng = np.random.default_rng(19)
    for _ in range(100):
        n = int(rng.integers(3, 9))
        gen = random_generator(rng, n, density=float(rng.uniform(0.5, 1.0)))
        d = decompose(gen)
        p0 = random_probability(rng, n, concentrated=bool(rng.integers(2)))
        t = np.geomspace(1e-3, 10.0 / lambda2(d), 40)
        traj = evolve(gen, p0, t)
        report = verify_bound(traj, spectral_bound(d))  # raises on violation
        assert report.norm_identity_error <= 1e-12
        assert report.projection_error <= 1e-12


def test_verify_bound_survives_underflowing_grid():
    # far past relaxation the bound curve underflows while the measured
    # divergence bottoms out at round-off; that must not read as a violation
    gen = two_state()
    d = decompose(gen)
    t = np.array([0.0, 1.0, 50.0, 150.0, 250.0])
    traj = evolve(gen, probability_vector([1.0, 0.0]), t)
    report = verify_bound(traj, spectral_bound(d))
    assert report.divergence[-1] <= 1e-13


def test_verify_bound_catches_mismatched_chain():
    fast = three_cycle()
    slow = validate_generator(0.05 * fast.q)
    d_fast = decompose(fast)
    t = np.linspace(0.0, 5.0, 30)
    traj_slow = evolve(slow, probability_vector([1.0, 0.0, 0.0]), t)
    with pytest.raises(BoundViolated):
        verify_bound(traj_slow, spectral_bound(d_fast))


def _slow_chain_against_fast_bound():
    fast = three_cycle()
    slow = validate_generator(0.05 * fast.q)
    traj = evolve(slow, probability_vector([1.0, 0.0, 0.0]), np.linspace(0.0, 5.0, 30))
    verify_bound(traj, spectral_bound(decompose(fast)))


@pytest.mark.parametrize("refused", [
    lambda: probability_vector([0.5, 0.6]),
    lambda: evolve(two_state(), probability_vector([1.0, 0.0]), [-1.0, 2.0]),
    _slow_chain_against_fast_bound,
], ids=["mass", "negative-time", "decay-bound"])
def test_refusals_print_python_floats(refused):
    with pytest.raises((MarkovFlowError, ValueError)) as refusal:
        refused()
    assert "np." not in str(refusal.value), str(refusal.value)


def test_verify_bound_asserts_the_sharp_rate():
    # the three-cycle decays exactly at 2 lambda2; a lambda2 overstated by
    # 10% still bounds it at rate lambda2, but no longer at 2 lambda2
    gen = three_cycle()
    sb = spectral_bound(decompose(gen))
    overstated = replace(sb, eigenvalues=sb.eigenvalues * 1.1)
    traj = evolve(gen, probability_vector([1.0, 0.0, 0.0]), np.linspace(0.0, 5.0, 30))
    div = verify_bound(traj, sb).divergence
    assert (div <= div[0] * np.exp(-overstated.lambda2 * traj.times)).all()
    with pytest.raises(BoundViolated, match="exp\\(-2 lambda2 t\\)"):
        verify_bound(traj, overstated)


def test_verify_bound_rejects_size_mismatch():
    gen = two_state()
    traj = evolve(gen, probability_vector([1.0, 0.0]), np.linspace(0.0, 1.0, 5))
    with pytest.raises(ValueError, match="size invariant violated"):
        verify_bound(traj, spectral_bound(decompose(three_cycle())))


def test_bound_report_csv_quantities_consistent():
    gen = two_state()
    d = decompose(gen)
    t = np.geomspace(1e-2, 3.0, 25)
    traj = evolve(gen, probability_vector([1.0, 0.0]), t)
    report = verify_bound(traj, spectral_bound(d))
    np.testing.assert_allclose(
        report.bound, report.divergence[0] * np.exp(-report.lam2 * (t - t[0])),
        rtol=1e-12,
    )
    np.testing.assert_allclose(
        report.ratio, report.divergence / report.bound, rtol=1e-12
    )
    assert (report.ratio <= 1.0 + 1e-8).all()
