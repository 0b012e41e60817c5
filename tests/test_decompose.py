import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings

from markov_flow import (
    compose,
    cycle_decompose,
    decompose,
    dof_report,
    dual,
    from_offdiagonal_rates,
    is_detailed_balance,
    recompose,
    stationary_solve,
    superpose_cycles,
    validate_generator,
)
from markov_flow.core import GeneratorMatrix, ProbabilityVector
from markov_flow.decompose import CYCLE_DUST_RTOL, FlowDecomposition, _check_flow_invariants
from markov_flow.errors import (
    CycleCountWarning,
    InvalidFlow,
    MarkovFlowError,
    NotAntisymmetric,
    NotBalanced,
)

from helpers import (
    dfs_cycle_peel,
    random_birth_death,
    random_circulation,
    random_generator,
    wide_rate_generators,
)


def three_cycle():
    return from_offdiagonal_rates([[0, 0, 1], [1, 0, 0], [0, 1, 0]])


def test_two_state_decomposition_is_pure_symmetric():
    d = decompose(validate_generator([[-1.0, 2.0], [1.0, -2.0]]))
    np.testing.assert_allclose(d.pi.p, [2 / 3, 1 / 3], atol=1e-14)
    expected_f = np.array([[-2 / 3, 2 / 3], [2 / 3, -2 / 3]])
    np.testing.assert_allclose(d.F, expected_f, atol=1e-14)
    np.testing.assert_allclose(d.S, expected_f, atol=1e-14)
    assert np.abs(d.A).max() <= 1e-15


def test_three_cycle_decomposition_values():
    d = decompose(three_cycle())
    s_expected = np.full((3, 3), 1 / 6)
    np.fill_diagonal(s_expected, -1 / 3)
    np.testing.assert_allclose(d.S, s_expected, atol=1e-14)
    a_expected = np.array([
        [0.0, -1 / 6, 1 / 6],
        [1 / 6, 0.0, -1 / 6],
        [-1 / 6, 1 / 6, 0.0],
    ])
    np.testing.assert_allclose(d.A, a_expected, atol=1e-14)
    np.testing.assert_array_equal(d.F, d.S + d.A)


def test_reversible_chain_has_no_circulation():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        gen = random_birth_death(rng, n)
        d = decompose(gen)
        assert np.abs(d.A).max() <= 1e-14
        # independent pairwise detailed-balance check
        pairwise = gen.q * d.pi.p[np.newaxis, :] - gen.q.T * d.pi.p[:, np.newaxis]
        assert np.abs(pairwise).max() <= 1e-14


def test_roundtrip_identity():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(2, 51))
        gen = random_generator(rng, n, density=float(rng.uniform(0.3, 1.0)))
        d = decompose(gen)
        back = recompose(d)
        scale = np.abs(gen.q).max()
        assert np.abs(back.q - gen.q).max() <= 1e-12 * scale
        # zero row/column sums at flow scale
        f_scale = np.abs(d.F).max()
        for m in (d.F, d.S, d.A):
            assert np.abs(m.sum(axis=0)).max() <= 1e-12 * f_scale
            assert np.abs(m.sum(axis=1)).max() <= 1e-12 * f_scale


def test_symmetric_part_negative_semidefinite():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(2, 20))
        d = decompose(random_generator(rng, n))
        eigs = np.linalg.eigvalsh(d.S)
        norm = np.linalg.norm(d.S)
        assert eigs.max() <= 1e-10 * norm
        x = rng.standard_normal((1000, n))
        quad = np.einsum("ki,ij,kj->k", x, d.S, x)
        assert quad.max() <= 1e-12 * norm * (x * x).sum(axis=1).max()


def test_operator_adjointness_properties():
    # Euclidean inner product: S self-adjoint, A anti-self-adjoint
    rng = np.random.default_rng(17)
    d = decompose(random_generator(rng, 8))
    for _ in range(25):
        u = rng.standard_normal(8)
        v = rng.standard_normal(8)
        scale = np.linalg.norm(u) * np.linalg.norm(v)
        assert abs((d.S @ u) @ v - u @ (d.S @ v)) <= 1e-13 * scale
        assert abs((d.A @ u) @ v + u @ (d.A @ v)) <= 1e-13 * scale


def test_compose_symmetrized_three_state():
    s = np.full((3, 3), 1 / 6)
    np.fill_diagonal(s, -1 / 3)
    gen = compose(np.full(3, 1 / 3), s, np.zeros((3, 3)))
    expected = np.full((3, 3), 0.5)
    np.fill_diagonal(expected, -1.0)
    np.testing.assert_allclose(gen.q, expected, atol=1e-14)


def test_compose_rejects_overstrong_circulation():
    d = decompose(three_cycle())
    with pytest.raises(InvalidFlow):
        compose(d.pi, d.S, 2.0 * d.A)


def test_compose_circulation_sweep_preserves_stationary():
    from markov_flow import stationary_solve

    d = decompose(three_cycle())
    for eps in np.linspace(0.0, 1.0, 11):
        gen = compose(d.pi, d.S, eps * d.A)
        np.testing.assert_allclose(stationary_solve(gen).p, d.pi.p, atol=1e-12)


def test_compose_validates_parts():
    d = decompose(three_cycle())
    bad_s = d.S + np.diag([1e-3, -1e-3, 0.0])  # breaks row sums
    with pytest.raises(Exception):
        compose(d.pi, bad_s, d.A)
    with pytest.raises(NotAntisymmetric):
        compose(d.pi, d.S, d.S)


def test_compose_matches_decompose():
    rng = np.random.default_rng(31)
    for _ in range(20):
        gen = random_generator(rng, int(rng.integers(2, 12)))
        d = decompose(gen)
        back = compose(d.pi, d.S, d.A)
        assert np.abs(back.q - gen.q).max() <= 1e-12 * np.abs(gen.q).max()


@settings(derandomize=True, deadline=None)
@given(gen=wide_rate_generators())
def test_roundtrip_on_wide_rates(gen):
    back = recompose(decompose(gen))
    assert np.abs(back.q - gen.q).max() <= 1e-12 * np.abs(gen.q).max()


def skewed_birth_death(up, down, n):
    """Birth-death chain with one up-rate and one down-rate: pi_k ~ (up/down)^k."""
    rates = np.zeros((n, n))
    k = np.arange(n - 1)
    rates[k + 1, k] = up
    rates[k, k + 1] = down
    return from_offdiagonal_rates(rates)


@pytest.mark.parametrize(
    "gen",
    # min pi 1.3e-6 on the second: an LU pi divided entrywise misses it
    [random_birth_death(np.random.default_rng(23), 6), skewed_birth_death(0.65, 1.0, 30)],
    ids=["random-6", "skewed-30"],
)
def test_dual_of_reversible_chain_is_identity(gen):
    star = dual(gen)
    np.testing.assert_allclose(star.q, gen.q, atol=1e-13)
    assert np.abs(dual(star).q - gen.q).max() <= 1e-12 * np.abs(gen.q).max()


def test_dual_of_three_cycle_reverses_it():
    reversed_cycle = from_offdiagonal_rates([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    np.testing.assert_allclose(dual(three_cycle()).q, reversed_cycle.q, atol=1e-14)


def test_dual_properties_random():
    rng = np.random.default_rng(29)
    for _ in range(50):
        gen = random_generator(rng, int(rng.integers(2, 15)))
        d = decompose(gen)
        star = dual(gen)
        d_star = decompose(star)
        np.testing.assert_allclose(d_star.pi.p, d.pi.p, atol=1e-12)
        a_scale = max(np.abs(d.A).max(), 1e-300)
        assert np.abs(d_star.A + d.A).max() <= 1e-12 * max(a_scale, np.abs(d.F).max())
        again = dual(star)
        assert np.abs(again.q - gen.q).max() <= 1e-12 * np.abs(gen.q).max()


@settings(derandomize=True, deadline=None)
@given(gen=wide_rate_generators())
def test_dual_on_wide_rates(gen):
    d = decompose(gen)
    star = dual(gen)
    d_star = decompose(star)
    assert np.abs(dual(star).q - gen.q).max() <= 1e-12 * np.abs(gen.q).max()
    assert np.abs(d_star.pi.p - d.pi.p).max() <= 1e-12
    assert np.abs(d_star.A + d.A).max() <= 1e-12 * np.abs(d.F).max()


def test_detailed_balance_two_state_always():
    rng = np.random.default_rng(37)
    for _ in range(10):
        gen = random_generator(rng, 2)
        report = is_detailed_balance(gen)
        assert report.balanced


def test_detailed_balance_three_cycle_fails():
    report = is_detailed_balance(three_cycle())
    assert not report.balanced
    np.testing.assert_allclose(report.max_circulation, 1 / 6, atol=1e-14)
    np.testing.assert_allclose(report.max_pairwise_violation, 1 / 3, atol=1e-14)


def test_detailed_balance_birth_death_holds():
    rng = np.random.default_rng(41)
    for _ in range(10):
        gen = random_birth_death(rng, int(rng.integers(3, 9)))
        assert is_detailed_balance(gen).balanced


def test_decomposition_is_stored_on_the_generator():
    rng = np.random.default_rng(43)
    gen = random_generator(rng, 6)
    d = decompose(gen)
    assert decompose(gen) is d
    assert d.pi is stationary_solve(gen)
    # solved first, then decomposed: the same pi either way round
    gen = random_generator(rng, 6)
    pi = stationary_solve(gen)
    assert decompose(gen).pi is pi


def test_detailed_balance_reuses_the_decomposition(monkeypatch):
    factor = mock.Mock(wraps=scipy.linalg.lu_factor)
    monkeypatch.setattr(scipy.linalg, "lu_factor", factor)
    gen = random_generator(np.random.default_rng(47), 6)
    d = decompose(gen)
    report = is_detailed_balance(gen)
    assert factor.call_count == 1
    assert report.max_circulation == float(np.abs(d.A).max())


def test_refused_decomposition_is_not_stored():
    # unchecked: the rate 1 -> 2 is negative, so pi is positive but F[2, 1]
    # is not; the refusal must come back on every call
    gen = GeneratorMatrix(np.array([
        [-2.0, 1.0, 1.0],
        [1.0, -0.9, 1.0],
        [1.0, -0.1, -2.0],
    ]))
    for _ in range(2):
        with pytest.raises(InvalidFlow, match=r"F\[2,1\]"):
            decompose(gen)
        with pytest.raises(InvalidFlow):
            is_detailed_balance(gen)


def test_flow_invariants_reject_circulation_with_diagonal():
    # hand-built, unchecked: every row and column sums to zero and F has
    # nonnegative off-diagonals, but A carries part of the diagonal
    s = np.array([[-2.0, 2.0], [2.0, -2.0]])
    a = np.array([[1.0, -1.0], [-1.0, 1.0]])
    d = FlowDecomposition(pi=ProbabilityVector(np.array([0.5, 0.5])), F=s + a, S=s, A=a)
    with pytest.raises(NotAntisymmetric, match="nonzero diagonal"):
        _check_flow_invariants(d)


def test_dof_examples():
    assert dof_report(2) == {"dof_pi": 1, "dof_S": 1, "dof_A": 0, "total": 2}
    assert dof_report(3) == {"dof_pi": 2, "dof_S": 3, "dof_A": 1, "total": 6}
    assert dof_report(10) == {"dof_pi": 9, "dof_S": 45, "dof_A": 36, "total": 90}
    with pytest.raises(ValueError):
        dof_report(1)


def test_cycle_decompose_zero_is_empty():
    assert cycle_decompose(np.zeros((4, 4))).cycles == ()


def test_cycle_decompose_three_cycle():
    d = decompose(three_cycle())
    cycles = cycle_decompose(d.A).cycles
    assert len(cycles) == 1
    nodes, weight = cycles[0]
    assert nodes == (0, 1, 2)
    np.testing.assert_allclose(weight, 1 / 6, atol=1e-15)


def test_cycle_decompose_superposition_reconstructs():
    rng = np.random.default_rng(43)
    for _ in range(50):
        n = int(rng.integers(4, 11))
        a, _ = random_circulation(rng, n, n_cycles=3)
        cycles = cycle_decompose(a)
        back = superpose_cycles(cycles, n)
        assert np.abs(back - a).max() <= 1e-14 * max(np.abs(a).max(), 1e-300)


def test_cycle_decompose_rejects_unbalanced():
    with pytest.raises(NotBalanced):
        cycle_decompose(np.array([[0.0, 1.0], [-1.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cycle_decompose_rejects_non_finite(bad):
    a = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])
    a[0, 1] = bad
    for circulation in (a, np.full((3, 3), bad)):
        with pytest.raises(MarkovFlowError, match="finiteness invariant violated"):
            cycle_decompose(circulation)


def test_cycle_decompose_rejects_nonantisymmetric():
    with pytest.raises(NotAntisymmetric):
        cycle_decompose(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_cycle_decompose_on_decomposition_of_random_chain():
    rng = np.random.default_rng(47)
    gen = random_generator(rng, 7)
    d = decompose(gen)
    cycles = cycle_decompose(d.A)
    back = superpose_cycles(cycles, 7)
    assert np.abs(back - d.A).max() <= 1e-13 * np.abs(d.A).max()


def test_cycle_decompose_is_deterministic():
    rng = np.random.default_rng(53)
    a, _ = random_circulation(rng, 8, n_cycles=4)
    first = cycle_decompose(a)
    second = cycle_decompose(a.copy())
    assert first.cycles == second.cycles


def _chains_3_to_40():
    rng = np.random.default_rng(59)
    return [decompose(random_generator(rng, n, density)).A
            for n in range(3, 41) for density in (1.0, 0.2)]


def _dense_120():
    return [decompose(random_generator(np.random.default_rng(61), 120)).A]


def _circulations():
    rng = np.random.default_rng(67)
    return [random_circulation(rng, int(rng.integers(3, 13)), int(rng.integers(1, 7)))[0]
            for _ in range(50)]


@pytest.mark.parametrize("build", [_chains_3_to_40, _dense_120, _circulations],
                         ids=["chains-3-40", "dense-120", "circulations"])
def test_cycle_walk_matches_dfs_reference(build):
    # same cycles, same order, bit-identical weights as restarting the search
    for a in build():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CycleCountWarning)
            walked = cycle_decompose(a).cycles
        assert walked == tuple(dfs_cycle_peel(a, CYCLE_DUST_RTOL))
