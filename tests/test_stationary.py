import numpy as np
import pytest
from hypothesis import given, settings

from markov_flow import (
    GeneratorMatrix,
    from_offdiagonal_rates,
    stationary_solve,
    stationary_tree,
    validate_generator,
)
from markov_flow.errors import SingularBeyondNullity

from helpers import random_generator, wide_rate_generators


def test_two_state_balance():
    gen = validate_generator([[-1.0, 2.0], [1.0, -2.0]])
    np.testing.assert_allclose(stationary_solve(gen).p, [2 / 3, 1 / 3], atol=1e-14)
    np.testing.assert_allclose(stationary_tree(gen).p, [2 / 3, 1 / 3], atol=1e-15)


def test_three_cycle_uniform():
    gen = from_offdiagonal_rates([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    np.testing.assert_allclose(stationary_solve(gen).p, np.full(3, 1 / 3), atol=1e-14)
    np.testing.assert_allclose(stationary_tree(gen).p, np.full(3, 1 / 3), atol=1e-15)


def test_residual_contract():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 30))
        gen = random_generator(rng, n, density=float(rng.uniform(0.4, 1.0)))
        pi = stationary_solve(gen)
        assert pi.p.min() > 0.0
        assert abs(pi.p.sum() - 1.0) <= 1e-14
        residual = np.abs(gen.q @ pi.p).max()
        assert residual <= 1e-10 * np.abs(gen.q).max()


def test_cross_method_agreement():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(3, 8))
        gen = random_generator(rng, n, density=float(rng.uniform(0.5, 1.0)))
        diff = np.abs(stationary_solve(gen).p - stationary_tree(gen).p).max()
        worst = max(worst, diff)
    assert worst <= 1e-10, worst


def test_time_rescaling_invariance():
    rng = np.random.default_rng(9)
    gen = random_generator(rng, 6)
    fast = validate_generator(37.0 * gen.q)
    np.testing.assert_allclose(
        stationary_solve(gen).p, stationary_solve(fast).p, atol=1e-12
    )


@settings(derandomize=True, deadline=None)
@given(gen=wide_rate_generators())
def test_tree_matches_solve_on_wide_rates(gen):
    pi = stationary_tree(gen).p
    np.testing.assert_allclose(pi, stationary_solve(gen).p, rtol=1e-10, atol=0.0)
    assert pi.min() > 0.0
    assert abs(pi.sum() - 1.0) <= 1e-14


def test_tree_has_no_size_cap():
    rng = np.random.default_rng(1)
    gen = random_generator(rng, 10)
    np.testing.assert_allclose(
        stationary_tree(gen).p, stationary_solve(gen).p, rtol=1e-10, atol=0.0
    )


METHODS = pytest.mark.parametrize(
    "method", [stationary_solve, stationary_tree], ids=["solve", "tree"]
)


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
@METHODS
def test_singular_detection_on_unvalidated_input(method):
    # two closed blocks: null space is two-dimensional; the direct
    # constructor skips validation, so the solver must catch it
    q = np.array([
        [-1.0, 2.0, 0.0, 0.0],
        [1.0, -2.0, 0.0, 0.0],
        [0.0, 0.0, -3.0, 1.0],
        [0.0, 0.0, 3.0, -1.0],
    ])
    with pytest.raises(SingularBeyondNullity):
        method(GeneratorMatrix(q))


@METHODS
def test_absorbing_unvalidated_input(method):
    q = np.array([[-1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(SingularBeyondNullity):
        method(GeneratorMatrix(q))
