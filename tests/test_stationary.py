from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from scipy.sparse import csr_array

from markov_flow import (
    GeneratorMatrix,
    decompose,
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


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
@pytest.mark.parametrize("q, invariant", [
    ([[-1.0, 2.0, 0.0, 0.0], [1.0, -2.0, 0.0, 0.0],
      [0.0, 0.0, -3.0, 1.0], [0.0, 0.0, 3.0, -1.0]], "nullity"),
    ([[-1.0, 0.0], [1.0, 0.0]], "positivity"),
], ids=["two-blocks", "absorbing"])
def test_csr_singular_input_fails_like_dense(q, invariant):
    # the sparse LU refuses the two-block system outright where LAPACK
    # returns a zero pivot: both name the same invariant
    for form in (np.array(q), csr_array(q)):
        with pytest.raises(SingularBeyondNullity) as exc:
            stationary_solve(GeneratorMatrix(form))
        assert str(exc.value).startswith(f"{invariant} invariant violated")


def test_solution_is_stored_on_the_generator(monkeypatch):
    factor = mock.Mock(wraps=scipy.linalg.lu_factor)
    monkeypatch.setattr(scipy.linalg, "lu_factor", factor)
    gen = random_generator(np.random.default_rng(13), 7)
    pi = stationary_solve(gen)
    assert stationary_solve(gen) is pi
    assert factor.call_count == 1
    # a twin generator is a new instance: it solves again, to the same bits
    twin = stationary_solve(GeneratorMatrix(gen.q))
    assert factor.call_count == 2
    assert twin.p.tobytes() == pi.p.tobytes()


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
@pytest.mark.parametrize("form", [np.array, csr_array], ids=["dense", "csr"])
def test_refused_solve_is_not_stored(form):
    gen = GeneratorMatrix(form([
        [-1.0, 2.0, 0.0, 0.0],
        [1.0, -2.0, 0.0, 0.0],
        [0.0, 0.0, -3.0, 1.0],
        [0.0, 0.0, 3.0, -1.0],
    ]))
    for _ in range(2):
        with pytest.raises(SingularBeyondNullity):
            stationary_solve(gen)
        with pytest.raises(SingularBeyondNullity):
            decompose(gen)


def test_csr_solve_matches_dense():
    rng = np.random.default_rng(11)
    for n in (2, 5, 30):
        gen = random_generator(rng, n)
        sparse = stationary_solve(GeneratorMatrix(csr_array(gen.q))).p
        np.testing.assert_allclose(sparse, stationary_solve(gen).p, rtol=1e-12)
