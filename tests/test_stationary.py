import re
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from scipy.sparse import csr_array

from markov_flow import (
    GeneratorMatrix,
    decompose,
    discretize_fpe,
    dual,
    fpe_problem,
    from_offdiagonal_rates,
    stationary_solve,
    stationary_tree,
    validate_generator,
)
from markov_flow.errors import MarkovFlowError, SingularBeyondNullity

from helpers import (
    birth_death_pi,
    count_calls,
    descending_birth_death,
    random_generator,
    wide_rate_generators,
)


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


def _wrapper_pi(q):
    """The dense solve through scipy's ``lu_factor``/``lu_solve`` wrappers,
    with the same anchor row and two refinement steps."""
    k = int(np.argmax(np.abs(q.diagonal())))
    m = q.copy()
    m[k, :] = 1.0
    lu = scipy.linalg.lu_factor(m)
    b = np.zeros(q.shape[0])
    b[k] = 1.0
    pi = scipy.linalg.lu_solve(lu, b)
    for _ in range(2):
        pi = pi + scipy.linalg.lu_solve(lu, b - m @ pi)
    return pi / pi.sum()


def test_dense_solve_is_bit_equal_to_the_scipy_wrappers():
    # dgetrf/dgetrs are the routines the wrappers call: same bits
    rng = np.random.default_rng(59)
    for _ in range(200):
        n = int(rng.integers(2, 60))
        edges = rng.random((n, n)) < rng.uniform(0.2, 1.0)
        edges |= np.roll(np.eye(n, dtype=bool), 1, axis=0)
        rates = np.where(edges, 10.0 ** rng.uniform(-4.0, 4.0, (n, n)), 0.0)
        np.fill_diagonal(rates, 0.0)
        gen = from_offdiagonal_rates(rates)
        assert stationary_solve(gen).p.tobytes() == _wrapper_pi(gen.q).tobytes()


@pytest.mark.parametrize("form", [np.array, csr_array], ids=["dense", "csr"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_unvalidated_non_finite_generator_is_refused_by_name(form, value):
    q = random_generator(np.random.default_rng(61), 5).q.copy()
    q[0, 2] = value
    with pytest.raises(MarkovFlowError, match="finiteness invariant violated"):
        stationary_solve(GeneratorMatrix(form(q)))


@pytest.mark.parametrize("form", [np.array, csr_array], ids=["dense", "csr"])
@pytest.mark.parametrize("n", [25, 600])
def test_weights_beyond_double_range_are_named(form, n):
    # pi_(k+1) / pi_k = 1e-20: the weights span 1e-20^(n-1), past the
    # smallest double, on an irreducible chain
    k = np.arange(n - 1)
    rates = np.zeros((n, n))
    rates[k + 1, k] = 1e-20
    rates[k, k + 1] = 1.0
    gen = from_offdiagonal_rates(form(rates))
    with pytest.raises(SingularBeyondNullity) as exc:
        stationary_solve(gen)
    message = str(exc.value)
    assert message.startswith("positivity invariant violated")
    assert "zero relative to max pi" in message
    assert "span more than double precision's range" in message
    if form is np.array:
        # LAPACK's estimate from the solve's factor, at every size
        estimate = re.search(r"condition estimate ([^)]*)\)", message).group(1)
        assert np.isfinite(float(estimate)), message


def test_solution_is_stored_on_the_generator(monkeypatch):
    factor = count_calls(monkeypatch, "markov_flow.stationary", "dgetrf")
    gen = random_generator(np.random.default_rng(13), 7)
    pi = stationary_solve(gen)
    assert stationary_solve(gen) is pi
    assert factor.call_count == 1
    # a twin generator is a new instance: it solves again, to the same bits
    twin = stationary_solve(GeneratorMatrix(gen.q))
    assert factor.call_count == 2
    assert twin.p.tobytes() == pi.p.tobytes()


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


@settings(derandomize=True, deadline=None)
@given(gen=wide_rate_generators())
def test_csr_solve_matches_tree_on_wide_rates(gen):
    # the CSR branch anchors one state and normalizes afterwards
    pi = stationary_solve(GeneratorMatrix(csr_array(gen.q))).p
    ref = stationary_tree(gen).p
    assert np.abs(pi - ref).max() <= 1e-10 * ref.max()
    assert abs(pi.sum() - 1.0) <= 1e-14


def test_tree_is_entrywise_accurate_and_stored_for_dual():
    # min pi 1.4e-6: GTH is accurate relative to every entry, and dual
    # reuses the pi stored on the generator rather than running GTH again
    gen = descending_birth_death(np.random.default_rng(2), 25, 5.0)
    ref = birth_death_pi(gen)
    assert ref.min() < 2e-6
    pi = stationary_tree(gen)
    assert np.abs(pi.p / ref - 1.0).max() <= 1e-14
    assert stationary_tree(gen) is pi
    with mock.patch("markov_flow.stationary.as_dense", side_effect=AssertionError):
        star = dual(gen)
    assert np.abs(star.q - gen.q).max() <= 1e-13 * np.abs(gen.q).max()


def test_tree_weights_beyond_double_range_stay_finite():
    # pi_i ~ e^(14.6 i) spans e^715, so back-substituting from x[0] = 1
    # overflows unless the weights are rescaled on the way
    n = 50
    k = np.arange(n - 1)
    rates = np.zeros((n, n))
    rates[k + 1, k] = np.exp(14.6)
    rates[k, k + 1] = 1.0
    gen = from_offdiagonal_rates(rates)
    pi = stationary_tree(gen).p
    assert np.isfinite(pi).all() and pi.min() > 0.0
    ref = birth_death_pi(gen)
    normal = ref >= np.finfo(float).tiny
    assert normal.sum() >= n - 2
    np.testing.assert_allclose(pi[normal], ref[normal], rtol=1e-12, atol=0.0)
    closed = np.exp(14.6 * np.arange(n) - 14.6 * (n - 1))
    np.testing.assert_allclose(pi[normal], (closed / closed.sum())[normal], rtol=1e-12)
    # the chain is reversible, so it is its own dual
    assert np.abs(dual(gen).q - gen.q).max() <= 1e-12 * np.abs(gen.q).max()


def test_reversible_csr_pi_is_entrywise_accurate(monkeypatch):
    # min pi near 1e-20: the spanning-tree product is accurate relative to
    # every entry, where the anchored LU was only accurate relative to max pi
    factor = count_calls(monkeypatch, "scipy.sparse.linalg", "splu")
    for seed in range(5):
        gen = descending_birth_death(np.random.default_rng(seed), 40, 20)
        ref = birth_death_pi(gen)
        pi = stationary_solve(GeneratorMatrix(csr_array(gen.q))).p
        assert np.abs(pi / ref - 1.0).max() <= 1e-13
        assert abs(pi.sum() - 1.0) <= 1e-14
    assert factor.call_count == 0


def test_reversible_csr_fpe_operator_balances_every_edge():
    # gamma = 0 on [-4, 4]^2: the Gibbs weights fall to 2.4e-8 of their peak
    gen = discretize_fpe(fpe_problem(((-4.0, 4.0), (-4.0, 4.0)), 16, 16, "quadratic"))
    pi = stationary_solve(gen).p
    flow = gen.q.toarray() * pi[np.newaxis, :]
    edges = (flow > 0.0) & ~np.eye(gen.n, dtype=bool)
    assert np.array_equal(edges, edges.T)
    gap = np.abs(flow - flow.T)[edges] / np.maximum(flow, flow.T)[edges]
    assert gap.max() <= 1e-12


def _one_way_chain():
    # a birth-death chain plus the edge 0 -> 2 without its reverse
    rates = np.zeros((5, 5))
    k = np.arange(4)
    rates[k + 1, k] = 1.0
    rates[k, k + 1] = 2.0
    rates[2, 0] = 0.5
    return csr_array(rates)


@pytest.mark.parametrize("rates", [
    lambda: csr_array(np.roll(np.eye(3), 1, axis=0)),
    lambda: discretize_fpe(fpe_problem(((-3.0, 3.0), (-3.0, 3.0)), 16, 16,
                                       "quadratic", "identity", 0.5)).q,
    _one_way_chain,
], ids=["3-cycle", "twisted-fpe", "one-way-edge"])
def test_irreversible_csr_chain_is_factored_once(rates, monkeypatch):
    gen = from_offdiagonal_rates(rates())
    factor = count_calls(monkeypatch, "scipy.sparse.linalg", "splu")
    pi = stationary_solve(gen).p
    assert factor.call_count == 1
    assert np.abs(gen.q @ pi).max() <= 1e-10 * np.abs(gen.q).max()


def test_underflowing_tree_weights_fall_back_to_splu(monkeypatch):
    # pi_i ~ e^(14.6 i) over 60 states spans e^861: the lightest tree weight
    # is 0 in double precision, and SuperLU refuses the chain as before
    n = 60
    k = np.arange(n - 1)
    rates = np.zeros((n, n))
    rates[k + 1, k] = np.exp(14.6)
    rates[k, k + 1] = 1.0
    gen = from_offdiagonal_rates(csr_array(rates))
    factor = count_calls(monkeypatch, "scipy.sparse.linalg", "splu")
    with pytest.raises(SingularBeyondNullity, match="positivity invariant violated"):
        stationary_solve(gen)
    assert factor.call_count == 1
