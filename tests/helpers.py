"""Shared builders for randomized test sweeps, and the tests' oracles."""

import importlib
import math
from unittest import mock

import mpmath
import numpy as np
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from markov_flow import (
    GeneratorMatrix,
    ProbabilityVector,
    Trajectory,
    from_offdiagonal_rates,
    probability_vector,
)
from markov_flow.core import as_dense
from markov_flow.errors import MarkovFlowError


def random_generator(rng, n, density=1.0) -> GeneratorMatrix:
    """Random irreducible generator: positive rates, optional sparsity.

    A ring 0 -> 1 -> ... -> 0 is always kept so sparse draws stay
    irreducible.
    """
    rates = rng.uniform(0.2, 2.0, (n, n))
    if density < 1.0:
        keep = rng.random((n, n)) < density
        ring = np.zeros((n, n), dtype=bool)
        for u in range(n):
            ring[(u + 1) % n, u] = True
        rates *= keep | ring
    np.fill_diagonal(rates, 0.0)
    return from_offdiagonal_rates(rates)


@st.composite
def wide_rate_generators(draw) -> GeneratorMatrix:
    """Hypothesis strategy: irreducible generators with n in 2..30.

    Irreducible by the ring u -> u+1; the other edges and log-uniform rates
    spanning four decades (10^-2 to 10^2) are drawn.
    """
    n = draw(st.integers(2, 30))
    exponents = draw(arrays(np.float64, (n, n), elements=st.floats(-2.0, 2.0)))
    edges = draw(arrays(np.bool_, (n, n)))
    ring = np.roll(np.eye(n, dtype=bool), 1, axis=0)
    rates = np.where(edges | ring, 10.0 ** exponents, 0.0)
    np.fill_diagonal(rates, 0.0)
    return from_offdiagonal_rates(rates)


def random_probability(rng, n, concentrated=False):
    if concentrated:
        p = np.zeros(n)
        p[rng.integers(n)] = 1.0
        return probability_vector(p)
    return probability_vector(rng.dirichlet(np.ones(n)))


def random_birth_death(rng, n) -> GeneratorMatrix:
    """Tridiagonal chain with arbitrary positive rates: always reversible."""
    rates = np.zeros((n, n))
    for u in range(n - 1):
        rates[u + 1, u] = rng.uniform(0.2, 2.0)
        rates[u, u + 1] = rng.uniform(0.2, 2.0)
    return from_offdiagonal_rates(rates)


def descending_birth_death(rng, n, decades) -> GeneratorMatrix:
    """Birth-death chain whose stationary weights fall by about ``decades``
    powers of ten from state 0 to state ``n - 1``.

    Up-rates are uniform in [0.2, 2); each down-rate is its up-rate times
    ``10^(decades / (n - 1))`` and a factor uniform in [0.8, 1.25).
    """
    up = rng.uniform(0.2, 2.0, n - 1)
    down = up * 10.0 ** (decades / (n - 1)) * rng.uniform(0.8, 1.25, n - 1)
    k = np.arange(n - 1)
    rates = np.zeros((n, n))
    rates[k + 1, k] = up
    rates[k, k + 1] = down
    return from_offdiagonal_rates(rates)


def birth_death_pi(gen: GeneratorMatrix) -> np.ndarray:
    """Stationary distribution of a birth-death chain in 50-digit arithmetic.

    The closed form ``pi_(i+1) / pi_i = q[i+1, i] / q[i, i+1]``, evaluated by
    mpmath on the exact binary values of the rates and rounded once.
    """
    with mpmath.workdps(50):
        weights = [mpmath.mpf(1)]
        for i in range(gen.n - 1):
            weights.append(weights[-1] * mpmath.mpf(float(gen.q[i + 1, i]))
                           / mpmath.mpf(float(gen.q[i, i + 1])))
        total = mpmath.fsum(weights)
        return np.array([float(w / total) for w in weights])


def random_circulation(rng, n, n_cycles, weights=None):
    """Antisymmetric zero-row-sum matrix built as a known cycle superposition.

    Each cycle's weight is uniform in [0.1, 1), or drawn from ``weights``.
    """
    a = np.zeros((n, n))
    cycles = []
    for _ in range(n_cycles):
        length = int(rng.integers(3, n + 1))
        nodes = rng.permutation(n)[:length]
        weight = float(rng.uniform(0.1, 1.0) if weights is None else rng.choice(weights))
        for u, v in zip(nodes, np.roll(nodes, -1)):
            a[v, u] += weight
            a[u, v] -= weight
        cycles.append((tuple(int(x) for x in nodes), weight))
    return a, cycles


def dfs_cycle_peel(A, dust_rtol):
    """Reference cycle peeler: restart a depth-first search for every cycle.

    Greedy min-edge peeling on the positive part of ``A`` (edge ``u -> v``
    carries ``A[v, u]``): search for a directed cycle from the lowest start
    node with an out-edge, depth first with ascending neighbors, subtract
    its minimum edge weight, zero the edges left at or below
    ``dust_rtol * max|A|`` and search again from scratch.  Slow but
    obviously greedy; the production walk must return the same list.
    """
    A = np.asarray(A, dtype=float)
    tiny = dust_rtol * np.abs(A).max()
    w = np.where(A > tiny, A, 0.0).T.copy()  # w[u, v] = weight of edge u -> v
    cycles = []
    while True:
        nodes = _find_cycle(w)
        if nodes is None:
            return cycles
        edges = list(zip(nodes, nodes[1:] + nodes[:1]))
        weight = min(w[u, v] for u, v in edges)
        for u, v in edges:
            left = w[u, v] - weight
            w[u, v] = left if left > tiny else 0.0
        cycles.append((tuple(nodes), float(weight)))


def _find_cycle(w):
    """Lowest-index-first depth-first search for a directed cycle in the
    support of ``w``; returns the node list or None."""
    for start in range(w.shape[0]):
        if not (w[start] > 0.0).any():
            continue
        stack = [start]
        on_path = {start: 0}
        iters = [iter(np.flatnonzero(w[start] > 0.0).tolist())]
        while stack:
            try:
                nxt = next(iters[-1])
            except StopIteration:
                del on_path[stack.pop()]
                iters.pop()
                continue
            if nxt in on_path:
                return stack[on_path[nxt]:]
            stack.append(nxt)
            on_path[nxt] = len(stack) - 1
            iters.append(iter(np.flatnonzero(w[nxt] > 0.0).tolist()))
    return None


def count_calls(monkeypatch, module, name):
    """Wrap ``name`` in the module ``module`` in a mock that counts its calls."""
    target = importlib.import_module(module)
    calls = mock.Mock(wraps=getattr(target, name))
    monkeypatch.setattr(target, name, calls)
    return calls


class StepTooLarge(MarkovFlowError):
    """Fixed integration step exceeds the stability guard."""


def rk4_integrate(gen: GeneratorMatrix, p0: ProbabilityVector,
                  t_end: float, h: float) -> Trajectory:
    """Classical fixed-step RK4 integration of the master equation.

    The integrator that shares no code with ``evolve``, for cross-checks.
    The step must satisfy ``h <= 0.1/max|q_ii|``.  Rows are clipped at zero
    and renormalized, as ``evolve`` returns its own.
    """
    max_diag = np.abs(gen.q.diagonal()).max()
    if h <= 0.0:
        raise ValueError(f"step must be positive, got {h!r}")
    if h > 0.1 / max_diag:
        raise StepTooLarge(
            f"step {h!r} exceeds stability guard {0.1 / max_diag:.6g} "
            "(0.1/max|q_ii|)"
        )
    steps = max(1, math.ceil(t_end / h))
    h_eff = t_end / steps
    q = as_dense(gen.q)
    raw = np.empty((steps + 1, gen.n))
    raw[0] = p0.p
    p = p0.p.copy()
    for k in range(steps):
        k1 = q @ p
        k2 = q @ (p + 0.5 * h_eff * k1)
        k3 = q @ (p + 0.5 * h_eff * k2)
        k4 = q @ (p + h_eff * k3)
        p = p + (h_eff / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        raw[k + 1] = p
    states = np.clip(raw, 0.0, None)
    states /= states.sum(axis=1, keepdims=True)
    return Trajectory(times=np.linspace(0.0, t_end, steps + 1), states=states,
                      traces={}, monotone_violations={})
