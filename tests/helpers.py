"""Shared builders for randomized test sweeps."""

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from markov_flow import GeneratorMatrix, from_offdiagonal_rates, probability_vector


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
