"""Split the stationary flow of a chain into symmetric and circulating parts.

For a valid generator the stationary flow matrix ``F[i, j] = q[i, j] * pi[j]``
has zero row and column sums.  Its symmetric part ``S = (F + F^T)/2``
carries the reversible (detailed-balance) dynamics and its antisymmetric
part ``A = (F - F^T)/2`` carries the net circulation around cycles.  The
triple ``(pi, S, A)`` determines the generator exactly via
``q = (S + A) @ diag(pi)^-1`` and separates three independent degree-of-
freedom budgets: ``n-1`` for ``pi``, ``n(n-1)/2`` for ``S`` and
``(n-1)(n-2)/2`` for ``A``.

A CSR generator gives CSR ``F``, ``S`` and ``A``: ``F`` on the generator's
pattern, ``S`` and ``A`` from one transpose of it, and the invariants are
checked on their arrays as they are.  The other operations here take their
operands through ``as_dense``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    FLOW_RTOL,
    GeneratorMatrix,
    ProbabilityVector,
    _check_positive,
    _check_square,
    _checked,
    _finite_scale,
    _frozen,
    _issparse,
    _least_offdiagonal,
    _max_abs,
    _read_numbers,
    _sums,
    as_dense,
    from_offdiagonal_rates,
    probability_vector,
)
from .errors import (
    CycleCountWarning,
    InvalidFlow,
    NotAntisymmetric,
    NotBalanced,
    NotSymmetric,
    RowSumViolation,
)
from .stationary import RESIDUAL_RTOL, stationary_solve, stationary_tree

# cycle peeling drops residual edges at or below this fraction of max|A|
CYCLE_DUST_RTOL = 1e-15


@dataclass(frozen=True, eq=False)
class FlowDecomposition:
    """Stationary distribution plus symmetric/antisymmetric flow split.

    ``F = S + A`` holds exactly by construction; ``S`` is symmetric
    negative semidefinite with zero row sums, ``A`` is antisymmetric with
    zero row sums, and off-diagonal entries of ``F`` are nonnegative.
    The parts are dense or CSR, as the generator was.  Instances produced by
    :func:`decompose` satisfy all invariants; direct construction is
    unchecked.
    """

    pi: ProbabilityVector
    F: np.ndarray
    S: np.ndarray
    A: np.ndarray

    def __post_init__(self):
        for name in ("F", "S", "A"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))

    @property
    def n(self) -> int:
        return self.F.shape[0]


@dataclass(frozen=True, eq=False)
class CycleDecomposition:
    """Circulation expressed as a superposition of weighted directed cycles.

    Each entry is ``(nodes, weight)`` where ``nodes = (v0, v1, ..., vk)``
    stands for the cycle v0 -> v1 -> ... -> vk -> v0 and ``weight > 0`` is
    the flow carried around it.
    """

    cycles: tuple


def decompose(gen: GeneratorMatrix) -> FlowDecomposition:
    """Decompose a valid generator into ``(pi, F, S, A)``.

    ``pi`` is :func:`stationary_solve`'s, the object stored on ``gen``.  The
    decomposition is stored on ``gen`` once every flow invariant has passed,
    so every later call returns the same :class:`FlowDecomposition`; a call
    that raises stores nothing.
    """
    if gen._decomposition is not None:
        return gen._decomposition
    pi = stationary_solve(gen)
    F = _flow(gen.q, pi.p)
    FT = F.T.tocsr() if _issparse(F) else F.T
    S = (F + FT) / 2.0
    A = (F - FT) / 2.0
    d = FlowDecomposition(pi=pi, F=F, S=S, A=A)
    _check_flow_invariants(d)
    object.__setattr__(gen, "_decomposition", d)
    return d


def _flow(q, pi: np.ndarray):
    """The flow matrix ``F[i, j] = q[i, j] * pi[j]``: dense, or CSR on the
    pattern of a CSR ``q``."""
    if _issparse(q):
        from scipy.sparse import csr_array

        return csr_array((q.data * pi[q.indices], q.indices, q.indptr),
                         shape=q.shape)
    return q * pi[np.newaxis, :]


def _check_flow_invariants(d: FlowDecomposition):
    F, S, A = d.F, d.S, d.A
    scale = max(_max_abs(F), 1e-300)
    tol = FLOW_RTOL * scale
    least, i, j = _least_offdiagonal(F)
    if least < -tol:
        raise InvalidFlow(
            f"flow invariant violated: F[{i},{j}] = {least:.3g} < 0"
        )
    for name, m in (("F", F), ("S", S), ("A", A)):
        worst = np.abs(np.concatenate((_sums(m, axis=1), _sums(m, axis=0)))).max()
        if worst > tol:
            raise RowSumViolation(
                f"zero-sum invariant violated for {name}: worst row/column sum "
                f"{worst:.3g} exceeds {tol:.3g}"
            )
    # antisymmetry puts all of F's diagonal in S
    if np.abs(A.diagonal()).max() != 0.0:
        raise NotAntisymmetric(
            "antisymmetry invariant violated: A has a nonzero diagonal"
        )
    # Gershgorin: symmetric + zero row sums + nonnegative off-diagonals
    # pins every eigenvalue of S in [2*min(diag), 0]
    least, _, _ = _least_offdiagonal(S)
    if least < -tol:
        raise InvalidFlow(
            f"symmetric-flow positivity violated: min off-diagonal S {least:.3g}"
        )


def recompose(d: FlowDecomposition) -> GeneratorMatrix:
    """Rebuild the generator ``(S + A) @ diag(pi)^-1`` from a decomposition."""
    return compose(d.pi, d.S, d.A)


def compose(pi, S, A) -> GeneratorMatrix:
    """Construct a generator with stationary distribution ``pi`` from flow parts.

    Accepts exactly what :func:`decompose` checks: once ``S`` is symmetric
    and ``A`` antisymmetric, ``F = S + A`` and its parts go through the same
    flow-invariant checks, with their one tolerance ``FLOW_RTOL * max|F|``.
    A row-sum error in a part is refused as "zero-sum invariant violated
    for F", a too-strong circulation as "flow invariant violated: F[i,j]".

    Parameters
    ----------
    pi : ProbabilityVector or array_like
        Strictly positive, normalized target stationary distribution.
    S : array_like
        Symmetric, zero row sums, nonnegative off-diagonals.
    A : array_like
        Antisymmetric with a zero diagonal, zero row sums, and ``F`` must
        have nonnegative off-diagonals: a too-strong circulation is refused
        rather than projected back, because any repair would change ``pi``.

    An entry of ``S`` or ``A`` that is not a number raises ``ValueError``,
    as does a shape that does not match ``pi``.
    """
    if not isinstance(pi, ProbabilityVector):
        pi = probability_vector(pi)
    _check_positive(pi.p)
    S = _read_numbers(as_dense(S), "S", "a square array of numbers")
    A = _read_numbers(as_dense(A), "A", "a square array of numbers")
    # the circulation may be round-off dust relative to the symmetric part
    # (2-state chains, reversible chains), so both checks share one scale
    flow_scale = max(_finite_scale(S, "S"), _finite_scale(A, "A"), 1e-300)
    n = pi.n
    if S.shape != (n, n) or A.shape != (n, n):
        raise ValueError(
            f"shape mismatch: pi has {n} states, S is {S.shape}, A is {A.shape}"
        )
    if np.abs(S - S.T).max() > FLOW_RTOL * flow_scale:
        raise NotSymmetric(
            f"symmetry invariant violated: max|S - S^T| = {np.abs(S - S.T).max():.3g}"
        )
    if np.abs(A + A.T).max() > FLOW_RTOL * flow_scale:
        raise NotAntisymmetric(
            f"antisymmetry invariant violated: max|A + A^T| = {np.abs(A + A.T).max():.3g}"
        )
    d = FlowDecomposition(pi=pi, F=S + A, S=S, A=A)
    _check_flow_invariants(d)
    # q[i, j] = F[i, j] / pi_j; round-off negatives were vetted above
    q = np.clip(d.F, 0.0, None) / pi.p[np.newaxis, :]
    np.fill_diagonal(q, np.diag(d.F) / pi.p)
    gen = _checked(q)
    residual = np.abs(gen.q @ pi.p).max()
    if residual > RESIDUAL_RTOL * max(np.abs(gen.q).max(), 1e-300):
        raise RowSumViolation(
            f"stationarity invariant violated: max|q @ pi| = {residual:.3g}"
        )
    return gen


def dual(gen: GeneratorMatrix) -> GeneratorMatrix:
    """Time-reversed chain: same stationary distribution, negated circulation.

    The rates ``F^T @ diag(pi)^-1`` of ``(pi, S, -A)``, diagonal recomputed.
    Each column divides by its ``pi_j``, so ``pi`` is GTH's (``stationary_tree``),
    accurate relative to every entry, not only to ``max pi`` as LU's is.
    Raises :class:`PositivityViolation` when a weight of ``pi`` underflows
    to zero, which takes rates spanning more than double precision's range.
    """
    pi = stationary_tree(gen).p
    _check_positive(pi)
    return from_offdiagonal_rates(as_dense(_flow(gen.q, pi)).T / pi)


@dataclass(frozen=True)
class DetailedBalanceReport:
    balanced: bool
    max_circulation: float        # max|A|, absolute
    max_pairwise_violation: float  # max over i<j of |q_ij pi_j - q_ji pi_i|
    flow_scale: float             # max|F|, the reference scale


def is_detailed_balance(gen: GeneratorMatrix) -> DetailedBalanceReport:
    """Check reversibility: the chain is balanced iff ``max|A| <= FLOW_RTOL * max|F|``.

    ``max_pairwise_violation`` is the largest pairwise flux mismatch
    ``|q[i,j] pi_j - q[j,i] pi_i|``, returned as ``2 max|A|``: ``A`` is
    ``(F - F^T) / 2`` and halving a normal number is exact, so this is the
    same figure in the paper's pairwise terms, not a second check.  Both read
    :func:`decompose`'s stored split, so after ``decompose(gen)`` this
    solves nothing.
    """
    d = decompose(gen)
    max_a = float(abs(d.A).max())
    scale = float(abs(d.F).max())
    return DetailedBalanceReport(
        balanced=bool(max_a <= FLOW_RTOL * scale),
        max_circulation=max_a,
        max_pairwise_violation=2.0 * max_a,
        flow_scale=scale,
    )


def dof_report(n: int) -> dict:
    """Degree-of-freedom budget of an n-state generator and its parts."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return {
        "dof_pi": n - 1,
        "dof_S": n * (n - 1) // 2,
        "dof_A": (n - 1) * (n - 2) // 2,
        "total": n * n - n,
    }


def cycle_decompose(A) -> CycleDecomposition:
    """Peel a circulation matrix into weighted directed cycles.

    Greedy min-edge peeling on the positive part of ``A`` (edge ``u -> v``
    carries ``A[v, u]``) in one path-and-cycle walk (Ahuja, Magnanti & Orlin
    1993, section 3.5): from each start node in ascending order, extend the
    path to its last node's lowest successor; on closing a cycle, subtract
    its minimum edge weight and delete edges left at or below
    ``CYCLE_DUST_RTOL * max|A|``; pop a node that dust left without an
    out-edge and delete the edge into it.  The cycles come in the order of a
    lowest-start, ascending-neighbor depth-first search restarted after
    every peel, and superpose to ``A`` up to the dust.

    Every edge the walk deletes is its tail's lowest remaining out-edge: a
    path edge, a cycle's closing edge or the edge into a popped dead end.
    So each node keeps its successors in ascending order with a head index,
    and a deletion moves the head.  Only head edges are ever reduced, so a
    node's state is its head edge's successor ``nxt[u]`` (-1 once none is
    left) and residual ``cur[u]``, reloaded from the edge lists only when the
    head moves.  A node ``v`` is on the path iff ``path[position[v]] == v``,
    so neither a peel nor a pop resets positions.  After a peel the path is
    cut back to the tail of the first cycle edge, in cycle order, that was
    deleted: the nodes before it kept their lowest edge, so cutting back to
    the cycle's first node would only step over the same nodes again.

    The result is not canonical — many exact superpositions exist — but it
    is reproducible.  A count above the circulation DOF ``(n-1)(n-2)/2``
    triggers :class:`CycleCountWarning`, not an error.
    """
    A = _read_numbers(as_dense(A), "the circulation", "a square array of numbers")
    _check_square(A, "circulation")
    n = A.shape[0]
    scale = _finite_scale(A, "the circulation")
    if scale == 0.0:
        return CycleDecomposition(cycles=())
    if np.abs(A + A.T).max() > 1e-12 * scale:
        raise NotAntisymmetric(
            f"antisymmetry invariant violated: max|A + A^T| = {np.abs(A + A.T).max():.3g}"
        )
    row_sums = np.abs(A.sum(axis=1)).max()
    if row_sums > 1e-12 * n * scale:
        raise NotBalanced(
            f"balance invariant violated: worst net node flow {row_sums:.3g}"
        )

    tiny = CYCLE_DUST_RTOL * scale
    # the edges u -> v as rows of A.T in ascending v, each row closed by a
    # sentinel edge to -1: succ[e] is edge e's head, weight[e] its weight,
    # head[u] u's lowest remaining out-edge
    w = np.hstack((A.T, np.full((n, 1), np.inf)))
    tails, succ = np.nonzero(w > tiny)
    weight = w[tails, succ].tolist()
    succ = np.where(succ < n, succ, -1).tolist()
    head = np.searchsorted(tails, np.arange(n)).tolist()
    nxt, cur = [succ[h] for h in head], [weight[h] for h in head]
    position = [0] * n
    cycles = []
    for start in range(n):
        path = [start]
        position[start] = 0
        u = start
        while True:
            v = nxt[u]
            if v < 0:
                path.pop()
                if not path:
                    break
                u = path[-1]
                h = head[u] = head[u] + 1
                nxt[u], cur[u] = succ[h], weight[h]
            elif (first := position[v]) < len(path) and path[first] == v:
                nodes = path[first:]
                least = min(map(cur.__getitem__, nodes))
                cut = -1
                for x in nodes:
                    left = cur[x] - least
                    if left > tiny:
                        cur[x] = left
                        continue
                    h = head[x] = head[x] + 1
                    nxt[x], cur[x] = succ[h], weight[h]
                    if cut < 0:
                        cut = position[x]
                cycles.append((tuple(nodes), least))
                del path[cut + 1:]
                u = path[-1]
            else:
                position[v] = len(path)
                path.append(v)
                u = v

    bound = (n - 1) * (n - 2) // 2
    if len(cycles) > bound:
        warnings.warn(
            f"{len(cycles)} cycles exceed the circulation DOF bound {bound}",
            CycleCountWarning,
        )
    return CycleDecomposition(cycles=tuple(cycles))


def superpose_cycles(cycles: CycleDecomposition, n: int) -> np.ndarray:
    """Rebuild the antisymmetric circulation matrix from a cycle list."""
    outside = [v for nodes, _ in cycles.cycles for v in nodes if not 0 <= v < n]
    if outside:
        raise ValueError(
            f"size invariant violated: node {outside[0]} is not one of the {n} states"
        )
    A = np.zeros((n, n))
    for nodes, weight in cycles.cycles:
        for u, v in zip(nodes, nodes[1:] + nodes[:1]):
            A[v, u] += weight
            A[u, v] -= weight
    return A
