"""Split the stationary flow of a chain into symmetric and circulating parts.

For a valid generator the stationary flow matrix ``F[i, j] = q[i, j] * pi[j]``
has zero row and column sums.  Its symmetric part ``S = (F + F^T)/2``
carries the reversible (detailed-balance) dynamics and its antisymmetric
part ``A = (F - F^T)/2`` carries the net circulation around cycles.  The
triple ``(pi, S, A)`` determines the generator exactly via
``q = (S + A) @ diag(pi)^-1`` and separates three independent degree-of-
freedom budgets: ``n-1`` for ``pi``, ``n(n-1)/2`` for ``S`` and
``(n-1)(n-2)/2`` for ``A``.

A CSR generator gives CSR ``F``, ``S`` and ``A``; the invariants are checked
on them as they are.  The other operations here take their operands through
``as_dense``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    GeneratorMatrix,
    ProbabilityVector,
    _check_positive,
    _finite_scale,
    _frozen,
    _least_offdiagonal,
    as_dense,
    from_offdiagonal_rates,
    probability_vector,
    validate_generator,
)
from .errors import (
    CycleCountWarning,
    InvalidFlow,
    MarkovFlowError,
    NotAntisymmetric,
    NotBalanced,
    NotSymmetric,
    RowSumViolation,
)
from .stationary import stationary_solve, stationary_tree

FLOW_RTOL = 1e-12
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
    F = gen.q * pi.p[np.newaxis, :]
    S = (F + F.T) / 2.0
    A = (F - F.T) / 2.0
    d = FlowDecomposition(pi=pi, F=F, S=S, A=A)
    _check_flow_invariants(d)
    object.__setattr__(gen, "_decomposition", d)
    return d


def _check_flow_invariants(d: FlowDecomposition):
    F, S, A = d.F, d.S, d.A
    scale = max(abs(F).max(), 1e-300)
    tol = FLOW_RTOL * scale
    least, i, j = _least_offdiagonal(F)
    if least < -tol:
        raise InvalidFlow(
            f"flow invariant violated: F[{i},{j}] = {least:.3g} < 0"
        )
    for name, m in (("F", F), ("S", S), ("A", A)):
        worst_row = np.abs(m.sum(axis=1)).max()
        worst_col = np.abs(m.sum(axis=0)).max()
        if max(worst_row, worst_col) > tol:
            raise RowSumViolation(
                f"zero-sum invariant violated for {name}: worst row/column sum "
                f"{max(worst_row, worst_col):.3g} exceeds {tol:.3g}"
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

    Parameters
    ----------
    pi : ProbabilityVector or array_like
        Strictly positive, normalized target stationary distribution.
    S : array_like
        Symmetric, zero row sums, nonnegative off-diagonals.
    A : array_like
        Antisymmetric, zero row sums.  Feasibility additionally requires
        ``S + A`` to have nonnegative off-diagonals; a too-strong
        circulation raises :class:`InvalidFlow` rather than being silently
        projected back, because any repair would change ``pi``.
    """
    if not isinstance(pi, ProbabilityVector):
        pi = probability_vector(pi)
    _check_positive(pi.p)
    S = np.asarray(as_dense(S), dtype=float)
    A = np.asarray(as_dense(A), dtype=float)
    n = pi.n
    if S.shape != (n, n) or A.shape != (n, n):
        raise ValueError(
            f"shape mismatch: pi has {n} states, S is {S.shape}, A is {A.shape}"
        )

    # the circulation may be round-off dust relative to the symmetric part
    # (2-state chains, reversible chains), so all tolerances share one scale
    flow_scale = max(np.abs(S).max(), np.abs(A).max(), 1e-300)
    if np.abs(S - S.T).max() > FLOW_RTOL * flow_scale:
        raise NotSymmetric(
            f"symmetry invariant violated: max|S - S^T| = {np.abs(S - S.T).max():.3g}"
        )
    if np.abs(A + A.T).max() > FLOW_RTOL * flow_scale:
        raise NotAntisymmetric(
            f"antisymmetry invariant violated: max|A + A^T| = {np.abs(A + A.T).max():.3g}"
        )
    for name, m in (("S", S), ("A", A)):
        worst = np.abs(m.sum(axis=1)).max()
        if worst > FLOW_RTOL * n * flow_scale:
            raise RowSumViolation(
                f"zero-row-sum invariant violated for {name}: worst row sum {worst:.3g}"
            )
    s_off = S.copy()
    np.fill_diagonal(s_off, 0.0)
    if s_off.min() < -FLOW_RTOL * flow_scale:
        i, j = np.unravel_index(np.argmin(s_off), s_off.shape)
        raise InvalidFlow(
            f"symmetric-flow positivity violated: S[{i},{j}] = {S[i, j]:.3g} < 0"
        )

    flow = S + A
    off = flow.copy()
    np.fill_diagonal(off, 0.0)
    fl_scale = max(np.abs(flow).max(), 1e-300)
    if off.min() < -FLOW_RTOL * fl_scale:
        i, j = np.unravel_index(np.argmin(off), off.shape)
        raise InvalidFlow(
            f"flow feasibility violated: (S+A)[{i},{j}] = {flow[i, j]:.6g} < 0 "
            "(circulation too strong for the symmetric part)"
        )
    # q[i, j] = flow[i, j] / pi_j; round-off negatives were vetted above
    q = np.clip(off, 0.0, None) / pi.p[np.newaxis, :]
    np.fill_diagonal(q, np.diag(flow) / pi.p)
    gen = validate_generator(q)
    residual = np.abs(gen.q @ pi.p).max()
    if residual > 1e-10 * max(np.abs(gen.q).max(), 1e-300):
        raise RowSumViolation(
            f"stationarity invariant violated: max|q @ pi| = {residual:.3g}"
        )
    return gen


def dual(gen: GeneratorMatrix) -> GeneratorMatrix:
    """Time-reversed chain: same stationary distribution, negated circulation.

    The rates ``F^T @ diag(pi)^-1`` of ``(pi, S, -A)``, diagonal recomputed.
    Each column divides by its ``pi_j``, so ``pi`` is GTH's (``stationary_tree``),
    accurate relative to every entry, not only to ``max pi`` as LU's is.
    """
    pi = stationary_tree(gen).p
    return from_offdiagonal_rates((as_dense(gen.q) * pi).T / pi)


@dataclass(frozen=True)
class DetailedBalanceReport:
    balanced: bool
    max_circulation: float        # max|A|, absolute
    max_pairwise_violation: float  # max over i<j of |q_ij pi_j - q_ji pi_i|
    flow_scale: float             # max|F|, the reference scale


def is_detailed_balance(gen: GeneratorMatrix) -> DetailedBalanceReport:
    """Check reversibility two ways: circulation norm and pairwise fluxes.

    The chain is reported balanced iff ``max|A| <= FLOW_RTOL * max|F|``.  The
    pairwise check ``q[i,j] pi_j == q[j,i] pi_i`` is computed from the
    generator directly; each circulation entry is exactly half the
    corresponding pairwise mismatch, so the two criteria must agree.  Both
    read :func:`decompose`'s stored split, so after ``decompose(gen)`` this
    solves nothing.
    """
    d = decompose(gen)
    max_a = float(abs(d.A).max())
    max_pair = float(abs(d.F - d.F.T).max())
    scale = float(abs(d.F).max())
    if abs(max_a - max_pair / 2.0) > 1e-15 * max(scale, 1.0):
        raise NotAntisymmetric(
            f"antisymmetry invariant violated: max|A| = {max_a:.17g} is not half "
            f"the pairwise flux mismatch {max_pair:.17g}"
        )
    return DetailedBalanceReport(
        balanced=bool(max_a <= FLOW_RTOL * scale),
        max_circulation=max_a,
        max_pairwise_violation=max_pair,
        flow_scale=scale,
    )


def dof_report(n: int) -> dict:
    """Degree-of-freedom budget of an n-state generator and its parts."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    report = {
        "dof_pi": n - 1,
        "dof_S": n * (n - 1) // 2,
        "dof_A": (n - 1) * (n - 2) // 2,
        "total": n * n - n,
    }
    if report["dof_pi"] + report["dof_S"] + report["dof_A"] != report["total"]:
        raise MarkovFlowError(f"degree-of-freedom budget violated: {report}")
    return report


def cycle_decompose(A) -> CycleDecomposition:
    """Peel a circulation matrix into weighted directed cycles.

    Greedy min-edge peeling on the positive part of ``A`` (edge ``u -> v``
    carries ``A[v, u]``) in one path-and-cycle walk (Ahuja, Magnanti & Orlin
    1993, section 3.5): from each start node in ascending order, extend the
    path to its last node's lowest successor; on closing a cycle, subtract
    its minimum edge weight, delete edges left at or below
    ``CYCLE_DUST_RTOL * max|A|`` and cut the path back to the cycle's first
    node; pop a node that dust left without an out-edge.  The cycles come in
    the order of a lowest-start, ascending-neighbor depth-first search
    restarted after every peel, and superpose to ``A`` up to the dust.

    The result is not canonical — many exact superpositions exist — but it
    is reproducible.  A count above the circulation DOF ``(n-1)(n-2)/2``
    triggers :class:`CycleCountWarning`, not an error.
    """
    A = np.asarray(as_dense(A), dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"circulation must be square, got shape {A.shape}")
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
    # out[u]: successor v -> residual weight of u -> v, in ascending v; keys
    # are only deleted, so the first is always the lowest remaining successor
    out = [dict(zip(np.flatnonzero(col > tiny).tolist(), col[col > tiny].tolist()))
           for col in A.T]
    cycles = []
    for start in range(n):
        path, position = [start], {start: 0}
        while path:
            u = path[-1]
            if not out[u]:
                del position[path.pop()]
                if path:
                    del out[path[-1]][u]
            elif (v := next(iter(out[u]))) not in position:
                position[v] = len(path)
                path.append(v)
            else:
                nodes = path[position[v]:]
                edges = list(zip(nodes, nodes[1:] + nodes[:1]))
                weight = min(out[a][b] for a, b in edges)
                for a, b in edges:
                    out[a][b] -= weight
                    if out[a][b] <= tiny:
                        del out[a][b]
                cycles.append((tuple(nodes), weight))
                for x in nodes[1:]:
                    del position[x]
                del path[position[v] + 1:]

    bound = (n - 1) * (n - 2) // 2
    if len(cycles) > bound:
        warnings.warn(
            f"{len(cycles)} cycles exceed the circulation DOF bound {bound}",
            CycleCountWarning,
        )
    return CycleDecomposition(cycles=tuple(cycles))


def superpose_cycles(cycles: CycleDecomposition, n: int) -> np.ndarray:
    """Rebuild the antisymmetric circulation matrix from a cycle list."""
    A = np.zeros((n, n))
    for nodes, weight in cycles.cycles:
        for u, v in zip(nodes, nodes[1:] + nodes[:1]):
            A[v, u] += weight
            A[u, v] -= weight
    return A
