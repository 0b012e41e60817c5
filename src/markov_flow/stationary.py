"""Stationary distributions by two mutually independent methods.

``stationary_solve`` is the production path: a linear solve of the
rank-deficient balance system with one balance equation replaced.  A dense
generator is factored by LAPACK's ``dgetrf`` with the normalization
``sum(pi) = 1`` as the replacement row and solved by ``dgetrs``, called
directly: on a chain of a few dozen states scipy's ``lu_factor`` and
``lu_solve`` wrappers cost more than the routines they call.  A CSR
generator is factored by SuperLU (``scipy.sparse.linalg.splu``) with the
unit anchor row ``pi_k = 1`` and normalized afterwards: a row of ones is
dense, and SuperLU's fill and time grow with it (W. J. Stewart,
*Introduction to the Numerical Solution of Markov Chains*, 1994, ch. 2).
Both refine the solution twice.  A CSR chain in detailed balance needs no
factorization: its ``pi`` is the product of the rate ratios
``q[j, i] / q[i, j]`` along a spanning tree of its support, O(nnz) and
accurate relative to every entry, accepted only once every edge balances;
any other CSR chain falls through to SuperLU.  The sparse modules (csgraph
for the tree, SuperLU) are imported in the CSR branch only, so a dense
solve never loads them.  Every ``pi`` meets one
residual and positivity contract, measured on the returned vector; a
refusal of a dense system quotes LAPACK's 1-norm condition estimate
(``dgecon``) from the factor it already has.
``stationary_tree`` is the oracle: Grassmann-Taksar-Heyman state reduction
(Oper. Res. 33(5), 1985), which computes the spanning-tree weights of the
Markov chain tree theorem by censoring one state at a time,
subtraction-free and in O(n^3).  It shares no linear-algebra code with the
solver, which is what makes the cross-check in the test suite meaningful.
GTH also gives ``dual`` its ``pi``: the dual divides by every ``pi_j``, and GTH
is accurate relative to each entry, LU only relative to ``max pi``.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgecon, dgetrf, dgetrs

from .core import (
    FLOW_RTOL,
    GeneratorMatrix,
    ProbabilityVector,
    _entry_rows,
    _finite_scale,
    _issparse,
    as_dense,
)
from .errors import Overflow, SingularBeyondNullity

# Residual contract for the linear-solve path, relative to max|q|.
RESIDUAL_RTOL = 1e-10
# GTH's back-substitution rescales its weights once one passes this
TREE_RESCALE = 2.0 ** 512


def stationary_solve(gen: GeneratorMatrix) -> ProbabilityVector:
    """Solve ``q @ pi = 0`` with one balance row replaced.

    A dense generator replaces the row with the largest diagonal magnitude
    by the mass constraint ``sum(pi) = 1``, which keeps the modified system
    well conditioned, and is factored once by LAPACK's ``dgetrf``; the solve
    and each refinement step are one ``dgetrs``.  These are the routines
    ``scipy.linalg.lu_factor`` and ``lu_solve`` call, so ``pi`` is the same
    to the bit; the finiteness scans those wrappers make are replaced by one
    typed check of ``q``.  A CSR generator replaces one row by the anchor
    ``pi_k = 1`` and is factored by SuperLU: the anchor adds one entry to
    the factored matrix where a row of ones adds ``n``.  The anchored
    solution is ``pi / pi_k``, accurate relative to its largest entry, so
    ``k`` should be a heavy state: it maximizes the ratio of the rates into
    and out of a state, one Jacobi step from uniform weights.  The solution
    is scaled to ``max pi = 1`` before its mass is summed, so the sum cannot
    overflow.  Two steps of iterative refinement push the residual to
    round-off so that downstream flow matrices inherit row sums at the
    1e-14 scale rather than the bare solver tolerance.

    A CSR generator is first tried as a reversible chain: its weights are
    the products of ``q[j, i] / q[i, j]`` along a breadth-first spanning
    tree rooted at ``k``, kept only if the support is symmetric and positive,
    every weight is finite and positive, and the two flows of every edge
    agree to ``FLOW_RTOL`` of the larger, the tolerance
    :func:`is_detailed_balance` also reads.  Otherwise, and so on every
    chain that breaks detailed balance, SuperLU runs as above.

    The result is stored on ``gen``, so every later call on the same
    generator returns the same :class:`ProbabilityVector` without solving
    again; a call that raises stores nothing.

    Raises
    ------
    MarkovFlowError
        If an entry of ``q`` is not finite (only unvalidated input has one).
    SingularBeyondNullity
        If the modified system is numerically singular, a weight is not
        positive, or the returned ``pi`` leaves a residual
        ``max|q @ pi|`` above ``1e-10 * max|q|``.  A weight that is zero
        relative to ``max pi`` means the weights span more than double
        precision's range, or the chain is reducible; the others signal
        severe ill-conditioning.
    """
    if gen._pi is not None:
        return gen._pi
    q = gen.q
    n = gen.n
    scale = _finite_scale(q, "the generator")
    sparse = _issparse(q)
    if sparse:
        # one Jacobi step from uniform weights, in / out rate, guesses the
        # heaviest state; 0/0 (unvalidated input) counts as 0
        exits = np.abs(q.diagonal())
        with np.errstate(divide="ignore", invalid="ignore"):
            guess = (q.sum(axis=1) + exits) / exits
        k = int(np.argmax(np.fmax(guess, 0.0)))
        pi = _reversible_pi(q, k)
        if pi is not None:
            return _accepted(gen, pi, scale, q)
        from scipy.sparse import csr_array
        from scipy.sparse.linalg import splu

        # row k of the CSR arrays spliced out for the anchor entry, then
        # one CSC copy for SuperLU
        lo, hi = q.indptr[k], q.indptr[k + 1]
        m = csr_array((
            np.concatenate([q.data[:lo], [1.0], q.data[hi:]]),
            np.concatenate([q.indices[:lo], [k], q.indices[hi:]],
                           dtype=q.indices.dtype),
            np.concatenate([q.indptr[:k + 1], q.indptr[k + 1:] - (hi - lo - 1)],
                           dtype=q.indptr.dtype),
        ), shape=(n, n)).tocsc()
        lu = None
        try:
            # minimum degree on the structure of m + m^T: column AMD fills
            # 1.7x more at grid 64 and factors 1.5x slower
            solve = splu(m, permc_spec="MMD_AT_PLUS_A").solve
        except RuntimeError as exc:
            raise _singular(exc, m, lu) from exc
    else:
        k = int(np.argmax(np.abs(q.diagonal())))
        m = q.copy()
        m[k, :] = 1.0
        # the LAPACK routines lu_factor and lu_solve wrap, without their
        # finiteness scans (q is checked above) and batching layer
        lu, piv, info = dgetrf(m)
        if info:
            raise _singular("the LU factor has a zero pivot", m, lu)

        def solve(rhs):
            return dgetrs(lu, piv, rhs)[0]

    b = np.zeros(n)
    b[k] = 1.0
    pi = solve(b)
    if np.isfinite(pi).all():
        for _ in range(2):
            correction = solve(b - m @ pi)
            if not np.isfinite(correction).all():
                break
            pi = pi + correction

    return _accepted(gen, pi, scale, m, lu)


def _accepted(gen: GeneratorMatrix, pi: np.ndarray, scale: float,
              m, lu=None) -> ProbabilityVector:
    """``pi`` normalized and stored on ``gen`` once it is finite and positive
    and meets the residual contract; ``m`` is the matrix it solves and ``lu``
    its dense LU factor, both named in the refusals.  A sparse ``pi`` is
    scaled to ``max pi = 1`` before its mass is summed, so the sum cannot
    overflow."""
    if not np.isfinite(pi).all():
        raise _residual(np.inf, scale, m, lu)
    if pi.min() <= 0.0:
        i = int(np.argmin(pi))
        raise SingularBeyondNullity(
            f"positivity invariant violated: pi[{i}] = {pi[i]:.3g} <= 0, zero "
            f"relative to max pi = {pi.max():.3g}: either the weights span more "
            "than double precision's range, or the chain is reducible "
            f"(condition estimate {_cond_estimate(m, lu)})"
        )
    if _issparse(m):
        pi = pi / pi.max()
    pi = ProbabilityVector(pi / pi.sum())
    residual = np.abs(gen.q @ pi.p).max()
    if residual > RESIDUAL_RTOL * scale:
        raise _residual(residual, scale, m, lu)
    object.__setattr__(gen, "_pi", pi)
    return pi


def _reversible_pi(q, root: int):
    """The stationary weights of a reversible CSR ``q`` relative to
    ``pi[root]``, or ``None`` when ``q`` is not reversible.

    Detailed balance fixes ``pi_i / pi_j = q[i, j] / q[j, i]`` on every
    edge, so the weights are products of rate ratios along any spanning tree
    of the support (Kelly, *Reversibility and Stochastic Networks*, 1979).
    The support must be symmetric with every stored off-diagonal rate
    positive: the transpose of ``q`` in canonical CSR then has ``q``'s
    pattern and holds ``q[j, i]`` where ``q`` holds ``q[i, j]``.  A
    breadth-first tree from ``root`` gives every state its parent, and
    pointer doubling multiplies the ratios up to the root in O(n log depth).
    Every edge's two flows must then agree to ``FLOW_RTOL`` of the
    larger.  An asymmetric or disconnected support, a weight that is not
    finite and positive, or a failed edge returns ``None``.
    """
    from scipy.sparse.csgraph import breadth_first_order

    n = q.shape[0]
    qt = q.T.tocsr()
    if not (np.array_equal(q.indptr, qt.indptr)
            and np.array_equal(q.indices, qt.indices)):
        return None
    rows = _entry_rows(q)
    off = q.indices != rows
    if not (q.data[off] > 0.0).all():
        return None
    order, parent = breadth_first_order(q, root, return_predecessors=True)
    if order.size < n:
        return None
    parent[root] = root
    # each state but the root holds one entry in its parent's column
    at = np.flatnonzero(off & (q.indices == parent[rows]))
    w = np.ones(n)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        # w[j] = pi_j / pi_parent[j], until every parent is the root
        w[rows[at]] = q.data[at] / qt.data[at]
        while (parent != root).any():
            w *= w[parent]
            parent = parent[parent]
        if not (np.isfinite(w).all() and w.min() > 0.0):
            return None
        # F[i, j] and F[j, i] at each slot; on the diagonal they are one
        # number, and abs() keeps its tolerance nonnegative
        flow, back = q.data * w[q.indices], qt.data * w[rows]
        if (np.abs(flow - back)
                > FLOW_RTOL * np.abs(np.maximum(flow, back))).any():
            return None
    return w


def _residual(residual, scale, m, lu) -> SingularBeyondNullity:
    return SingularBeyondNullity(
        "stationary residual invariant violated: "
        f"max|q @ pi| = {residual:.3g} exceeds {RESIDUAL_RTOL * scale:.3g} "
        f"(condition estimate {_cond_estimate(m, lu)})"
    )


def _singular(detail, m, lu) -> SingularBeyondNullity:
    return SingularBeyondNullity(
        f"nullity invariant violated: the stationary system is singular: "
        f"{detail} (condition estimate {_cond_estimate(m, lu)})"
    )


def _cond_estimate(m, lu) -> str:
    """LAPACK's 1-norm estimate of ``cond(m)`` from its LU factor ``lu``
    (``dgecon``, O(n^2)); ``inf`` for a zero pivot."""
    if lu is None:
        return "unavailable for sparse input"
    rcond, _ = dgecon(lu, np.abs(m).sum(axis=0).max())
    with np.errstate(divide="ignore"):
        return f"{np.divide(1.0, rcond):.3g}"


def stationary_tree(gen: GeneratorMatrix) -> ProbabilityVector:
    """Stationary distribution by Grassmann-Taksar-Heyman state reduction.

    States are censored one at a time from the last: the rates out of
    state ``k`` are redistributed over the remaining states in proportion
    to where ``k`` jumps next, and back-substitution recovers each
    censored state's weight from the ones below it, scaling the weights
    found so far down whenever one passes ``2^512``, so a chain whose
    weights span more than double precision's range loses its smallest
    entries to underflow rather than its largest to overflow.  The result is
    the Markov-chain-tree-theorem weight of every state, normalized.  Every
    operation adds, multiplies or divides nonnegative numbers, so there is no
    cancellation, and the cost is O(n^3) with no size cap.  The method
    shares no linear-algebra code with :func:`stationary_solve`, which is
    what makes it an independent oracle for it.  The result is stored on
    ``gen``, as :func:`stationary_solve` stores its own.

    Raises
    ------
    SingularBeyondNullity
        If a censored state has no rate left to the states below it, which
        validated (irreducible) input never produces.
    Overflow
        If a weight overflows even so, which takes rate ratios near ``2^512``.
    """
    if gen._pi_tree is not None:
        return gen._pi_tree
    n = gen.n
    # row convention: a[i, j] is the rate from i to j; the diagonal is never read
    a = as_dense(gen.q).T.copy()
    np.fill_diagonal(a, 0.0)
    # a weight that overflows even so is refused below, after the loops
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n - 1, 0, -1):
            s = a[k, :k].sum()
            if not s > 0.0:
                raise SingularBeyondNullity(
                    f"state reduction invariant violated: state {k} has exit rate "
                    f"{s:.3g} to states 0..{k - 1} after censoring states above it"
                )
            a[:k, k] /= s
            a[:k, :k] += a[:k, k, None] * a[k, :k]
        x = np.zeros(n)
        x[0] = 1.0
        for k in range(1, n):
            x[k] = x[:k] @ a[:k, k]
            if x[k] > TREE_RESCALE:
                x[:k + 1] /= x[k]
    if not np.isfinite(x).all():
        k = int(np.flatnonzero(~np.isfinite(x))[0])
        raise Overflow(
            f"finiteness invariant violated: the spanning-tree weight of state "
            f"{k} overflows double precision"
        )
    pi = ProbabilityVector(x / x.sum())
    object.__setattr__(gen, "_pi_tree", pi)
    return pi
