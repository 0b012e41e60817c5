"""Stationary distributions by two mutually independent methods.

``stationary_solve`` is the production path: a linear solve of the
rank-deficient balance system with the normalization appended as a
replacement row, by dense LU for a dense generator and by sparse LU (SuperLU
through ``scipy.sparse.linalg.splu``) for a CSR one; both refine the
solution twice and share one residual and positivity contract.
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
import scipy.linalg
from scipy.sparse import coo_array, csc_array, issparse
from scipy.sparse.linalg import splu

from .core import GeneratorMatrix, ProbabilityVector, as_dense
from .errors import SingularBeyondNullity

# Residual contract for the linear-solve path, relative to max|q|.
RESIDUAL_RTOL = 1e-10


def stationary_solve(gen: GeneratorMatrix) -> ProbabilityVector:
    """Solve ``q @ pi = 0`` with the mass constraint replacing one balance row.

    The replaced row is the one with the largest diagonal magnitude, which
    keeps the modified system well conditioned.  Two steps of iterative
    refinement push the residual to round-off so that downstream flow
    matrices inherit row sums at the 1e-14 scale rather than the bare
    solver tolerance.  A dense generator is factored by LAPACK, a CSR one by
    SuperLU; the contract below is the same for both.

    The result is stored on ``gen``, so every later call on the same
    generator returns the same :class:`ProbabilityVector` without solving
    again; a call that raises stores nothing.

    Raises
    ------
    SingularBeyondNullity
        If the modified system is numerically singular or the residual
        exceeds ``1e-10 * max|q|`` — both contradict validated
        irreducibility and signal severe ill-conditioning.
    """
    if gen._pi is not None:
        return gen._pi
    q = gen.q
    n = gen.n
    scale = abs(q).max()
    k = int(np.argmax(np.abs(q.diagonal())))
    b = np.zeros(n)
    b[k] = 1.0
    if issparse(q):
        c = coo_array(q)
        keep = c.row != k
        m = csc_array((np.concatenate([c.data[keep], np.ones(n)]),
                       (np.concatenate([c.row[keep], np.full(n, k)]),
                        np.concatenate([c.col[keep], np.arange(n)]))),
                      shape=(n, n))
        try:
            # minimum degree on the structure of m + m^T orders the dense
            # normalization row last; column AMD fills 3x more at grid 64
            solve = splu(m, permc_spec="MMD_AT_PLUS_A").solve
        except RuntimeError as exc:
            raise _singular(exc, m) from exc
    else:
        m = q.copy()
        m[k, :] = 1.0
        try:
            lu = scipy.linalg.lu_factor(m)
        except scipy.linalg.LinAlgError as exc:
            raise _singular(exc, m) from exc
        if not np.diagonal(lu[0]).all():
            raise _singular("the LU factor has a zero pivot", m)

        def solve(rhs):
            return scipy.linalg.lu_solve(lu, rhs)

    pi = solve(b)
    if np.isfinite(pi).all():
        for _ in range(2):
            correction = solve(b - m @ pi)
            if not np.isfinite(correction).all():
                break
            pi = pi + correction

    residual = np.abs(q @ pi).max() if np.isfinite(pi).all() else np.inf
    if not np.isfinite(pi).all() or residual > RESIDUAL_RTOL * scale:
        raise SingularBeyondNullity(
            "stationary residual invariant violated: "
            f"max|q @ pi| = {residual:.3g} exceeds {RESIDUAL_RTOL * scale:.3g} "
            f"(condition estimate {_cond_estimate(m)})"
        )
    if pi.min() <= 0.0:
        i = int(np.argmin(pi))
        raise SingularBeyondNullity(
            f"positivity invariant violated: pi[{i}] = {pi[i]:.3g} <= 0 despite "
            f"irreducibility (condition estimate {_cond_estimate(m)})"
        )
    pi = ProbabilityVector(pi / pi.sum())
    object.__setattr__(gen, "_pi", pi)
    return pi


def _singular(detail, m) -> SingularBeyondNullity:
    return SingularBeyondNullity(
        f"nullity invariant violated: the stationary system is singular: "
        f"{detail} (condition estimate {_cond_estimate(m)})"
    )


def _cond_estimate(m) -> str:
    if issparse(m):
        return "unavailable for sparse input"
    if m.shape[0] > 500:
        return "unavailable at this size"
    return f"{np.linalg.cond(m):.3g}"


def stationary_tree(gen: GeneratorMatrix) -> ProbabilityVector:
    """Stationary distribution by Grassmann-Taksar-Heyman state reduction.

    States are censored one at a time from the last: the rates out of
    state ``k`` are redistributed over the remaining states in proportion
    to where ``k`` jumps next, and back-substitution recovers each
    censored state's weight from the ones below it.  The result is the
    Markov-chain-tree-theorem weight of every state, normalized.  Every
    operation adds, multiplies or divides nonnegative numbers, so there is no
    cancellation, and the cost is O(n^3) with no size cap.  The method
    shares no linear-algebra code with :func:`stationary_solve`, which is
    what makes it an independent oracle for it.

    Raises
    ------
    SingularBeyondNullity
        If a censored state has no rate left to the states below it, which
        validated (irreducible) input never produces.
    """
    n = gen.n
    # row convention: a[i, j] is the rate from i to j; the diagonal is never read
    a = as_dense(gen.q).T.copy()
    np.fill_diagonal(a, 0.0)
    for k in range(n - 1, 0, -1):
        s = a[k, :k].sum()
        if not s > 0.0:
            raise SingularBeyondNullity(
                f"state reduction invariant violated: state {k} has exit rate "
                f"{s:.3g} to states 0..{k - 1} after censoring states above it"
            )
        a[:k, :k] += np.outer(a[:k, k], a[k, :k]) / s
        a[:k, k] /= s
    x = np.zeros(n)
    x[0] = 1.0
    for k in range(1, n):
        x[k] = x[:k] @ a[:k, k]
    return ProbabilityVector(x / x.sum())
