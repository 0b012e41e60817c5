"""Stationary distributions by two mutually independent methods.

``stationary_solve`` is the production path: a dense linear solve of the
rank-deficient balance system with the normalization appended as a
replacement row.  ``stationary_tree`` is the oracle: Grassmann-Taksar-Heyman
state reduction (Oper. Res. 33(5), 1985), which computes the spanning-tree
weights of the Markov chain tree theorem by censoring one state at a time,
subtraction-free and in O(n^3).  It shares no linear-algebra code with the
solver, which is what makes the cross-check in the test suite meaningful.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .core import GeneratorMatrix, ProbabilityVector
from .errors import SingularBeyondNullity

# Residual contract for the linear-solve path, relative to max|q|.
RESIDUAL_RTOL = 1e-10


def stationary_solve(gen: GeneratorMatrix) -> ProbabilityVector:
    """Solve ``q @ pi = 0`` with the mass constraint replacing one balance row.

    The replaced row is the one with the largest diagonal magnitude, which
    keeps the modified system well conditioned.  One step of iterative
    refinement pushes the residual to round-off so that downstream flow
    matrices inherit row sums at the 1e-14 scale rather than the bare
    solver tolerance.

    Raises
    ------
    SingularBeyondNullity
        If the modified system is numerically singular or the residual
        exceeds ``1e-10 * max|q|`` — both contradict validated
        irreducibility and signal severe ill-conditioning.
    """
    q = gen.q
    n = gen.n
    scale = np.abs(q).max()
    k = int(np.argmax(np.abs(np.diag(q))))
    m = q.copy()
    m[k, :] = 1.0
    b = np.zeros(n)
    b[k] = 1.0

    try:
        lu, piv = scipy.linalg.lu_factor(m)
        pi = scipy.linalg.lu_solve((lu, piv), b)
        if np.isfinite(pi).all():
            for _ in range(2):
                correction = scipy.linalg.lu_solve((lu, piv), b - m @ pi)
                if not np.isfinite(correction).all():
                    break
                pi = pi + correction
    except scipy.linalg.LinAlgError as exc:
        raise SingularBeyondNullity(
            f"stationary system is singular: {exc} "
            f"(condition estimate {_cond_estimate(m)})"
        ) from exc

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
    return ProbabilityVector(pi / pi.sum())


def _cond_estimate(m: np.ndarray) -> str:
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
    a = gen.q.T.copy()
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
