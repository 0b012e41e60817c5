"""Spectral decay bound for the quadratic divergence.

Conjugating the symmetric flow by the square root of the stationary
distribution, ``G[i, j] = S[i, j] / sqrt(pi_i pi_j)``, gives a symmetric
negative-semidefinite matrix that annihilates ``sqrt(pi)``.  Writing the
eigenvalues of ``-G`` in ascending order ``0 = lam_1 <= lam_2 <= ...``,
the quadratic divergence along any trajectory obeys

    D(p(t)) <= D(p(0)) * exp(-lam_2 * t),

and retaining the factor 2 that the production identity carries gives the
sharper ``D(p(t)) <= D(p(0)) * exp(-2 lam_2 * t)``: with ``r = p/pi`` and
``u = (p - pi)/sqrt(pi)``, ``dD/dt = 2 r^T S r = 2 u^T G u`` and ``u`` is
orthogonal to ``sqrt(pi)``, so ``dD/dt <= -2 lam_2 ||u||^2 = -2 lam_2 D``.
``verify_bound`` checks this sharper inequality as the contract, on the
``D`` it reports and its ``bound_sharp`` curve.  It reports the errors of
the two identities the argument rests on, without asserting them:
``||p/sqrt(pi) - sqrt(pi)||^2 == D(p)`` and the vanishing projection of
that vector on ``sqrt(pi)``.

The spectrum comes from LAPACK's symmetric eigensolver (``eigh``);
``spectral_bound`` still checks the returned eigensystem against the
invariants above (``-G`` PSD, reconstruction, orthonormality, leading
eigenvector ``sqrt(pi)``) before anything relies on it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import _check_positive, _check_square, _frozen, _read_numbers, as_dense
from .decompose import FlowDecomposition
from .entropy import gini_divergence
from .errors import (
    BoundViolated,
    DisconnectedWarning,
    NoConvergence,
    NotSymmetric,
    RowSumViolation,
)
from .evolve import Trajectory

DEGENERATE_GAP_RTOL = 1e-10
BOUND_RTOL = 1e-8


@dataclass(frozen=True, eq=False)
class SpectralBound:
    """Conjugated symmetric flow with its eigensystem.

    ``eigenvalues`` are those of ``-G`` in ascending order (all >= 0 up to
    round-off); ``eigenvectors`` holds the orthonormal basis as columns,
    the first of which is ``sqrt(pi)`` whenever the zero eigenvalue is
    simple.
    """

    G: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    pi: np.ndarray

    def __post_init__(self):
        for name in ("G", "eigenvalues", "eigenvectors", "pi"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))

    @property
    def lambda2(self) -> float:
        return float(self.eigenvalues[1])


def build_G(d: FlowDecomposition) -> np.ndarray:
    """``G = diag(sqrt(pi))^-1 S diag(sqrt(pi))^-1`` with invariant checks."""
    pi = d.pi.p
    _check_positive(pi)
    root = np.sqrt(pi)
    G = as_dense(d.S) / (root[:, np.newaxis] * root[np.newaxis, :])
    scale = max(np.abs(G).max(), 1e-300)
    asym = np.abs(G - G.T).max()
    if asym > 1e-12 * scale:
        raise NotSymmetric(f"symmetry invariant violated: max|G - G^T| = {asym:.3g}")
    null_residual = np.abs(G @ root).max()
    if null_residual > 1e-10 * scale:
        raise RowSumViolation(
            f"null-vector invariant violated: G @ sqrt(pi) residual "
            f"{null_residual:.3g} exceeds 1e-10 relative"
        )
    return G


def symmetric_eigensolve(m):
    """Eigendecomposition of a symmetric matrix by LAPACK ``eigh``.

    Returns ``(w, u)`` with eigenvalues ``w`` ascending and orthonormal
    eigenvector columns ``u`` such that ``m = u @ diag(w) @ u.T``.  The
    sign of each eigenvector is fixed by making its largest-magnitude
    component positive, so results are deterministic.  Raises
    ``ValueError`` unless ``m`` is a square array of numbers,
    :class:`NotSymmetric` for an asymmetric input and
    :class:`NoConvergence` when LAPACK fails to converge or returns
    non-finite eigenvalues.
    """
    a = _read_numbers(m, "the matrix", "a square array of numbers")
    _check_square(a, "matrix")
    asym = np.linalg.norm(a - a.T)
    if asym > 1e-12 * max(np.linalg.norm(a), 1e-300):
        raise NotSymmetric(f"symmetry invariant violated: ||m - m^T|| = {asym:.3g}")
    try:
        w, u = np.linalg.eigh((a + a.T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"LAPACK eigh did not converge: {exc}") from exc
    if not np.isfinite(w).all():
        raise NoConvergence("eigh returned non-finite eigenvalues")
    largest = np.argmax(np.abs(u), axis=0)
    u[:, u[largest, np.arange(u.shape[1])] < 0.0] *= -1.0
    return w, u


def spectral_bound(d: FlowDecomposition) -> SpectralBound:
    """Assemble ``G`` and the ascending eigensystem of ``-G``.

    Emits :class:`DisconnectedWarning` when the second eigenvalue is
    numerically zero, which happens exactly when the symmetric flow graph
    is disconnected and the decay bound degenerates.
    """
    G = build_G(d)
    w, u = symmetric_eigensolve(-G)
    top = max(w[-1], 1e-300)
    if w[0] < -1e-10 * top:
        raise NoConvergence(f"-G not PSD: lowest eigenvalue {w[0]:.3g}")
    recon = np.linalg.norm(G + u @ np.diag(w) @ u.T)
    if recon > 1e-10 * max(np.linalg.norm(G), 1e-300):
        raise NoConvergence(f"eigendecomposition residual {recon:.3g}")
    orth = np.abs(u.T @ u - np.eye(d.n)).max()
    if orth > 1e-10:
        raise NoConvergence(f"eigenvector orthonormality residual {orth:.3g}")

    root = np.sqrt(d.pi.p)
    if w[1] <= DEGENERATE_GAP_RTOL * top:
        warnings.warn(
            f"second eigenvalue {w[1]:.3g} is numerically zero: symmetric "
            "flow graph is disconnected, decay bound degenerates",
            DisconnectedWarning,
        )
    else:
        # simple zero eigenvalue: the first eigenvector is sqrt(pi);
        # attainable accuracy shrinks with the gap, so the check scales
        vec_tol = max(1e-8, 1e-12 * top / w[1])
        vec_err = np.abs(u[:, 0] - root).max()
        if vec_err > vec_tol:
            raise NoConvergence(
                f"leading eigenvector misses sqrt(pi) by {vec_err:.3g}"
            )
    return SpectralBound(G=G, eigenvalues=w, eigenvectors=u, pi=d.pi.p)


def lambda2(d: FlowDecomposition) -> float:
    """Second smallest eigenvalue of ``-G``: the divergence decay rate."""
    return spectral_bound(d).lambda2


@dataclass(frozen=True, eq=False)
class BoundReport:
    """Pointwise comparison of measured divergence against its decay bounds."""

    times: np.ndarray
    divergence: np.ndarray        # D(p(t))
    bound: np.ndarray             # D(p0) exp(-lam2 (t - t0))
    bound_sharp: np.ndarray       # D(p0) exp(-2 lam2 (t - t0)), the asserted rate
    ratio: np.ndarray             # divergence / bound
    lam2: float
    norm_identity_error: float    # max | ||p/sqrt(pi)-sqrt(pi)||^2 - (sum(p^2/pi) - 1) |
    projection_error: float       # max | <sqrt(pi), p/sqrt(pi)-sqrt(pi)> |

    def __post_init__(self):
        for name in ("times", "divergence", "bound", "bound_sharp", "ratio"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))


def verify_bound(traj: Trajectory, sb: SpectralBound) -> BoundReport:
    """Check the spectral decay bound along a trajectory of the same chain.

    ``sb`` is the chain's :func:`spectral_bound`, so a caller that already
    has the spectrum does not compute it again.  Raises
    :class:`BoundViolated` if ``D(p(t))`` exceeds ``D(p0) exp(-2 lam2 t)`` by
    more than ``BOUND_RTOL`` anywhere above the round-off floor — the bound is
    proven (module docstring), so a violation means the trajectory and
    spectral bound do not belong to the same generator or something is
    broken.  ``D`` is the reported ``divergence`` (:func:`gini_divergence`)
    and the contract's curve the reported ``bound_sharp``; the two
    identities of the module docstring are reported, not asserted.
    """
    if traj.n != sb.pi.size:
        raise ValueError(
            f"size invariant violated: trajectory has {traj.n} states, the "
            f"spectral bound has {sb.pi.size}"
        )
    lam2 = sb.lambda2
    pi = sb.pi
    root = np.sqrt(pi)

    t = traj.times
    elapsed = t - t[0]
    div = gini_divergence(traj.states, pi)
    bound = div[0] * np.exp(-lam2 * elapsed)
    sharp = div[0] * np.exp(-2.0 * lam2 * elapsed)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(bound > 0.0, div / np.where(bound > 0.0, bound, 1.0), 0.0)

    # once both curves sit at round-off dust the comparison is meaningless:
    # equilibrium divergence values are O(eps^2/pi), far below this floor
    dust = 1e-13 * max(1.0, div[0])
    violations = (div > sharp * (1.0 + BOUND_RTOL)) & (div > dust)
    if violations.any():
        with np.errstate(divide="ignore", invalid="ignore"):
            excess = np.where(violations, div / sharp, 0.0)
        worst = int(np.argmax(excess))
        raise BoundViolated(
            f"decay bound violated at t = {float(t[worst])!r}: "
            f"D = {div[worst]:.6g} > D(p0) exp(-2 lambda2 t) = "
            f"{sharp[worst]:.6g} (ratio {excess[worst]:.9g})"
        )
    shifted = traj.states / root[np.newaxis, :] - root[np.newaxis, :]
    norm = (shifted * shifted).sum(axis=1)
    expanded = (traj.states * traj.states / pi[np.newaxis, :]).sum(axis=1) - 1.0
    norm_err = float(np.abs(norm - expanded).max())
    proj_err = float(np.abs(shifted @ root).max())
    return BoundReport(
        times=t,
        divergence=div,
        bound=bound,
        bound_sharp=sharp,
        ratio=ratio,
        lam2=lam2,
        norm_identity_error=norm_err,
        projection_error=proj_err,
    )
