"""Finite-volume discretization of a drift-diffusion equation on a 2-D box.

The continuous model is ``d rho/dt = div( (D(x) + G(x)) (rho grad(phi) +
grad(rho)) )`` with a symmetric positive-semidefinite diffusion matrix
``D``, an antisymmetric ``G = [[0, gamma], [-gamma, 0]]`` and a potential
``phi``; its stationary density is the Gibbs weight ``exp(-phi)``
regardless of ``gamma``.  Two dimensions is the smallest setting where
``gamma`` matters at all — in 1-D every antisymmetric matrix is zero.

The discretization is a flux-form finite-volume scheme on a uniform grid:
fluxes ``(D+G)(rho grad(phi) + grad(rho))`` are built on cell faces from
central differences, boundaries reflect (zero flux, so probability is
conserved exactly), and the face fluxes assemble into a rate matrix whose
columns sum to zero by construction.  One array stencil assembles all x
faces at once; the y faces are the x faces of the transposed fields.  The
rate matrix is CSR: a cell exchanges flux with at most eight neighbours,
so a level stores O(n) numbers, and the stationary solve, the flow split and
the adjointness report all run on the sparse matrices.
Negative off-diagonal rates — the classic failure of central schemes when
advection beats diffusion on a coarse grid — are clipped to zero; the
clipped mass is reported and a fraction above 1% of the total off-diagonal
flux raises instead of silently distorting the chain.

Cells are indexed row-major: state ``i * ny + j`` is cell ``(i, j)``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.linalg import norm as sparse_norm

from .core import GeneratorMatrix, ProbabilityVector, from_offdiagonal_rates
from .decompose import FlowDecomposition, decompose
from .errors import ExcessiveClipping, Overflow, TooLarge
from .stationary import stationary_solve

log = logging.getLogger(__name__)

MAX_CELLS = 65536         # one level this size: ~7 s and ~0.3 GB on one core
MAX_PHI_RANGE = 700.0     # exp() underflow guard
CLIP_FRACTION_LIMIT = 0.01
DIFFUSION_RTOL = 1e-12     # symmetry and PSD slack, relative to max|D|

PHI_CATALOG = {
    "quadratic": lambda x, y: 0.5 * (x * x + y * y),
    "double_well": lambda x, y: (x * x - 4.0) ** 2 / 8.0 + 0.5 * y * y,
}


@dataclass(frozen=True, eq=False)
class FpeProblem:
    """Sampled problem data on a uniform nx-by-ny cell grid.

    ``phi`` is (nx, ny), ``diffusion`` is (nx, ny, 2, 2) symmetric PSD per
    cell, ``gamma`` is (nx, ny).  Build through :func:`fpe_problem`.
    """

    xlim: tuple
    ylim: tuple
    nx: int
    ny: int
    phi: np.ndarray
    diffusion: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        for name in ("phi", "diffusion", "gamma"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.nx * self.ny

    @property
    def hx(self) -> float:
        return (self.xlim[1] - self.xlim[0]) / self.nx

    @property
    def hy(self) -> float:
        return (self.ylim[1] - self.ylim[0]) / self.ny

    @property
    def x_centers(self) -> np.ndarray:
        return self.xlim[0] + (np.arange(self.nx) + 0.5) * self.hx

    @property
    def y_centers(self) -> np.ndarray:
        return self.ylim[0] + (np.arange(self.ny) + 0.5) * self.hy

    def index(self, i: int, j: int) -> int:
        return i * self.ny + j


def fpe_problem(domain, nx: int, ny: int, phi, diffusion="identity",
                gamma=0.0) -> FpeProblem:
    """Sample fields onto the grid and validate the problem.

    ``phi`` may be a catalog tag (``"quadratic"``, ``"double_well"``), a
    callable ``phi(x, y)`` over meshgrid arrays, or an (nx, ny) sample
    array.  ``diffusion`` may be ``"identity"``, a constant 2x2 matrix, a
    callable returning one per point, or a full (nx, ny, 2, 2) array.
    ``gamma`` may be a scalar, a callable, or an (nx, ny) array.
    """
    (xlo, xhi), (ylo, yhi) = domain
    if not (xhi > xlo and yhi > ylo):
        raise ValueError(f"degenerate domain {domain!r}")
    if nx < 4 or ny < 4:
        raise ValueError(f"grid must be at least 4x4, got {nx}x{ny}")
    if nx * ny > MAX_CELLS:
        raise TooLarge(
            f"{nx}x{ny} grid has {nx * ny} cells; the discretization is capped "
            f"at {MAX_CELLS}"
        )

    hx = (xhi - xlo) / nx
    hy = (yhi - ylo) / ny
    xs = xlo + (np.arange(nx) + 0.5) * hx
    ys = ylo + (np.arange(ny) + 0.5) * hy
    xg, yg = np.meshgrid(xs, ys, indexing="ij")

    if isinstance(phi, str):
        if phi not in PHI_CATALOG:
            raise ValueError(
                f"unknown potential tag {phi!r}; catalog: {sorted(PHI_CATALOG)}"
            )
        phi_field = PHI_CATALOG[phi](xg, yg)
    elif callable(phi):
        phi_field = np.asarray(phi(xg, yg), dtype=float)
    else:
        phi_field = np.asarray(phi, dtype=float)
    if phi_field.shape != (nx, ny):
        raise ValueError(
            f"potential samples have shape {phi_field.shape}, expected {(nx, ny)}"
        )

    if isinstance(diffusion, str):
        if diffusion != "identity":
            raise ValueError(f"unknown diffusion tag {diffusion!r}")
        d_field = np.broadcast_to(np.eye(2), (nx, ny, 2, 2)).copy()
    elif callable(diffusion):
        d_field = np.empty((nx, ny, 2, 2))
        for i in range(nx):
            for j in range(ny):
                d_field[i, j] = np.asarray(diffusion(xs[i], ys[j]), dtype=float)
    else:
        d_arr = np.asarray(diffusion, dtype=float)
        if d_arr.shape == (2, 2):
            d_field = np.broadcast_to(d_arr, (nx, ny, 2, 2)).copy()
        elif d_arr.shape == (nx, ny, 2, 2):
            d_field = d_arr.copy()
        else:
            raise ValueError(
                f"diffusion must be 2x2 or (nx, ny, 2, 2), got {d_arr.shape}"
            )
    _check_diffusion(d_field)

    if callable(gamma):
        gamma_field = np.asarray(gamma(xg, yg), dtype=float)
    else:
        gamma_field = np.broadcast_to(np.asarray(gamma, dtype=float), (nx, ny)).copy()
    if gamma_field.shape != (nx, ny):
        raise ValueError(
            f"gamma samples have shape {gamma_field.shape}, expected {(nx, ny)}"
        )

    return FpeProblem(
        xlim=(float(xlo), float(xhi)),
        ylim=(float(ylo), float(yhi)),
        nx=nx,
        ny=ny,
        phi=phi_field,
        diffusion=d_field,
        gamma=gamma_field,
    )


def _check_diffusion(d: np.ndarray):
    scale = max(np.abs(d).max(), 1e-300)
    tol = DIFFUSION_RTOL * scale
    asym = np.abs(d[..., 0, 1] - d[..., 1, 0]).max()
    if asym > tol:
        raise ValueError(
            f"diffusion symmetry violated: max|D01 - D10| = {asym:.3g}"
        )
    det = d[..., 0, 0] * d[..., 1, 1] - d[..., 0, 1] * d[..., 1, 0]
    if d[..., 0, 0].min() < -tol or d[..., 1, 1].min() < -tol \
            or det.min() < -tol * scale:
        raise ValueError("diffusion positive-semidefiniteness violated")


def gibbs_distribution(problem: FpeProblem) -> ProbabilityVector:
    """Cell-sampled ``exp(-phi)``, normalized over cells."""
    span = float(problem.phi.max() - problem.phi.min())
    if span > MAX_PHI_RANGE:
        raise Overflow(
            f"potential range {span:.3g} exceeds {MAX_PHI_RANGE}; rescale the "
            "potential before discretizing"
        )
    w = np.exp(-(problem.phi - problem.phi.min()))
    return ProbabilityVector((w / w.sum()).reshape(-1))


@dataclass(frozen=True)
class ClipReport:
    clipped_total: float    # summed magnitude of removed negative rates
    offdiag_total: float    # summed magnitude of all off-diagonal rates, pre-clip
    entries_clipped: int

    @property
    def fraction(self) -> float:
        if self.offdiag_total == 0.0:
            return 0.0
        return self.clipped_total / self.offdiag_total


def discretize_fpe(problem: FpeProblem) -> GeneratorMatrix:
    """Discretize to a generator; see :func:`discretize_fpe_detailed`."""
    gen, _ = discretize_fpe_detailed(problem)
    return gen


def _face_fluxes(phi, d_nn, d_nt, g_nt, ids, h_n, h_t):
    """The fluxes through every face normal to the fields' first axis, as
    ``(rows, cols, values)`` rate updates.

    Fields are indexed (normal, transverse).  ``d_nn`` and ``d_nt`` are
    the normal-normal and normal-transverse entries of ``D`` and ``g_nt``
    the normal-transverse entry of ``G``, each averaged over the face's two
    cells; ``ids`` holds the cells' state indices and ``h_n``, ``h_t`` are
    the normal and transverse spacings.  The transverse gradient is a
    central difference clamped at the walls.  The flux through the face
    between ``lo = [a, b]`` and ``hi = [a + 1, b]`` is added to ``lo``'s
    row and taken from ``hi``'s, so every column keeps a zero sum.
    """
    k = np.arange(phi.shape[1])
    up, dn = np.minimum(k + 1, k[-1]), np.maximum(k - 1, 0)
    nn = 0.5 * (d_nn[:-1] + d_nn[1:])
    nt = 0.5 * (d_nt[:-1] + g_nt[:-1] + d_nt[1:] + g_nt[1:])
    dphi_n = (phi[1:] - phi[:-1]) / h_n
    dphi_t = (phi[:, up] - phi[:, dn]) / (2.0 * h_t)
    w = nt * 0.5 / (2.0 * h_t)
    cells = np.stack([ids[:-1], ids[1:],
                      ids[:-1], ids[:-1, up], ids[:-1, dn],
                      ids[1:], ids[1:, up], ids[1:, dn]], axis=-1)
    coeffs = np.stack([nn * (0.5 * dphi_n - 1.0 / h_n),
                       nn * (0.5 * dphi_n + 1.0 / h_n),
                       nt * 0.5 * dphi_t[:-1], w, -w,
                       nt * 0.5 * dphi_t[1:], w, -w], axis=-1) / h_n
    # one update per (face, term, side), in that order, so each rate sums
    # its terms face by face: a term goes to lo's row, then from hi's
    rows = np.stack([ids[:-1], ids[1:]], axis=-1)[:, :, np.newaxis, :]
    shape = cells.shape + (2,)
    return (np.broadcast_to(rows, shape).ravel(),
            np.broadcast_to(cells[..., np.newaxis], shape).ravel(),
            np.stack([coeffs, -coeffs], axis=-1).ravel())


def discretize_fpe_detailed(problem: FpeProblem):
    """Assemble the finite-volume rate matrix and the clipping report.

    Returns ``(generator, clip_report)``; the generator is CSR.  The face
    updates of each rate are summed in assembly order, so the rates are
    those of the face-by-face loop to the last bit.  Raises
    :class:`ExcessiveClipping` when more than 1% of the off-diagonal flux
    magnitude had to be removed — the scheme is then too coarse for the
    advection strength and the detailed-balance structure would be
    distorted beyond the discretization error.
    """
    phi, dif, gam = problem.phi, problem.diffusion, problem.gamma
    n = problem.n
    ids = np.arange(n).reshape(problem.nx, problem.ny)
    # x faces; the y faces are the x faces of the transposed fields, where
    # G's off-axis entry changes sign
    updates = zip(
        _face_fluxes(phi, dif[..., 0, 0], dif[..., 0, 1], gam, ids,
                     problem.hx, problem.hy),
        _face_fluxes(phi.T, dif[..., 1, 1].T, dif[..., 1, 0].T, -gam.T,
                     ids.T, problem.hy, problem.hx),
    )
    rows, cols, values = (np.concatenate(pair) for pair in updates)
    off = rows != cols
    keys, slot = np.unique(rows[off] * n + cols[off], return_inverse=True)
    rates = np.zeros(keys.size)
    np.add.at(rates, slot, values[off])

    negatives = rates < 0.0
    report = ClipReport(
        clipped_total=float(np.abs(rates[negatives]).sum()),
        offdiag_total=float(np.abs(rates).sum()),
        entries_clipped=int(negatives.sum()),
    )
    if report.entries_clipped:
        log.info(
            "clipped %d negative rates totalling %.3g (%.4f%% of off-diagonal flux)",
            report.entries_clipped, report.clipped_total, 100.0 * report.fraction,
        )
    if report.fraction >= CLIP_FRACTION_LIMIT:
        raise ExcessiveClipping(
            f"clipped flux fraction {report.fraction:.3%} is at or above "
            f"{CLIP_FRACTION_LIMIT:.0%}: refine the grid or reduce the "
            "advection strength"
        )
    rates[negatives] = 0.0
    return from_offdiagonal_rates(
        csr_array((rates, (keys // n, keys % n)), shape=(n, n))
    ), report


def polynomial_probes(problem: FpeProblem, seed: int = 0) -> np.ndarray:
    """Six smooth per-cell test functions: random quadratics in scaled coords."""
    rng = np.random.default_rng(seed)
    xg, yg = np.meshgrid(problem.x_centers, problem.y_centers, indexing="ij")
    u = (xg - xg.mean()) / (problem.xlim[1] - problem.xlim[0])
    v = (yg - yg.mean()) / (problem.ylim[1] - problem.ylim[0])
    basis = np.stack([np.ones_like(u), u, v, u * u, u * v, v * v])
    return rng.standard_normal((6, 6)) @ basis.reshape(6, -1)


@dataclass(frozen=True)
class OperatorSymmetryReport:
    """Adjointness residuals of the split discrete operator.

    ``sym_residual`` and ``anti_residual`` quantify ``<Sf, g> == <f, Sg>``
    and ``<Af, g> == -<f, Ag>`` over two fixed blocks of six polynomial
    probes (exact up to round-off, since the parts are built by matrix
    symmetrization).  ``mismatch = ||S - S_d|| / ||L||`` compares the
    symmetric part ``S`` of the full operator ``L`` against the flow
    ``S_d`` of the diffusion-only operator: it measures how exactly the
    diffusion term generates the symmetric flow and the gamma term the
    antisymmetric one, and decays with grid refinement.
    """

    sym_residual: float
    anti_residual: float
    mismatch: float
    operator_norm: float


def operator_symmetry_report(problem: FpeProblem,
                             d: FlowDecomposition) -> OperatorSymmetryReport:
    """Adjointness checks for the discretized operator in flow form.

    ``d`` is the decomposition of ``discretize_fpe(problem)``.  The operator
    acting on ratio coordinates is its flow ``L = Q @ diag(pi)`` with ``pi``
    the stationary distribution of the discrete chain (the exact discrete
    counterpart of the Gibbs weights, matching them to discretization
    error); its symmetric and antisymmetric parts ``S`` and ``A`` play the
    roles of the reversible and circulating generators.  With this
    weighting a pure-diffusion problem yields an exactly symmetric ``L``.
    The probes are ``polynomial_probes`` with seeds 0 (``f``) and 1
    (``g``); each part is applied to each probe block once.
    """
    if d.n != problem.n:
        raise ValueError(
            f"size invariant violated: decomposition has {d.n} states, "
            f"the {problem.nx}x{problem.ny} grid has {problem.n} cells"
        )
    f = polynomial_probes(problem, seed=0)
    g = polynomial_probes(problem, seed=1)
    fg = np.maximum(np.outer(np.linalg.norm(f, axis=1),
                             np.linalg.norm(g, axis=1)), 1e-300)

    def residual(m, sign):
        """max over probe pairs of |<Mf, g> - sign <f, Mg>|, relative."""
        pairs = (f @ m.T) @ g.T - sign * (f @ (g @ m.T).T)
        return float((np.abs(pairs) / fg).max()) / max(float(sparse_norm(m)), 1e-300)

    q_d = discretize_fpe(replace(problem, gamma=np.zeros_like(problem.gamma)))
    s_d = q_d.q * stationary_solve(q_d).p[np.newaxis, :]
    l_norm = max(float(sparse_norm(d.F)), 1e-300)
    return OperatorSymmetryReport(
        sym_residual=residual(d.S, 1.0),
        anti_residual=residual(d.A, -1.0),
        mismatch=float(sparse_norm(d.S - s_d)) / l_norm,
        operator_norm=l_norm,
    )


def refinement_study(domain, grids, phi, diffusion="identity", gamma=0.0):
    """Run the discretization across grid sizes and collect accuracy data.

    Fields must be resamplable (tags or callables).  Returns one dict per
    level with the stationary-versus-Gibbs L1 error, the clip fraction,
    the relative circulation magnitude, and the operator adjointness
    residuals.  Consecutive L1 ratios near 4 per grid doubling are the
    second-order signature of the scheme.  ``grids`` needs at least one
    size.
    """
    if len(grids) < 1:
        raise ValueError(
            "refinement invariant violated: a study needs at least one grid "
            "level, got none"
        )
    # every level's problem is built, and its size checked, before the
    # first level is solved
    problems = [fpe_problem(domain, grid, grid, phi, diffusion, gamma)
                for grid in grids]
    levels = []
    for grid, problem in zip(grids, problems):
        gen, clip = discretize_fpe_detailed(problem)
        gibbs = gibbs_distribution(problem)
        d = decompose(gen)
        l1 = float(np.abs(d.pi.p - gibbs.p).sum())
        flow_scale = max(float(abs(d.F).max()), 1e-300)
        ops = operator_symmetry_report(problem, d)
        levels.append({
            "grid": int(grid),
            "n": problem.n,
            "l1_error_gibbs": l1,
            "clip_fraction": clip.fraction,
            "max_circulation_rel": float(abs(d.A).max()) / flow_scale,
            "sym_residual": ops.sym_residual,
            "anti_residual": ops.anti_residual,
            "mismatch": ops.mismatch,
        })
    return levels
