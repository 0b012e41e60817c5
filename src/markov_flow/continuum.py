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
columns sum to zero by construction.  Negative off-diagonal rates — the
classic failure of central schemes when advection beats diffusion on a
coarse grid — are clipped to zero; the clipped mass is reported and a
fraction above 1% of the total off-diagonal flux raises instead of
silently distorting the chain.

Cells are indexed row-major: state ``i * ny + j`` is cell ``(i, j)``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .core import GeneratorMatrix, ProbabilityVector, from_offdiagonal_rates
from .decompose import FlowDecomposition, decompose
from .errors import ExcessiveClipping, Overflow, TooLarge
from .stationary import stationary_solve

log = logging.getLogger(__name__)

MAX_CELLS = 8192          # dense matrices past this are pointless
MAX_PHI_RANGE = 700.0     # exp() underflow guard
CLIP_FRACTION_LIMIT = 0.01

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
            f"{nx}x{ny} grid has {nx * ny} cells; dense handling is capped "
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


def _check_diffusion(d: np.ndarray, tol: float = 1e-12):
    scale = max(np.abs(d).max(), 1e-300)
    asym = np.abs(d[..., 0, 1] - d[..., 1, 0]).max()
    if asym > tol * scale:
        raise ValueError(
            f"diffusion symmetry violated: max|D01 - D10| = {asym:.3g}"
        )
    det = d[..., 0, 0] * d[..., 1, 1] - d[..., 0, 1] * d[..., 1, 0]
    if d[..., 0, 0].min() < -tol * scale or d[..., 1, 1].min() < -tol * scale \
            or det.min() < -tol * scale * scale:
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


def discretize_fpe_detailed(problem: FpeProblem):
    """Assemble the finite-volume rate matrix and the clipping report.

    Returns ``(generator, clip_report)``.  Raises
    :class:`ExcessiveClipping` when more than 1% of the off-diagonal flux
    magnitude had to be removed — the scheme is then too coarse for the
    advection strength and the detailed-balance structure would be
    distorted beyond the discretization error.
    """
    nx, ny = problem.nx, problem.ny
    hx, hy = problem.hx, problem.hy
    phi = problem.phi
    dif = problem.diffusion
    gam = problem.gamma
    n = problem.n
    idx = problem.index

    L = np.zeros((n, n))

    def face(cell_lo, cell_hi, axis):
        """Flux stencil through the face between two cells along ``axis``
        (0 = x, 1 = y), as a list of (cell, coefficient) pairs."""
        (i0, j0), (i1, j1) = cell_lo, cell_hi
        h_n = hx if axis == 0 else hy          # normal spacing
        h_t = hy if axis == 0 else hx          # transverse spacing
        d_nn = 0.5 * (dif[i0, j0, axis, axis] + dif[i1, j1, axis, axis])
        # off-axis entry of D + G on this face; G flips sign across axes
        if axis == 0:
            d_nt = 0.5 * (dif[i0, j0, 0, 1] + gam[i0, j0]
                          + dif[i1, j1, 0, 1] + gam[i1, j1])
        else:
            d_nt = 0.5 * (dif[i0, j0, 1, 0] - gam[i0, j0]
                          + dif[i1, j1, 1, 0] - gam[i1, j1])
        dphi_n = (phi[i1, j1] - phi[i0, j0]) / h_n
        terms = [
            (idx(i0, j0), d_nn * (0.5 * dphi_n - 1.0 / h_n)),
            (idx(i1, j1), d_nn * (0.5 * dphi_n + 1.0 / h_n)),
        ]
        if d_nt != 0.0:
            for (ia, ja) in (cell_lo, cell_hi):
                if axis == 0:
                    up = (ia, min(ja + 1, ny - 1))
                    dn = (ia, max(ja - 1, 0))
                    dphi_t = (phi[up] - phi[dn]) / (2.0 * h_t)
                else:
                    up = (min(ia + 1, nx - 1), ja)
                    dn = (max(ia - 1, 0), ja)
                    dphi_t = (phi[up] - phi[dn]) / (2.0 * h_t)
                terms.append((idx(ia, ja), d_nt * 0.5 * dphi_t))
                terms.append((idx(*up), d_nt * 0.5 / (2.0 * h_t)))
                terms.append((idx(*dn), -d_nt * 0.5 / (2.0 * h_t)))
        return terms

    for i in range(nx - 1):
        for j in range(ny):
            lo, hi = idx(i, j), idx(i + 1, j)
            for cell, coeff in face((i, j), (i + 1, j), axis=0):
                L[lo, cell] += coeff / hx
                L[hi, cell] -= coeff / hx
    for i in range(nx):
        for j in range(ny - 1):
            lo, hi = idx(i, j), idx(i, j + 1)
            for cell, coeff in face((i, j), (i, j + 1), axis=1):
                L[lo, cell] += coeff / hy
                L[hi, cell] -= coeff / hy

    off = L.copy()
    np.fill_diagonal(off, 0.0)
    negatives = off < 0.0
    clipped_total = float(np.abs(off[negatives]).sum())
    offdiag_total = float(np.abs(off).sum())
    report = ClipReport(
        clipped_total=clipped_total,
        offdiag_total=offdiag_total,
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
    rates = np.clip(off, 0.0, None)
    return from_offdiagonal_rates(rates), report


def polynomial_probes(problem: FpeProblem, count: int = 6,
                      seed: int = 0) -> np.ndarray:
    """Smooth per-cell test functions: random quadratics in scaled coords."""
    rng = np.random.default_rng(seed)
    xg, yg = np.meshgrid(problem.x_centers, problem.y_centers, indexing="ij")
    u = (xg - xg.mean()) / (problem.xlim[1] - problem.xlim[0])
    v = (yg - yg.mean()) / (problem.ylim[1] - problem.ylim[0])
    basis = [np.ones_like(u), u, v, u * u, u * v, v * v]
    coeffs = rng.standard_normal((count, len(basis)))
    probes = np.stack(
        [sum(c * b for c, b in zip(row, basis)).reshape(-1) for row in coeffs]
    )
    return probes


@dataclass(frozen=True)
class OperatorSymmetryReport:
    """Adjointness residuals of the split discrete operator.

    ``sym_residual`` and ``anti_residual`` quantify ``<Sf, g> == <f, Sg>``
    and ``<Af, g> == -<f, Ag>`` over the supplied test functions (exact up
    to round-off, since the parts are built by matrix symmetrization).
    ``mismatch`` compares the diffusion-only operator against the symmetric
    part of the full operator: it measures how exactly the diffusion term
    generates the symmetric flow and the gamma term the antisymmetric one,
    and decays with grid refinement.
    """

    sym_residual: float
    anti_residual: float
    mismatch: float
    operator_norm: float


def operator_symmetry_report(problem: FpeProblem, d: FlowDecomposition,
                             f_samples=None, g_samples=None) -> OperatorSymmetryReport:
    """Adjointness checks for the discretized operator in flow form.

    ``d`` is the decomposition of ``discretize_fpe(problem)``.  The operator
    acting on ratio coordinates is its flow ``L = Q @ diag(pi)`` with ``pi``
    the stationary distribution of the discrete chain (the exact discrete
    counterpart of the Gibbs weights, matching them to discretization
    error); its symmetric and antisymmetric parts ``S`` and ``A`` play the
    roles of the reversible and circulating generators.  With this
    weighting a pure-diffusion problem yields an exactly symmetric ``L``.
    """
    if d.n != problem.n:
        raise ValueError(
            f"size invariant violated: decomposition has {d.n} states, "
            f"the {problem.nx}x{problem.ny} grid has {problem.n} cells"
        )
    if f_samples is None:
        f_samples = polynomial_probes(problem, count=6, seed=0)
    if g_samples is None:
        g_samples = polynomial_probes(problem, count=6, seed=1)
    f_samples = np.atleast_2d(np.asarray(f_samples, dtype=float))
    g_samples = np.atleast_2d(np.asarray(g_samples, dtype=float))

    L, sym, anti = d.F, d.S, d.A

    diffusion_only = fpe_problem(
        (problem.xlim, problem.ylim), problem.nx, problem.ny,
        phi=problem.phi, diffusion=problem.diffusion, gamma=0.0,
    )
    q_d = discretize_fpe(diffusion_only)
    s_d = q_d.q * stationary_solve(q_d).p[np.newaxis, :]
    a_g = L - s_d

    sym_norm = max(np.linalg.norm(sym), 1e-300)
    anti_norm = max(np.linalg.norm(anti), 1e-300)
    sym_res = 0.0
    anti_res = 0.0
    for f in f_samples:
        for g in g_samples:
            fg = max(np.linalg.norm(f) * np.linalg.norm(g), 1e-300)
            sym_res = max(sym_res, abs((sym @ f) @ g - f @ (sym @ g)) / (sym_norm * fg))
            anti_res = max(anti_res, abs((anti @ f) @ g + f @ (anti @ g)) / (anti_norm * fg))

    l_norm = max(np.linalg.norm(L), 1e-300)
    mismatch = float(np.linalg.norm(a_g - anti) / l_norm)
    return OperatorSymmetryReport(
        sym_residual=float(sym_res),
        anti_residual=float(anti_res),
        mismatch=mismatch,
        operator_norm=float(l_norm),
    )


def refinement_study(domain, grids, phi, diffusion="identity", gamma=0.0):
    """Run the discretization across grid sizes and collect accuracy data.

    Fields must be resamplable (tags or callables).  Returns one dict per
    level with the stationary-versus-Gibbs L1 error, the clip fraction,
    the relative circulation magnitude, and the operator adjointness
    residuals.  Consecutive L1 ratios near 4 per grid doubling are the
    second-order signature of the scheme.
    """
    levels = []
    for grid in grids:
        problem = fpe_problem(domain, grid, grid, phi, diffusion, gamma)
        gen, clip = discretize_fpe_detailed(problem)
        gibbs = gibbs_distribution(problem)
        d = decompose(gen)
        l1 = float(np.abs(d.pi.p - gibbs.p).sum())
        flow_scale = max(float(np.abs(d.F).max()), 1e-300)
        ops = operator_symmetry_report(problem, d)
        levels.append({
            "grid": int(grid),
            "n": problem.n,
            "l1_error_gibbs": l1,
            "clip_fraction": clip.fraction,
            "max_circulation_rel": float(np.abs(d.A).max()) / flow_scale,
            "sym_residual": ops.sym_residual,
            "anti_residual": ops.anti_residual,
            "mismatch": ops.mismatch,
        })
    return levels
