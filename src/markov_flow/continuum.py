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
the adjointness report all run on the sparse matrices.  Where each face
update goes depends only on the grid: that stencil geometry is built at a
problem's first assembly and kept on the problem.
Negative off-diagonal rates — the classic failure of central schemes when
advection beats diffusion on a coarse grid — are clipped to zero; the
clipped mass is reported and a fraction above 1% of the total off-diagonal
flux raises instead of silently distorting the chain.

The adjointness report's ``mismatch = ||S - S_d|| / ||L||`` (Frobenius
norms) compares the symmetric part ``S`` of the flow ``L = Q diag(pi)``
with the flow ``S_d`` of the diffusion-only twin: the problem at
``gamma = 0``, assembled on the problem's own stencil geometry.

Cells are indexed row-major: state ``i * ny + j`` is cell ``(i, j)``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .core import GeneratorMatrix, ProbabilityVector, _frozen, _max_abs, _read_numbers, from_offdiagonal_rates
from .decompose import FlowDecomposition, _flow, decompose
from .errors import ExcessiveClipping, Overflow, TooLarge
from .stationary import stationary_solve

log = logging.getLogger(__name__)

MAX_CELLS = 65536         # one level this size: ~1.3 s and ~0.3 GB on one core
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

    # not a field: the grid's stencil geometry, set by the first assembly
    _stencil = None

    def __post_init__(self):
        for name in ("phi", "diffusion", "gamma"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))

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
    ``gamma`` may be a scalar, a callable, or an (nx, ny) array.  Samples
    and domain bounds must be numbers, ints or floats with numpy scalars
    included: a bool, ``None``, a string, a NaN or infinite sample or a
    wrongly shaped field raises ``ValueError``, as does a grid size ``nx``
    or ``ny`` that is not an integer.
    """
    xlo, xhi, ylo, yhi = _domain_bounds(domain)
    if not all(isinstance(k, (int, np.integer)) and type(k) is not bool for k in (nx, ny)):
        raise ValueError(f"grid invariant violated: nx and ny must be integers, "
                         f"got {nx!r} and {ny!r}")
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
    else:
        phi_field = _field(phi(xg, yg) if callable(phi) else phi, "phi samples")
    if phi_field.shape != (nx, ny):
        raise ValueError(
            f"potential samples have shape {phi_field.shape}, expected {(nx, ny)}"
        )

    if isinstance(diffusion, str):
        if diffusion != "identity":
            raise ValueError(f"unknown diffusion tag {diffusion!r}")
        diffusion = np.eye(2)
    elif callable(diffusion):
        diffusion = [[diffusion(x, y) for y in ys] for x in xs]
    d_field = _field(diffusion, "D")
    if d_field.shape == (2, 2):
        d_field = np.broadcast_to(d_field, (nx, ny, 2, 2)).copy()
    elif d_field.shape != (nx, ny, 2, 2):
        raise ValueError(
            f"problem invariant violated: D must be 2x2 or {(nx, ny, 2, 2)}, "
            f"got shape {d_field.shape}"
        )
    _check_diffusion(d_field)

    gamma_field = _field(gamma(xg, yg) if callable(gamma) else gamma, "gamma")
    if gamma_field.ndim == 0:
        gamma_field = np.full((nx, ny), gamma_field)
    if gamma_field.shape != (nx, ny):
        raise ValueError(
            f"problem invariant violated: gamma must be a scalar or {(nx, ny)}, "
            f"got shape {gamma_field.shape}"
        )

    return FpeProblem(
        xlim=(xlo, xhi),
        ylim=(ylo, yhi),
        nx=nx,
        ny=ny,
        phi=phi_field,
        diffusion=d_field,
        gamma=gamma_field,
    )


def _field(values, name: str) -> np.ndarray:
    """The sampled field ``values`` as a new float array; ``ValueError``
    unless it is finite numbers."""
    return _read_numbers(values, f"problem invariant violated: {name}", "numbers", name)


def _domain_bounds(domain) -> tuple[float, float, float, float]:
    """``xlo, xhi, ylo, yhi`` of a domain ``((xlo, xhi), (ylo, yhi))``.

    Raises ``ValueError`` unless the bounds are numbers and each interval
    has a positive, finite width.
    """
    message = (f"domain invariant violated: the domain must be two finite "
               f"(lo, hi) pairs with lo < hi, got {domain!r}")
    bounds = _read_numbers(domain, "domain invariant violated: the domain",
                           "two (lo, hi) pairs of numbers")
    if bounds.shape != (2, 2):
        raise ValueError(message)
    (xlo, xhi), (ylo, yhi) = bounds.tolist()
    # a bound that is not finite leaves lo >= hi, or a width that is not
    if not (xlo < xhi and ylo < yhi
            and math.isfinite(xhi - xlo) and math.isfinite(yhi - ylo)):
        raise ValueError(message)
    return xlo, xhi, ylo, yhi


def _check_diffusion(d: np.ndarray):
    # the checks read D scaled by the power of two that brings max|D| into
    # [0.5, 1): the scaling is exact, and det's products cannot overflow
    d, e = _unit_scaled(d)
    scale = np.abs(d).max()
    tol = DIFFUSION_RTOL * scale
    asym = np.abs(d[..., 0, 1] - d[..., 1, 0]).max()
    if asym > tol:
        raise ValueError(
            f"diffusion symmetry violated: max|D01 - D10| = {np.ldexp(asym, e):.3g}"
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


def _face_keys(ids, offsets):
    """Where the updates of :func:`_face_values` go: the key of each.

    ``ids`` holds the cells' int32 state indices, indexed (normal,
    transverse).  The flux through the face between ``lo = [a, b]`` and
    ``hi = [a + 1, b]`` is added to ``lo``'s row and taken from ``hi``'s, so
    every column keeps a zero sum.  An update's key is ``9 * row + slot``,
    where ``slot`` is the rank of its column's offset from its row among the
    nine sorted stencil ``offsets``.
    """
    k = np.arange(ids.shape[1])
    up, dn = np.minimum(k + 1, k[-1]), np.maximum(k - 1, 0)
    # one update per (face, term, side), in that order, so each rate sums
    # its terms face by face: a term goes to lo's row, then from hi's
    rows = np.stack([ids[:-1], ids[1:]], axis=-1)[:, :, np.newaxis, :]
    # ids is an index grid, so a column's offset from its row depends only
    # on the transverse position: the first row of faces gives every slot
    lo, hi = ids[0], ids[1]
    cols = np.stack([lo, hi, lo, lo[up], lo[dn], hi, hi[up], hi[dn]], axis=-1)
    slots = np.searchsorted(offsets, cols[:, :, np.newaxis] - rows[0])
    return (9 * rows + slots.astype(np.int32)).ravel()


def _face_values(out, phi, d_nn, d_nt, g_nt, h_n, h_t):
    """Write the rate updates of the fluxes through every face normal to
    the fields' first axis into ``out``, in the order of :func:`_face_keys`.

    Fields are indexed (normal, transverse).  ``d_nn`` and ``d_nt`` are
    the normal-normal and normal-transverse entries of ``D`` and ``g_nt``
    the normal-transverse entry of ``G``, each averaged over the face's two
    cells; ``h_n``, ``h_t`` are the normal and transverse spacings.  The
    transverse gradient is a central difference clamped at the walls.
    """
    k = np.arange(phi.shape[1])
    up, dn = np.minimum(k + 1, k[-1]), np.maximum(k - 1, 0)
    nn = 0.5 * (d_nn[:-1] + d_nn[1:])
    nt = 0.5 * (d_nt[:-1] + g_nt[:-1] + d_nt[1:] + g_nt[1:])
    dphi_n = (phi[1:] - phi[:-1]) / h_n
    dphi_t = (phi[:, up] - phi[:, dn]) / (2.0 * h_t)
    w = nt * 0.5 / (2.0 * h_t)
    terms = (nn * (0.5 * dphi_n - 1.0 / h_n), nn * (0.5 * dphi_n + 1.0 / h_n),
             nt * 0.5 * dphi_t[:-1], w, -w, nt * 0.5 * dphi_t[1:], w, -w)
    # indexed (face, transverse, term, side): lo's row gains each term and
    # hi's row loses it
    updates = out.reshape(nn.shape + (len(terms), 2))
    for k, term in enumerate(terms):
        np.divide(term, h_n, out=updates[:, :, k, 0])
    np.negative(updates[..., 0], out=updates[..., 1])


def _stencil_geometry(nx: int, ny: int):
    """The stencil geometry of an ``nx``-by-``ny`` grid, ``(bins, indices,
    indptr)``, read-only.

    ``bins`` holds, for each face update (x faces first), the rate it adds
    to: that rate's position in the CSR arrays, or one spare bin past the
    last rate for an update of the diagonal, which is dropped.  ``indices``
    and ``indptr`` are the CSR pattern of the off-diagonal rates.
    """
    n = nx * ny
    ids = np.arange(n, dtype=np.int32).reshape(nx, ny)
    # a rate's key is its row and the rank of its column's offset among the
    # nine stencil offsets: keys sort as (row, col) pairs do
    offsets = np.array([-ny - 1, -ny, -ny + 1, -1, 0, 1, ny - 1, ny, ny + 1],
                       dtype=np.int32)
    # the y faces are the x faces of the transposed grid
    keys = np.concatenate([_face_keys(ids, offsets), _face_keys(ids.T, offsets)])
    present = np.zeros(9 * n, dtype=bool)
    present[keys] = True
    present[4::9] = False   # the diagonal
    slots = np.flatnonzero(present).astype(np.int32)
    rank = np.full(9 * n, slots.size, dtype=np.int32)
    rank[slots] = np.arange(slots.size, dtype=np.int32)
    cells = slots // 9
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(cells, minlength=n), out=indptr[1:])
    geometry = rank[keys], cells + offsets[slots % 9], indptr
    for array in geometry:
        array.flags.writeable = False
    return geometry


def _assemble(problem: FpeProblem, gamma: np.ndarray):
    """``(generator, clip_report)`` of ``problem``'s operator with ``gamma``
    in place of ``problem.gamma``; see :func:`discretize_fpe_detailed`.

    Rates that overflow are left to :func:`from_offdiagonal_rates`'s
    finiteness check.
    """
    from scipy.sparse import csr_array

    if problem._stencil is None:
        object.__setattr__(problem, "_stencil",
                           _stencil_geometry(problem.nx, problem.ny))
    bins, indices, indptr = problem._stencil
    phi, dif, n = problem.phi, problem.diffusion, problem.n
    values = np.empty(bins.size)
    x_faces = 16 * (problem.nx - 1) * problem.ny
    with np.errstate(over="ignore", invalid="ignore"):
        # the y faces are the x faces of the transposed fields, where G's
        # off-axis entry changes sign
        _face_values(values[:x_faces], phi, dif[..., 0, 0], dif[..., 0, 1],
                     gamma, problem.hx, problem.hy)
        _face_values(values[x_faces:], phi.T, dif[..., 1, 1].T, dif[..., 1, 0].T,
                     -gamma.T, problem.hy, problem.hx)
        # bincount adds each rate's updates in assembly order
        rates = np.bincount(bins, weights=values, minlength=indices.size + 1)[:-1]
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
        csr_array((rates, indices, indptr), shape=(n, n))
    ), report


def discretize_fpe_detailed(problem: FpeProblem):
    """Assemble the finite-volume rate matrix and the clipping report.

    Returns ``(generator, clip_report)``; the generator is CSR.  The face
    updates of each rate are summed in assembly order, so the rates are
    those of the face-by-face loop to the last bit.  The summed rates come
    out in (row, column) order and become the CSR arrays of the rate matrix
    as they are.  Where each update goes depends only on the grid: that
    stencil geometry is built once per problem and stored on it.  Raises
    :class:`ExcessiveClipping` when more than 1% of the off-diagonal flux
    magnitude had to be removed — the scheme is then too coarse for the
    advection strength and the detailed-balance structure would be
    distorted beyond the discretization error — and
    :class:`~markov_flow.errors.MarkovFlowError` when a rate overflows.
    """
    return _assemble(problem, problem.gamma)


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

    ``S_d`` in ``mismatch = ||S - S_d|| / ||L||`` (Frobenius norms) is the
    flow of the diffusion-only twin: ``problem`` at ``gamma = 0``, assembled
    on the stencil geometry stored on ``problem``, with its own ``pi``.
    Norms and probe products are taken of matrices scaled by a power of
    two (:func:`_unit_scaled`), so no square overflows at any scale of ``D``.
    """
    if d.n != problem.n:
        raise ValueError(
            f"size invariant violated: decomposition has {d.n} states, "
            f"the {problem.nx}x{problem.ny} grid has {problem.n} cells"
        )
    from scipy.sparse import csr_array

    f = polynomial_probes(problem, seed=0)
    g = polynomial_probes(problem, seed=1)
    fg = np.maximum(np.outer(np.linalg.norm(f, axis=1),
                             np.linalg.norm(g, axis=1)), 1e-300)

    def residual(m, sign):
        """max over probe pairs of |<Mf, g> - sign <f, Mg>|, relative."""
        data, _ = _unit_scaled(m.data)
        m = csr_array((data, m.indices, m.indptr), shape=m.shape)
        pairs = (f @ m.T) @ g.T - sign * (f @ (g @ m.T).T)
        return float((np.abs(pairs) / fg).max()) / max(float(np.linalg.norm(data)), 1e-300)

    # the diffusion-only twin, on this problem's stencil geometry
    q_d, _ = _assemble(problem, np.zeros_like(problem.gamma))
    s_d = _flow(q_d.q, stationary_solve(q_d).p)
    diff, e_diff = _unit_scaled((d.S - s_d).data)
    flow, e_flow = _unit_scaled(d.F.data)
    l_norm = max(float(np.linalg.norm(flow)), 1e-300)
    return OperatorSymmetryReport(
        sym_residual=residual(d.S, 1.0),
        anti_residual=residual(d.A, -1.0),
        mismatch=math.ldexp(float(np.linalg.norm(diff)) / l_norm, e_diff - e_flow),
    )


def _unit_scaled(values):
    """``(values * 2**-e, e)``, with the ``e`` that brings max|values| into
    [0.5, 1) (0 when every value is zero).  The scaling is exact, so a ratio
    of norms or probe products of scaled values is that of the values
    themselves to the last bit."""
    e = int(np.frexp(_max_abs(values))[1])
    return np.ldexp(values, -e), e


def refinement_study(domain, grids, phi, diffusion="identity", gamma=0.0):
    """Run the discretization across grid sizes and collect accuracy data.

    Returns one dict per level with the stationary-versus-Gibbs L1 error,
    the clip fraction, the relative circulation magnitude, and the operator
    adjointness residuals.  Consecutive L1 ratios near 4 per grid doubling
    are the second-order signature of the scheme.  ``grids`` needs at least
    one size; with more, a field sampled on one grid raises ``ValueError``
    before any level is built (tags, callables and constants are resampled).
    """
    if len(grids) < 1:
        raise ValueError(
            "refinement invariant violated: a study needs at least one grid "
            "level, got none"
        )
    # samples carry two grid axes before those of a value (a scalar, a 2x2 D)
    for name, field, grid_ndim in (("phi", phi, 2), ("D", diffusion, 4),
                                   ("gamma", gamma, 2)):
        if len(grids) > 1 and np.array(field, dtype=object).ndim >= grid_ndim:
            raise ValueError(f"problem invariant violated: sampled {name} cannot be "
                             f"resampled onto {len(grids)} grids; study one grid")
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
        flow_scale = max(float(_max_abs(d.F)), 1e-300)
        ops = operator_symmetry_report(problem, d)
        levels.append({
            "grid": int(grid),
            "n": problem.n,
            "l1_error_gibbs": l1,
            "clip_fraction": clip.fraction,
            "max_circulation_rel": float(_max_abs(d.A)) / flow_scale,
            "sym_residual": ops.sym_residual,
            "anti_residual": ops.anti_residual,
            "mismatch": ops.mismatch,
        })
    return levels
