"""Master-equation integration and entropy traces.

``evolve`` carries the distribution forward from an anchor, the last grid
state written (``p0`` at time 0), and never exponentiates ``q t_k`` from
``p0``.  Every step is accurate to round-off, and which one is taken
depends on ``n`` and on ``mu = max|q_ii|`` times the offset from the
anchor alone:

* a uniformized block (Jensen, Skand. Aktuarietidskr. 36, 1953; Grassmann,
  Comput. Oper. Res. 4(1), 1977): with ``P = I + q/mu``, which is
  entrywise nonnegative, ``exp(q delta) p = sum_j Pois(j; mu delta) P^j p``.
  Every following grid point ``t_k`` with ``mu (t_k - anchor) <= lambda*(n)``
  shares one set of powers ``V_j = P^j p``, ``j <= J``, built for the
  farthest offset ``d``; row ``i`` of the block is
  ``sum_j Pois(j; mu delta_i) V_j``, so its ``B`` rows are one
  ``(B x (J+1))((J+1) x n)`` product, and the last row is the next anchor.
  The Poisson weights are taken in log space (Fox and Glynn, Commun. ACM
  31(4), 1988), and a point at offset 0 gets the exact row ``p``.  Every
  term is nonnegative, so the sum has no cancellation, and the error of
  stopping at ``J`` is the Poisson right tail ``P(N > J)`` times at most
  ``||p||_1``: ``J`` is the least power with ``P(N > J) <= 2^-53`` for
  ``N ~ Poisson(mu d)``.  The reach ``lambda*(n)`` is the largest
  ``lambda`` whose tail beyond ``n`` is at most ``2^-53``, so a block costs
  at most ``n`` matrix-vector products however many points it holds.
* or, on a longer interval ``h``, the propagator ``expm(q h) @ p`` by
  scaling-and-squaring Pade approximation: at least one ``n x n`` matrix
  product, and bounded however large ``||q h||`` grows, which is what a
  metastable chain on a ``10/lambda2`` grid needs.

Blocks are taken only at ``n >= 18``: a block's ``n`` products of ``n^2``
flops each then cost no more than the one ``n^3`` matrix product the
propagator needs at the least, and ``lambda*(18) = 1.22``.  A chain with
``n < 18`` always steps by ``expm``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np
from scipy.linalg import expm

from .core import GeneratorMatrix, ProbabilityVector, _frozen, as_dense
from .decompose import FlowDecomposition
from .entropy import (
    EntropyKind,
    gini_divergence,
    gini_production,
    kl_divergence,
    relative_f_entropy,
    shannon_entropy,
)
from .errors import Overflow

log = logging.getLogger(__name__)

DRIFT_TOL = 1e-9          # mass drift allowed before renormalization
NEGATIVITY_TOL = 1e-10    # most negative entry tolerated before clipping
MONOTONE_TOL = 1e-10      # slack when flagging monotonicity violations
BLOCK_MIN_STATES = 18     # below this size every step is expm (module docstring)
POISSON_TAIL = 2.0 ** -53  # Poisson mass a block may leave past its last power


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time grid, probability rows, and named scalar traces.

    ``states[k]`` is the distribution at ``times[k]``, renormalized
    row-wise (pre-correction drift is logged and bounded by 1e-9).
    ``monotone_violations[name]`` is the first index where the named trace
    breaks its expected monotonicity beyond 1e-10, or None.
    """

    times: np.ndarray
    states: np.ndarray
    traces: dict
    monotone_violations: dict

    def __post_init__(self):
        for name in ("times", "states"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        traces = {name: _frozen(series) for name, series in self.traces.items()}
        object.__setattr__(self, "traces", traces)

    @property
    def n(self) -> int:
        return self.states.shape[1]


def _checked_times(times) -> np.ndarray:
    t = np.asarray(times, dtype=float).reshape(-1)
    if t.size < 1:
        raise ValueError("need at least one time point")
    if not np.isfinite(t).all():
        k = int(np.flatnonzero(~np.isfinite(t))[0])
        raise ValueError(
            f"finiteness invariant violated: times[{k}] = {float(t[k])!r} is not "
            "finite"
        )
    if t[0] < 0.0:
        raise ValueError(f"times must start at >= 0, got {t[0]!r}")
    if t.size > 1 and not (np.diff(t) > 0.0).all():
        raise ValueError("times must be strictly increasing")
    return t


def _cleanup_states(raw: np.ndarray) -> np.ndarray:
    """Renormalize integrator output rows; drift and clipping are logged."""
    drift = np.abs(raw.sum(axis=1) - 1.0).max()
    if drift > DRIFT_TOL:
        log.warning("probability drift %.3g exceeds %.1g before renormalization",
                    drift, DRIFT_TOL)
    elif drift > 0:
        log.debug("max probability drift before renormalization: %.3g", drift)
    most_negative = raw.min()
    if most_negative < 0.0:
        if most_negative < -NEGATIVITY_TOL:
            log.warning("clipping negative probability %.3g (tolerance %.1g)",
                        most_negative, NEGATIVITY_TOL)
        else:
            log.debug("clipping round-off negatives down to %.3g", most_negative)
    states = np.clip(raw, 0.0, None)
    states /= states.sum(axis=1, keepdims=True)
    return states


def _log_factorials(n: int) -> np.ndarray:
    """``log j!`` for ``j < 2n + 52``: past that, the Poisson mass at any
    ``lambda <= lambda*(n) < n`` is far below ``2^-53``."""
    return np.array([math.lgamma(j + 1.0) for j in range(2 * n + 52)])


def _reach(n: int, log_fact: np.ndarray) -> float:
    """``lambda*(n)``: the largest ``lambda`` with ``P(N > n) <= 2^-53`` for
    ``N ~ Poisson(lambda)``, found by Newton's method on ``u = log lambda``.

    ``g(u) = log P(N > n)`` is increasing and concave in ``u``, and the
    start solves ``(n+1) u - log (n+1)! = log 2^-53`` from the bound
    ``P(N > n) <= lambda^(n+1) / (n+1)!``, so it lies below the root and
    the iterates rise to it.  The root is lowered by a relative ``1e-9``,
    which moves the tail by far more than the round-off of its log-space
    sum, so the tail at the returned reach is at most ``2^-53``.
    """
    target = math.log(POISSON_TAIL)
    u = (target + log_fact[n + 1]) / (n + 1)
    j = np.arange(n, log_fact.size)
    for _ in range(100):
        log_pmf = j * u - math.exp(u) - log_fact[n:]
        log_tail = log_pmf[1] + math.log(np.exp(log_pmf[1:] - log_pmf[1]).sum())
        # g'(u) = lambda Pois(n; lambda) / P(N > n)
        step = (target - log_tail) / math.exp(u + log_pmf[0] - log_tail)
        u += step
        if step < 1e-13:
            break
    return math.exp(u) * (1.0 - 1e-9)


def _term_count(lam: float, log_fact: np.ndarray) -> int:
    """The least ``J`` with ``P(N > J) <= 2^-53`` for ``N ~ Poisson(lam)``."""
    if lam == 0.0:
        return 0
    pmf = np.exp(np.arange(log_fact.size) * math.log(lam) - lam - log_fact)
    # tail[J] = P(N > J), summed from the smallest terms up
    tail = np.cumsum(pmf[::-1])[::-1][1:]
    return int(np.argmax(tail <= POISSON_TAIL))


def _uniform_block(P: np.ndarray, p: np.ndarray, lams: np.ndarray,
                   log_fact: np.ndarray) -> np.ndarray:
    """Rows ``exp(q delta_i) p`` for ascending ``lams`` ``mu delta_i >= 0``.

    One set of powers ``P^j p`` of ``P = I + q/mu``, built for the farthest
    ``lams[-1]``, serves every row with its Poisson weights (module
    docstring).  A row at ``lams_i = 0`` is ``p`` itself.
    """
    terms = _term_count(float(lams[-1]), log_fact) + 1
    powers = np.empty((terms, p.size))
    powers[0] = p
    for j in range(1, terms):
        powers[j] = P @ powers[j - 1]
    positive = lams > 0.0
    log_lams = np.log(lams, out=np.zeros_like(lams), where=positive)
    # log Pois(j; lam_i) = j log lam_i - lam_i - log j!, built in place
    weights = np.multiply.outer(log_lams, np.arange(terms))
    weights -= lams[:, np.newaxis]
    weights -= log_fact[:terms]
    np.exp(weights, out=weights)
    weights[~positive] = np.eye(1, terms)
    return weights @ powers


def evolve(gen: GeneratorMatrix, p0: ProbabilityVector, times) -> Trajectory:
    """Integrate ``dp/dt = q p`` forward from the last grid state written.

    At ``n >= 18`` every grid point with ``mu (t_k - anchor) <= lambda*(n)``,
    ``mu = max|q_ii|``, joins one uniformized block of at most ``n``
    matrix-vector products however many points it holds, whose truncation
    leaves a Poisson tail of at most ``2^-53``.  A longer interval ``h``, and
    every interval at ``n < 18``, takes ``expm(q h)`` (module docstring).
    Raises :class:`Overflow` when a state is not finite: the step to it
    left double precision.
    """
    if p0.n != gen.n:
        raise ValueError(
            f"size invariant violated: p0 has {p0.n} entries, the generator "
            f"has {gen.n} states"
        )
    t = _checked_times(times)
    q = as_dense(gen.q)
    mu = float(-q.diagonal().min())
    reach = -math.inf
    if gen.n >= BLOCK_MIN_STATES and mu > 0.0:
        log_fact = _log_factorials(gen.n)
        reach = _reach(gen.n, log_fact)
        P = q / mu
        P[np.diag_indices_from(P)] += 1.0
    grid = t.tolist()
    raw = np.empty((t.size, gen.n))
    p, anchor, k = p0.p, 0.0, 0
    while k < t.size:
        h = grid[k] - anchor
        if mu * h <= reach:
            # mu (t - anchor) rises with t, so the points in reach are a prefix
            lams = mu * (t[k:] - anchor)
            stop = k + int(np.searchsorted(lams, reach, side="right"))
            rows = _uniform_block(P, p, lams[:stop - k], log_fact)
        else:
            stop = k + 1
            rows = (expm(q * h) @ p)[np.newaxis, :]
        finite = np.isfinite(rows).all(axis=1)
        if not finite.all():
            bad = grid[k + int(np.argmin(finite))]
            raise Overflow(
                f"finiteness invariant violated: the state at t = {bad!r} is not "
                f"finite; the step h = {bad - anchor!r} from t = {anchor!r} "
                "overflows double precision"
            )
        raw[k:stop] = rows
        p, anchor, k = rows[-1], grid[stop - 1], stop
    return Trajectory(
        times=t, states=_cleanup_states(raw), traces={}, monotone_violations={}
    )


def default_time_grid(gen: GeneratorMatrix, points: int = 200,
                      t_max: float | None = None,
                      decay_rate: float | None = None) -> np.ndarray:
    """Log-spaced grid reaching well past the relaxation time.

    ``t_max`` defaults to ``10/decay_rate`` when a decay rate (for example
    the spectral gap) is supplied, else ``10/min|q_ii|``; it must be > 0.
    ``points`` must be at least 1.
    """
    if points < 1:
        raise ValueError(
            f"grid invariant violated: need at least one time point, got "
            f"points = {points}"
        )
    if t_max is None:
        if decay_rate is not None and decay_rate > 0:
            t_max = 10.0 / decay_rate
        else:
            t_max = 10.0 / np.abs(gen.q.diagonal()).min()
    if not np.isfinite(t_max):
        raise ValueError(f"finiteness invariant violated: t_max = {float(t_max)!r}")
    if t_max <= 0.0:
        raise ValueError(f"t_max must be > 0, got {float(t_max)!r}")
    return np.geomspace(t_max / 1000.0, t_max, points)


def _first_shift(x: np.ndarray, direction: int, tol: float):
    """Index k of the first step where x[k+1] moves in ``direction`` beyond tol."""
    diffs = np.diff(x) * direction
    hits = np.flatnonzero(diffs > tol)
    return int(hits[0]) if hits.size else None


def _nonmonotone_index(x: np.ndarray, tol: float):
    up = _first_shift(x, +1, tol)
    down = _first_shift(x, -1, tol)
    if up is None or down is None:
        return None
    return max(up, down)


def entropy_trace(traj: Trajectory, d: FlowDecomposition,
                  kinds: Iterable[EntropyKind]) -> Trajectory:
    """Attach per-time entropy series and monotonicity flags to a trajectory.

    Each series is one call of its entropy function on the stack
    ``traj.states``.  ``d`` is the decomposition of the chain that produced
    ``traj``: the divergences are taken to ``d.pi`` and the production uses
    ``d.S``.
    Expected directions: the ``kl`` and ``gini_divergence`` series are
    non-increasing, a custom ``relative_f`` series (entropy orientation,
    <= 0) is non-decreasing, and bare Shannon entropy has no guaranteed
    direction so its flag fires only when the series both rises and falls.
    ``gini_production`` (emitted together with the divergence) is a
    derivative series and carries no flag.
    """
    traces = dict(traj.traces)
    flags = dict(traj.monotone_violations)
    rows, pi = traj.states, d.pi
    for kind in sorted(kinds, key=lambda k: k.trace_name):
        if kind.tag == "shannon":
            series = shannon_entropy(rows)
            flag = _nonmonotone_index(series, MONOTONE_TOL)
        elif kind.tag == "relative_shannon":
            series = kl_divergence(rows, pi)
            flag = _first_shift(series, +1, MONOTONE_TOL)
        elif kind.tag == "relative_gini":
            series = gini_divergence(rows, pi)
            flag = _first_shift(series, +1, MONOTONE_TOL)
            traces["gini_production"] = gini_production(rows, d)
        else:  # relative_f
            series = relative_f_entropy(rows, pi, kind.f)
            flag = _first_shift(series, -1, MONOTONE_TOL)
        traces[kind.trace_name] = series
        flags[kind.trace_name] = flag
    return replace(traj, traces=traces, monotone_violations=flags)
