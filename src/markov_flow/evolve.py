"""Master-equation integration and entropy traces.

``evolve`` steps the distribution from one grid point to the next,
``p_k = exp(q h_k) p_{k-1}`` with ``h_k = t_k - t_{k-1}`` and ``p_{-1} = p0``
at time 0; it never exponentiates ``q t_k`` from ``p0``.  Each interval
takes the cheaper of two steps, both accurate to round-off, chosen from
``n`` and ``||q||_1 h`` alone:

* the action of the exponential by truncated Taylor series (Al-Mohy and
  Higham, SIAM J. Sci. Comput. 33(2), 2011): ``s = ceil(||q||_1 h)``
  substeps of 1-norm at most 1, each summing at most 18 terms of the
  series and stopping early once a term falls below ``2^-53`` of the
  running sum.  Eighteen terms suffice because ``theta_18 = 1.09 >= 1``
  is the largest 1-norm for which 18 terms reach unit round-off
  ``2^-53``.  Cost: at most ``18 s`` matrix-vector products.
* the propagator ``expm(q h) @ p`` by scaling-and-squaring Pade
  approximation.  Cost: at least one ``n x n`` matrix product, and bounded
  however large ``||q h||`` grows, which is what a metastable chain on a
  ``10/lambda2`` grid needs.

The action is taken iff ``18 s <= n``: then its worst case, ``18 s``
matrix-vector products of ``n^2`` flops each, costs no more than the one
``n^3`` matrix product the propagator needs at the least.

A classical fixed-step RK4 integrator is kept alongside purely as an
independent cross-check; it shares nothing with ``evolve`` but the
generator.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np
from scipy.linalg import expm

from .core import GeneratorMatrix, ProbabilityVector, as_dense
from .decompose import FlowDecomposition
from .entropy import (
    EntropyKind,
    gini_divergence,
    gini_production,
    kl_divergence,
    relative_f_entropy,
    shannon_entropy,
)
from .errors import Overflow, StepTooLarge

log = logging.getLogger(__name__)

DRIFT_TOL = 1e-9          # mass drift allowed before renormalization
NEGATIVITY_TOL = 1e-10    # most negative entry tolerated before clipping
MONOTONE_TOL = 1e-10      # slack when flagging monotonicity violations
TAYLOR_TERMS = 18         # theta_18 = 1.09 >= 1 for unit round-off 2^-53
TAYLOR_TOL = 2.0 ** -53   # a Taylor term this small relative to the sum ends it


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
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.states.shape[1]

    def state(self, k: int) -> ProbabilityVector:
        return ProbabilityVector(self.states[k])


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


def _taylor_action(q: np.ndarray, p: np.ndarray, h: float, s: int) -> np.ndarray:
    """``exp(q h) p`` as ``s`` substeps of the truncated Taylor series."""
    for _ in range(s):
        term = p
        for j in range(1, TAYLOR_TERMS + 1):
            term = (h / (s * j)) * (q @ term)
            p = p + term
            if np.abs(term).sum() <= TAYLOR_TOL * np.abs(p).sum():
                break
    return p


def evolve(gen: GeneratorMatrix, p0: ProbabilityVector, times) -> Trajectory:
    """Integrate ``dp/dt = q p`` by stepping between grid points.

    Each interval ``h`` takes the truncated-Taylor action when its
    ``s = ceil(||q||_1 h)`` substeps satisfy ``18 s <= n``, else the
    propagator ``expm(q h)`` (module docstring).  Raises :class:`Overflow`
    when a state is not finite: the step to it left double precision.
    """
    if p0.n != gen.n:
        raise ValueError(
            f"size invariant violated: p0 has {p0.n} entries, the generator "
            f"has {gen.n} states"
        )
    t = _checked_times(times)
    q = as_dense(gen.q)
    q_norm = np.abs(q).sum(axis=0).max()
    # 18 s <= n  iff  ||q||_1 h <= n // 18: tested without ceil(), which
    # raises on an infinite ||q||_1 h
    max_substeps = gen.n // TAYLOR_TERMS
    raw = np.empty((t.size, gen.n))
    p, prev = p0.p, 0.0
    for k, tk in enumerate(t):
        h = tk - prev
        step_norm = q_norm * h
        if step_norm <= max_substeps:
            p = _taylor_action(q, p, h, math.ceil(step_norm))
        else:
            p = expm(q * h) @ p
        if not np.isfinite(p).all():
            raise Overflow(
                f"finiteness invariant violated: the state at t = {float(tk)!r} "
                f"is not finite; the step h = {float(h)!r} from t = "
                f"{float(prev)!r} overflows double precision"
            )
        raw[k] = p
        prev = tk
    return Trajectory(
        times=t, states=_cleanup_states(raw), traces={}, monotone_violations={}
    )


def rk4_integrate(gen: GeneratorMatrix, p0: ProbabilityVector,
                  t_end: float, h: float) -> Trajectory:
    """Classical fixed-step RK4 integration of the master equation.

    Used in tests and cross-checks as the integrator that shares no code
    with :func:`evolve`.  The step must satisfy ``h <= 0.1/max|q_ii|``.
    """
    max_diag = np.abs(gen.q.diagonal()).max()
    if h <= 0.0:
        raise ValueError(f"step must be positive, got {h!r}")
    if h > 0.1 / max_diag:
        raise StepTooLarge(
            f"step {h!r} exceeds stability guard {0.1 / max_diag:.6g} "
            "(0.1/max|q_ii|)"
        )
    steps = max(1, math.ceil(t_end / h))
    h_eff = t_end / steps
    q = as_dense(gen.q)
    raw = np.empty((steps + 1, gen.n))
    raw[0] = p0.p
    p = p0.p.copy()
    for k in range(steps):
        k1 = q @ p
        k2 = q @ (p + 0.5 * h_eff * k1)
        k3 = q @ (p + 0.5 * h_eff * k2)
        k4 = q @ (p + h_eff * k3)
        p = p + (h_eff / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        raw[k + 1] = p
    times = np.linspace(0.0, t_end, steps + 1)
    return Trajectory(
        times=times, states=_cleanup_states(raw), traces={}, monotone_violations={}
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
