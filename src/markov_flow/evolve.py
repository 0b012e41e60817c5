"""Master-equation integration and entropy traces.

The default integrator evaluates ``p(t) = expm(q t) @ p0`` at every grid
point with scaling-and-squaring Pade approximation, which for the dense,
modest-size chains this package targets is the most trustworthy path: no
step-size tuning, round-off-level accuracy.  A classical fixed-step RK4
integrator is kept alongside purely as an independent cross-check; the
two share nothing but the generator.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np
from scipy.linalg import expm

from .core import GeneratorMatrix, ProbabilityVector
from .decompose import FlowDecomposition
from .entropy import (
    EntropyKind,
    gini_divergence,
    gini_production,
    kl_divergence,
    relative_f_entropy,
    shannon_entropy,
)
from .errors import StepTooLarge

log = logging.getLogger(__name__)

DRIFT_TOL = 1e-9          # mass drift allowed before renormalization
NEGATIVITY_TOL = 1e-10    # most negative entry tolerated before clipping
MONOTONE_TOL = 1e-10      # slack when flagging monotonicity violations


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


def evolve(gen: GeneratorMatrix, p0: ProbabilityVector, times) -> Trajectory:
    """Integrate ``dp/dt = q p`` by matrix exponential at each grid point."""
    if p0.n != gen.n:
        raise ValueError(
            f"size invariant violated: p0 has {p0.n} entries, the generator "
            f"has {gen.n} states"
        )
    t = _checked_times(times)
    raw = np.empty((t.size, gen.n))
    for k, tk in enumerate(t):
        raw[k] = expm(gen.q * tk) @ p0.p
    return Trajectory(
        times=t, states=_cleanup_states(raw), traces={}, monotone_violations={}
    )


def rk4_integrate(gen: GeneratorMatrix, p0: ProbabilityVector,
                  t_end: float, h: float) -> Trajectory:
    """Classical fixed-step RK4 integration of the master equation.

    Used in tests and cross-checks as the integrator that shares no code
    with :func:`evolve`.  The step must satisfy ``h <= 0.1/max|q_ii|``.
    """
    max_diag = np.abs(np.diag(gen.q)).max()
    if h <= 0.0:
        raise ValueError(f"step must be positive, got {h!r}")
    if h > 0.1 / max_diag:
        raise StepTooLarge(
            f"step {h!r} exceeds stability guard {0.1 / max_diag:.6g} "
            "(0.1/max|q_ii|)"
        )
    steps = max(1, math.ceil(t_end / h))
    h_eff = t_end / steps
    q = gen.q
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
    the spectral gap) is supplied, else ``10/min|q_ii|``.
    """
    if t_max is None:
        if decay_rate is not None and decay_rate > 0:
            t_max = 10.0 / decay_rate
        else:
            t_max = 10.0 / np.abs(np.diag(gen.q)).min()
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

    ``d`` is the decomposition of the chain that produced ``traj``: the
    divergences are taken to ``d.pi`` and the production uses ``d.S``.
    Expected directions: the ``kl`` and ``gini_divergence`` series are
    non-increasing, a custom ``relative_f`` series (entropy orientation,
    <= 0) is non-decreasing, and bare Shannon entropy has no guaranteed
    direction so its flag fires only when the series both rises and falls.
    ``gini_production`` (emitted together with the divergence) is a
    derivative series and carries no flag.
    """
    kinds = sorted(kinds, key=lambda k: k.trace_name)
    pi = d.pi

    traces = dict(traj.traces)
    flags = dict(traj.monotone_violations)
    rows = traj.states
    for kind in kinds:
        if kind.tag == "shannon":
            series = np.array([shannon_entropy(row) for row in rows])
            traces[kind.trace_name] = series
            flags[kind.trace_name] = _nonmonotone_index(series, MONOTONE_TOL)
        elif kind.tag == "relative_shannon":
            series = np.array([kl_divergence(row, pi.p) for row in rows])
            traces[kind.trace_name] = series
            flags[kind.trace_name] = _first_shift(series, +1, MONOTONE_TOL)
        elif kind.tag == "relative_gini":
            series = np.array([gini_divergence(row, pi.p) for row in rows])
            traces[kind.trace_name] = series
            flags[kind.trace_name] = _first_shift(series, +1, MONOTONE_TOL)
            production = np.array([gini_production(row, d) for row in rows])
            traces["gini_production"] = production
        else:  # relative_f
            series = np.array(
                [relative_f_entropy(row, pi.p, kind.f) for row in rows]
            )
            traces[kind.trace_name] = series
            flags[kind.trace_name] = _first_shift(series, -1, MONOTONE_TOL)
    return replace(traj, traces=traces, monotone_violations=flags)
