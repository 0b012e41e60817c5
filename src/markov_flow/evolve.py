"""Master-equation integration and entropy traces.

``evolve`` carries the distribution forward from an anchor, the last grid
state written (``p0`` at time 0), and never exponentiates ``q t_k`` from
``p0``.  Every step is accurate to round-off, and which one is taken
depends on ``n`` and on ``||q||_1`` times the offset from the anchor alone:

* a Taylor block (Al-Mohy and Higham, SIAM J. Sci. Comput. 33(2), 2011,
  section 5): every following grid point ``t_k`` with
  ``||q||_1 (t_k - anchor) <= 1`` shares one set of scaled powers
  ``V_j = d^j / j! q^j p`` of the truncated Taylor series, built for the
  farthest offset ``d``; row ``i`` of the block is ``sum_j (delta_i/d)^j V_j``,
  so its ``B`` rows are one ``(B x J)(J x n)`` product, and the last row is
  the next anchor.  The series stops after at most 18 terms, or once a
  term's 1-norm falls below ``2^-53`` of the anchor's.  Eighteen terms
  suffice because ``theta_18 = 1.09 >= 1`` is the largest 1-norm for which
  18 terms reach unit round-off ``2^-53``, and a nearer point only shrinks
  each term by ``(delta_i/d)^j``.  Cost: at most 18 matrix-vector products
  and one ``(B x 19)(19 x n)`` product per block, and on a grid that is
  dense next to ``1/||q||_1`` about one block per ``1/||q||_1`` of time.
* a longer interval ``h`` to the next point is ``s = ceil(||q||_1 h)``
  one-point blocks of 1-norm at most 1: at most ``18 s`` matrix-vector
  products.
* or the propagator ``expm(q h) @ p`` by scaling-and-squaring Pade
  approximation: at least one ``n x n`` matrix product, and bounded
  however large ``||q h||`` grows, which is what a metastable chain on a
  ``10/lambda2`` grid needs.

Blocks and substeps are taken iff ``18 s <= n`` (``s = 1`` for a block):
then their worst case, ``18 s`` matrix-vector products of ``n^2`` flops
each, costs no more than the one ``n^3`` matrix product the propagator
needs at the least.  A chain with ``n < 18`` therefore always steps by
``expm``.
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
from .errors import Overflow

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


def _taylor_block(q: np.ndarray, p: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Rows ``exp(q delta_i) p`` for ascending ``offsets`` ``delta_i >= 0``.

    One set of Taylor terms, built for the farthest offset ``d`` with
    ``||q||_1 d <= 1``, serves every row (module docstring).  ``d = 0``
    returns ``p`` itself.
    """
    d = offsets[-1]
    if d == 0.0:
        return p[np.newaxis, :]
    tol = TAYLOR_TOL * np.abs(p).sum()
    terms = [p]
    for j in range(1, TAYLOR_TERMS + 1):
        terms.append((d / j) * (q @ terms[-1]))
        if np.abs(terms[-1]).sum() <= tol:
            break
    powers = (offsets / d)[:, np.newaxis] ** np.arange(len(terms))
    return powers @ np.array(terms)


def evolve(gen: GeneratorMatrix, p0: ProbabilityVector, times) -> Trajectory:
    """Integrate ``dp/dt = q p`` forward from the last grid state written.

    At ``n >= 18`` every grid point within ``1/||q||_1`` of the anchor joins
    one Taylor block of at most 18 matrix-vector products, however many
    points it holds.  A longer interval ``h`` takes
    ``s = ceil(||q||_1 h)`` one-point blocks when ``18 s <= n``, else the
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
    q_norm = float(np.abs(q).sum(axis=0).max())
    # 18 s <= n  iff  ||q||_1 h <= n // 18: tested without ceil(), which
    # raises on an infinite ||q||_1 h
    max_substeps = gen.n // TAYLOR_TERMS
    grid = t.tolist()
    raw = np.empty((t.size, gen.n))
    p, anchor, k = p0.p, 0.0, 0
    while k < t.size:
        h = grid[k] - anchor
        stop = k + 1
        if q_norm * h <= 1.0 <= max_substeps:
            while stop < t.size and q_norm * (grid[stop] - anchor) <= 1.0:
                stop += 1
            rows = _taylor_block(q, p, t[k:stop] - anchor)
        elif q_norm * h <= max_substeps:
            # s = 0 only at h = 0, which leaves p as it is
            s = math.ceil(q_norm * h)
            for _ in range(s):
                p = _taylor_block(q, p, np.array([h / s]))[0]
            rows = p[np.newaxis, :]
        else:
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
