"""Entropies, divergences, and their production along the flow split.

Sign convention: the math core works with divergences, which are >= 0 and
decay toward zero along the evolution.  The entropy-oriented quantities
(<= 0, increasing) are exposed as ``relative_f_entropy`` and are exact
negations, so nothing is lost.

The quadratic divergence ``sum(p^2/pi) - 1`` plays the central role: its
time derivative is ``2 r^T S r`` with ``r = p/pi``, and the circulation
part contributes exactly zero because ``x^T A x == 0`` for antisymmetric
``A``.  ``production_split`` computes that zero explicitly instead of
assuming it.  No other divergence in this family has the property:
``shannon_production_split`` exposes the generically nonzero circulation
term of the log-based divergence for contrast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import ProbabilityVector, as_dense
from .decompose import FlowDecomposition
from .errors import NotAntisymmetric, PositivityViolation

PRODUCTION_SPLIT_RTOL = 1e-13


def _as_prob_array(p) -> np.ndarray:
    if isinstance(p, ProbabilityVector):
        return p.p
    return np.asarray(p, dtype=float)


def _check_reference(p: np.ndarray, pi: np.ndarray):
    if p.size != pi.size:
        raise ValueError(
            f"size invariant violated: p has {p.size} entries, the reference "
            f"pi has {pi.size}"
        )
    if pi.min() <= 0.0:
        i = int(np.argmin(pi))
        raise PositivityViolation(
            f"reference positivity violated: pi[{i}] = {pi[i]:.3g} <= 0"
        )


def shannon_entropy(p) -> float:
    """``-sum(p_i log p_i)`` in nats, with ``0 log 0 = 0``."""
    arr = _as_prob_array(p)
    mask = arr > 0.0
    return float(-(arr[mask] * np.log(arr[mask])).sum()) + 0.0


def kl_divergence(p, pi) -> float:
    """``sum(p_i log(p_i/pi_i)) >= 0``, the log-based divergence to ``pi``."""
    arr = _as_prob_array(p)
    ref = _as_prob_array(pi)
    _check_reference(arr, ref)
    mask = arr > 0.0
    return float((arr[mask] * np.log(arr[mask] / ref[mask])).sum()) + 0.0


def relative_f_entropy(p, pi, f: Callable[[np.ndarray], np.ndarray]) -> float:
    """``-sum(pi_i f(p_i/pi_i))`` for a convex ``f`` with ``f(1) = 0``.

    The normalization ``f(1) = 0`` makes the value 0 at ``p == pi`` and
    <= 0 everywhere else (Jensen).  Convexity is the caller's contract; a
    cheap midpoint spot-check over the actual ratio range runs anyway and
    raises ``ValueError`` on blatant violations.  ``f`` must accept numpy
    arrays and is applied pointwise, including at ratio 0 when ``p`` has
    zero entries — encode conventions like ``0 log 0 = 0`` inside the
    handle (the built-in log divergence does this already).
    """
    arr = _as_prob_array(p)
    ref = _as_prob_array(pi)
    _check_reference(arr, ref)
    f1 = float(np.asarray(f(np.array([1.0])), dtype=float).reshape(-1)[0])
    if abs(f1) > 1e-12:
        raise ValueError(f"normalization contract violated: f(1) = {f1:.3g}, expected 0")
    r = arr / ref
    _midpoint_convexity_check(f, r)
    return float(-(ref * np.asarray(f(r), dtype=float)).sum())


def _midpoint_convexity_check(f, r: np.ndarray):
    lo = max(float(r.min()), 0.0)
    hi = float(r.max())
    probes = [(lo, hi), (lo, 1.0), (1.0, hi)]
    for a, b in probes:
        if b <= a:
            continue
        fa, fb, fm = (
            float(np.asarray(f(np.array([x])), dtype=float)[0])
            for x in (a, b, (a + b) / 2.0)
        )
        slack = 1e-10 * max(1.0, abs(fa), abs(fb))
        if fm > (fa + fb) / 2.0 + slack:
            raise ValueError(
                f"convexity contract violated: f({(a + b) / 2.0!r}) = {fm:.6g} "
                f"> midpoint of f({a!r}), f({b!r})"
            )


def gini_divergence(p, pi) -> float:
    """Quadratic divergence ``sum(p_i^2/pi_i) - 1``.

    Nonnegative, zero iff ``p == pi`` (up to round-off at the fixed
    point), and identical to ``sum((p_i - pi_i)^2 / pi_i)``.
    """
    arr = _as_prob_array(p)
    ref = _as_prob_array(pi)
    _check_reference(arr, ref)
    return float((arr * arr / ref).sum() - 1.0)


def gini_divergence_rows(states: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """:func:`gini_divergence` of each row of ``states``, with one check."""
    _check_reference(states[0], pi)
    return (states * states / pi).sum(axis=1) - 1.0


def gini_production(p, d: FlowDecomposition) -> float:
    """Time derivative of the quadratic divergence: ``2 r^T S r <= 0``."""
    r = _as_prob_array(p) / d.pi.p
    return float(2.0 * r @ as_dense(d.S) @ r)


def production_split(p, d: FlowDecomposition) -> dict:
    """Split the quadratic-divergence production into S and A parts.

    Returns ``{"s_part": 2 r^T S r, "a_part": 2 r^T A r}``.  The
    circulation part is an antisymmetric quadratic form, hence zero; it is
    computed and checked rather than assumed (:class:`NotAntisymmetric`).
    """
    r = _as_prob_array(p) / d.pi.p
    S, A = as_dense(d.S), as_dense(d.A)
    s_part = float(2.0 * r @ S @ r)
    a_part = float(2.0 * r @ A @ r)
    a_scale = np.linalg.norm(A) * float(r @ r)
    if abs(a_part) > PRODUCTION_SPLIT_RTOL * max(a_scale, 1e-300):
        raise NotAntisymmetric(
            f"antisymmetric quadratic-form invariant violated: circulation "
            f"production {a_part:.3g} is not zero at scale {a_scale:.3g}"
        )
    return {"s_part": s_part, "a_part": a_part}


def shannon_production_split(p, d: FlowDecomposition) -> dict:
    """S/A split of the log-based relative entropy production.

    ``d/dt [-KL(p||pi)] = -sum_i (dp/dt)_i (1 + log(p_i/pi_i))`` with
    ``dp/dt = (S + A) r``.  Unlike the quadratic case the ``a_part`` is
    generically nonzero, which is the reason the quadratic divergence is
    the distinguished member of the family.  Requires strictly positive
    ``p``.
    """
    arr = _as_prob_array(p)
    if arr.min() <= 0.0:
        i = int(np.argmin(arr))
        raise PositivityViolation(
            f"interior-point requirement violated: p[{i}] = {arr[i]:.3g} <= 0"
        )
    r = arr / d.pi.p
    weight = 1.0 + np.log(r)
    return {
        "s_part": float(-(as_dense(d.S) @ r) @ weight),
        "a_part": float(-(as_dense(d.A) @ r) @ weight),
    }


@dataclass(frozen=True, eq=False)
class EntropyKind:
    """Selector for trace computation: which state function to track.

    ``tag`` is one of ``shannon``, ``relative_shannon``, ``relative_gini``
    or ``relative_f``; the last carries a convex handle ``f`` with
    ``f(1) = 0``.  ``trace_name`` is the column/series label.
    """

    tag: str
    f: Optional[Callable] = None
    trace_name: str = ""

    def __post_init__(self):
        valid = {"shannon", "relative_shannon", "relative_gini", "relative_f"}
        if self.tag not in valid:
            raise ValueError(f"unknown entropy kind {self.tag!r}")
        if self.tag == "relative_f":
            if self.f is None:
                raise ValueError("relative_f kind needs a convex handle f")
            f1 = float(np.asarray(self.f(np.array([1.0])), dtype=float)[0])
            if abs(f1) > 1e-12:
                raise ValueError(f"normalization contract violated: f(1) = {f1:.3g}")
        if not self.trace_name:
            default = {
                "shannon": "shannon",
                "relative_shannon": "kl",
                "relative_gini": "gini_divergence",
                "relative_f": "relative_f",
            }[self.tag]
            object.__setattr__(self, "trace_name", default)


SHANNON = EntropyKind("shannon")
RELATIVE_SHANNON = EntropyKind("relative_shannon")
RELATIVE_GINI = EntropyKind("relative_gini")


def relative_f_kind(f: Callable, name: str = "relative_f") -> EntropyKind:
    return EntropyKind("relative_f", f=f, trace_name=name)
