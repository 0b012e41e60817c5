"""Entropies, divergences, and their production along the flow split.

Each entropy, divergence and :func:`gini_production` takes one
distribution ``(n,)`` and returns a float, or a stack ``(m, n)`` of
distributions, one per row, and returns ``m`` values.  The two production
splits take one distribution only.  The productions read the flow parts of
a :class:`FlowDecomposition` as they are, dense or CSR.

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

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import ProbabilityVector, _check_positive, _finite_scale, _issparse, _read_numbers
from .decompose import FlowDecomposition
from .errors import InvalidProbability, NotAntisymmetric, PositivityViolation

PRODUCTION_SPLIT_RTOL = 1e-13


def _as_prob_array(p, what: str = "p") -> np.ndarray:
    """``p`` as a float array, one distribution or a stack of them; an entry
    that is not a number or a 0-d ``p`` raises ``ValueError``."""
    if isinstance(p, ProbabilityVector):
        return p.p
    arr = _read_numbers(p, what, "an array of numbers")
    if arr.ndim == 0:
        raise ValueError(
            f"size invariant violated: a distribution has an entry per state, "
            f"got the scalar {arr.item()!r}"
        )
    return arr


def _with_reference(p, pi):
    """``p`` and ``pi`` as arrays, once ``pi`` fits ``p``'s rows and is > 0."""
    arr, ref = _as_prob_array(p), _as_prob_array(pi, "the reference pi")
    if arr.shape[-1] != ref.size:
        raise ValueError(
            f"size invariant violated: p has {arr.shape[-1]} entries, the "
            f"reference pi has {ref.size}"
        )
    _check_positive(ref)
    return arr, ref


def _per_row(values, arr):
    """A float for one distribution, the array of row values for a stack.
    A value that is not finite raises if ``arr`` (``p``) has such an entry."""
    scalar = np.ndim(values) == 0
    values = float(values) if scalar else values
    if not (math.isfinite(values) if scalar else np.isfinite(values).all()):
        _finite_scale(arr, "p", InvalidProbability)
    return values


def _one_distribution(p, pi, name: str):
    """:func:`_with_reference` for a ``p`` that is one distribution."""
    arr = _as_prob_array(p)
    if arr.ndim != 1:
        raise ValueError(
            f"size invariant violated: p has shape {arr.shape}, {name} takes "
            f"one distribution"
        )
    return _with_reference(arr, pi)


def _xlogy(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x log(y)`` with ``0 log 0 = 0``: the log is taken where x > 0 only."""
    return x * np.log(np.where(x > 0.0, y, 1.0))


def shannon_entropy(p) -> float | np.ndarray:
    """``-sum(p_i log p_i)`` in nats, ``0 log 0 = 0``; of each row of a stack."""
    arr = _as_prob_array(p)
    return _per_row(-_xlogy(arr, arr).sum(axis=-1) + 0.0, arr)


def kl_divergence(p, pi) -> float | np.ndarray:
    """``sum(p_i log(p_i/pi_i)) >= 0`` of ``p`` or of each row of a stack."""
    arr, ref = _with_reference(p, pi)
    return _per_row(_xlogy(arr, arr / ref).sum(axis=-1) + 0.0, arr)


def _check_normalized(f: Callable):
    f1 = float(np.asarray(f(np.array([1.0])), dtype=float).reshape(-1)[0])
    if abs(f1) > 1e-12:
        raise ValueError(f"normalization contract violated: f(1) = {f1:.3g}, expected 0")


def relative_f_entropy(p, pi, f: Callable) -> float | np.ndarray:
    """``-sum(pi_i f(p_i/pi_i))`` of ``p`` or each stack row, for a convex ``f``.

    The normalization ``f(1) = 0`` makes the value 0 at ``p == pi`` and
    <= 0 everywhere else (Jensen).  Convexity is the caller's contract; a
    cheap midpoint spot-check over the ratio range of all rows runs anyway
    and raises ``ValueError`` on blatant violations.  ``f`` is applied
    pointwise to the whole array, once, including at ratio 0 where ``p`` has
    zero entries — encode conventions like ``0 log 0 = 0`` inside it.
    """
    arr, ref = _with_reference(p, pi)
    _check_normalized(f)
    r = arr / ref
    _midpoint_convexity_check(f, r)
    return _per_row(-(ref * np.asarray(f(r), dtype=float)).sum(axis=-1), arr)


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


def gini_divergence(p, pi) -> float | np.ndarray:
    """Quadratic divergence ``sum(p_i^2/pi_i) - 1`` of ``p`` or each stack row.

    Computed as ``sum((p_i - pi_i)^2 / pi_i)``, equal for a normalized
    ``p`` and free of the expanded form's cancellation, whose round-off
    of about 1e-16 is a relative 1e-8 of a divergence near 1e-8.
    Nonnegative, and zero iff ``p == pi``.
    """
    arr, ref = _with_reference(p, pi)
    diff = arr - ref
    return _per_row((diff * diff / ref).sum(axis=-1), arr)


def _quadratic_form(r: np.ndarray, m) -> np.ndarray:
    """``2 r^T m r`` for each row of ``r``."""
    return 2.0 * np.einsum("...j,...j->...", r @ m, r)


def gini_production(p, d: FlowDecomposition) -> float | np.ndarray:
    """``2 r^T S r <= 0``, the quadratic divergence's rate, per row of a stack."""
    arr, ref = _with_reference(p, d.pi)
    # an infinite entry of p gives NaN values, which _per_row refuses
    with np.errstate(invalid="ignore"):
        values = _quadratic_form(arr / ref, d.S)
    return _per_row(values, arr)


def production_split(p, d: FlowDecomposition) -> dict:
    """Split one distribution's quadratic-divergence production into S and A.

    Returns ``{"s_part": 2 r^T S r, "a_part": 2 r^T A r}``; ``s_part`` is
    :func:`gini_production`.  The circulation part is an antisymmetric
    quadratic form, hence zero; it is computed and checked rather than
    assumed (:class:`NotAntisymmetric`).  A stack of distributions raises
    ``ValueError``.
    """
    arr, ref = _one_distribution(p, d.pi, "production_split")
    r = arr / ref
    with np.errstate(invalid="ignore"):
        s_part, a_part = _quadratic_form(r, d.S), _quadratic_form(r, d.A)
    s_part, a_part = _per_row(s_part, arr), float(a_part)
    a_scale = np.linalg.norm(d.A.data if _issparse(d.A) else d.A) * float(r @ r)
    # also true for a NaN
    if not abs(a_part) <= PRODUCTION_SPLIT_RTOL * max(a_scale, 1e-300):
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
    ``p``, one distribution: a stack raises ``ValueError``.
    """
    arr, ref = _one_distribution(p, d.pi, "shannon_production_split")
    if not arr.min() > 0.0:  # also true for a NaN
        _finite_scale(arr, "p", InvalidProbability)
        i = int(np.argmin(arr))
        raise PositivityViolation(
            f"interior-point requirement violated: p[{i}] = {arr[i]:.3g} <= 0"
        )
    r = arr / ref
    weight = 1.0 + np.log(r)
    # an infinite entry of p gives NaN parts, which _per_row refuses
    with np.errstate(invalid="ignore"):
        s_part = -(d.S @ r) @ weight
        a_part = -(d.A @ r) @ weight
    return {"s_part": _per_row(s_part, arr), "a_part": _per_row(a_part, arr)}


# tag -> (default trace name, value(p, pi, f) of a distribution or a stack, its
# direction along an evolution: -1 non-increasing, +1 non-decreasing, 0 none).
# Each value looks its function up in this module when called.
_KINDS = {
    "shannon": ("shannon", lambda p, pi, f: shannon_entropy(p), 0),
    "relative_shannon": ("kl", lambda p, pi, f: kl_divergence(p, pi), -1),
    "relative_gini": ("gini_divergence", lambda p, pi, f: gini_divergence(p, pi), -1),
    "relative_f": ("relative_f", lambda p, pi, f: relative_f_entropy(p, pi, f), 1),
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
        if self.tag not in _KINDS:
            raise ValueError(f"unknown entropy kind {self.tag!r}")
        if self.tag == "relative_f":
            if self.f is None:
                raise ValueError("relative_f kind needs a convex handle f")
            _check_normalized(self.f)
        if not self.trace_name:
            object.__setattr__(self, "trace_name", _KINDS[self.tag][0])


SHANNON = EntropyKind("shannon")
RELATIVE_SHANNON = EntropyKind("relative_shannon")
RELATIVE_GINI = EntropyKind("relative_gini")


def relative_f_kind(f: Callable, name: str = "relative_f") -> EntropyKind:
    return EntropyKind("relative_f", f=f, trace_name=name)
