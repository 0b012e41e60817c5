"""Generator matrices and probability vectors, with a fixed orientation.

Everything in this package uses the column convention: for ``i != j`` the
entry ``q[i, j]`` is the transition rate from state ``j`` to state ``i``,
each diagonal entry equals minus the sum of the other entries in its
column, and distributions evolve as ``dp/dt = q @ p``.  Row-convention
input is accepted at the boundary and transposed once, so no other module
ever has to think about orientation.

States are 0-indexed throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import (
    ColumnSumViolation,
    InvalidProbability,
    NegativeRate,
    Reducible,
)

# Validation tolerances, relative to max|q|: double-precision round-off scale.
COLUMN_SUM_RTOL = 1e-12
NEGATIVE_RATE_RTOL = 1e-12
PROBABILITY_ATOL = 1e-12


@dataclass(frozen=True, eq=False)
class GeneratorMatrix:
    """Validated transition-rate matrix in column convention.

    Instances are immutable: the array is marked read-only after
    construction and is safe to share between threads.  Build instances
    through :func:`validate_generator` or :func:`from_offdiagonal_rates`;
    direct construction skips validation.
    """

    q: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        q.flags.writeable = False
        object.__setattr__(self, "q", q)

    @property
    def n(self) -> int:
        return self.q.shape[0]


@dataclass(frozen=True, eq=False)
class ProbabilityVector:
    """Nonnegative, normalized distribution over ``n`` states."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        p.flags.writeable = False
        object.__setattr__(self, "p", p)

    @property
    def n(self) -> int:
        return self.p.shape[0]


def probability_vector(values) -> ProbabilityVector:
    """Validate and normalize a probability vector.

    Entries below ``-PROBABILITY_ATOL`` or a total mass off by more than
    ``PROBABILITY_ATOL`` raise :class:`InvalidProbability`.  Round-off
    negatives are clipped to zero and the vector is renormalized exactly.
    """
    p = np.array(values, dtype=float).reshape(-1)
    if p.size < 1:
        raise InvalidProbability("probability vector is empty")
    if p.min() < -PROBABILITY_ATOL:
        i = int(np.argmin(p))
        raise InvalidProbability(
            f"probability invariant violated: entry {i} is {p[i]:.3e} < 0"
        )
    total = p.sum()
    if abs(total - 1.0) > PROBABILITY_ATOL:
        raise InvalidProbability(
            f"normalization invariant violated: entries sum to {total!r}, not 1"
        )
    p = np.clip(p, 0.0, None)
    p /= p.sum()
    return ProbabilityVector(p)


def _support_classes(q: np.ndarray):
    """Communicating classes of the directed support graph (edge u->v iff
    rate u->v is positive), plus the set of closed classes."""
    off = q.copy()
    np.fill_diagonal(off, 0.0)
    adjacency = (off.T > 0.0)
    n_comp, labels = connected_components(
        csr_matrix(adjacency), directed=True, connection="strong"
    )
    classes = [sorted(np.flatnonzero(labels == c).tolist()) for c in range(n_comp)]
    closed = []
    for c, members in enumerate(classes):
        outside = labels != c
        if not adjacency[np.ix_(members, np.flatnonzero(outside))].any():
            closed.append(members)
    return classes, closed


def validate_generator(raw, convention: str = "column") -> GeneratorMatrix:
    """Validate a raw rate matrix and normalize it to column convention.

    Parameters
    ----------
    raw : array_like, shape (n, n)
        Candidate generator.  With ``convention="row"`` the input is
        transposed before any check runs.
    convention : {"column", "row"}

    Raises
    ------
    NegativeRate, ColumnSumViolation, Reducible
        When the corresponding invariant fails.  Reducibility is decided
        exactly by strong connectivity of the positive-rate graph, so the
        accepted matrices always have a unique, strictly positive
        stationary distribution.
    """
    q = np.array(raw, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValueError(f"generator must be square, got shape {q.shape}")
    n = q.shape[0]
    if n < 2:
        raise ValueError(f"generator needs at least 2 states, got n={n}")
    if convention == "row":
        q = np.ascontiguousarray(q.T)
    elif convention != "column":
        raise ValueError(f"unknown convention {convention!r}; use 'column' or 'row'")

    scale = np.abs(q).max()
    off = q.copy()
    np.fill_diagonal(off, 0.0)
    if off.min() < -NEGATIVE_RATE_RTOL * scale:
        i, j = np.unravel_index(np.argmin(off), off.shape)
        raise NegativeRate(
            f"rate invariant violated: q[{i},{j}] = {q[i, j]:.6g} < 0"
        )
    col_sums = q.sum(axis=0)
    worst = int(np.argmax(np.abs(col_sums)))
    if abs(col_sums[worst]) > COLUMN_SUM_RTOL * scale:
        raise ColumnSumViolation(
            f"column-sum invariant violated: column {worst} sums to "
            f"{col_sums[worst]:.6g} (tolerance {COLUMN_SUM_RTOL * scale:.3g})"
        )
    classes, closed = _support_classes(q)
    if len(classes) > 1:
        raise Reducible(
            "irreducibility invariant violated: "
            f"{len(classes)} communicating classes {classes}; "
            f"closed classes {closed} (stationary distribution would not be "
            "strictly positive)"
        )
    return GeneratorMatrix(q)


def from_offdiagonal_rates(rates) -> GeneratorMatrix:
    """Build a generator from off-diagonal rates, ignoring the diagonal.

    The diagonal is overwritten with minus the column sums, so the result
    conserves probability exactly, then the full validation runs.
    """
    r = np.array(rates, dtype=float)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValueError(f"rate matrix must be square, got shape {r.shape}")
    np.fill_diagonal(r, 0.0)
    scale = np.abs(r).max()
    if r.min() < -NEGATIVE_RATE_RTOL * scale:
        i, j = np.unravel_index(np.argmin(r), r.shape)
        raise NegativeRate(
            f"rate invariant violated: rate[{i},{j}] = {r[i, j]:.6g} < 0"
        )
    r = np.clip(r, 0.0, None)
    np.fill_diagonal(r, -r.sum(axis=0))
    return validate_generator(r)


def generator_from_json(obj: dict) -> GeneratorMatrix:
    """Load a generator from its JSON object form.

    Two schemas are accepted: ``{"n": 3, "convention": "column", "q":
    [[...]]}`` with an explicit diagonal, and the off-diagonal-only
    variant ``{"n": 3, "rates": [[...]]}`` whose diagonal is recomputed.
    """
    if not isinstance(obj, dict):
        raise ValueError("generator JSON must be an object")
    if "q" in obj:
        gen = validate_generator(obj["q"], obj.get("convention", "column"))
    elif "rates" in obj:
        gen = from_offdiagonal_rates(obj["rates"])
    else:
        raise ValueError("generator JSON needs a 'q' or 'rates' field")
    if "n" in obj and int(obj["n"]) != gen.n:
        raise ValueError(
            f"declared n={obj['n']} does not match matrix size {gen.n}"
        )
    return gen


def generator_to_json(gen: GeneratorMatrix) -> dict:
    return {"n": gen.n, "convention": "column", "q": gen.q.tolist()}


def probability_from_json(obj) -> ProbabilityVector:
    """Load a probability vector from JSON: either a bare array or an
    object ``{"p": [...]}`` (also accepts the ``"pi"`` key)."""
    if isinstance(obj, dict):
        for key in ("p", "pi"):
            if key in obj:
                return probability_vector(obj[key])
        raise ValueError("probability JSON object needs a 'p' (or 'pi') field")
    return probability_vector(obj)
