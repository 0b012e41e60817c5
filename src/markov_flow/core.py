"""Generator matrices and probability vectors, with a fixed orientation.

Everything in this package uses the column convention: for ``i != j`` the
entry ``q[i, j]`` is the transition rate from state ``j`` to state ``i``,
each diagonal entry equals minus the sum of the other entries in its
column, and distributions evolve as ``dp/dt = q @ p``.  Row-convention
input is accepted at the boundary and transposed once, so no other module
ever has to think about orientation.

A generator is a dense array or, on the continuum path, a CSR array
(``scipy.sparse.csr_array``).  Validation, the stationary solve and the
flow split run on either; every other consumer takes its operands through
:func:`as_dense`, which densifies a CSR operand of at most
``DENSE_MAX_STATES`` states and refuses a larger one.

States are 0-indexed throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_array, csr_array, diags_array, issparse
from scipy.sparse.csgraph import connected_components

from .errors import (
    ColumnSumViolation,
    InvalidProbability,
    MarkovFlowError,
    NegativeRate,
    PositivityViolation,
    Reducible,
    TooLarge,
)

# Validation tolerances, relative to max|q|: double-precision round-off scale.
COLUMN_SUM_RTOL = 1e-12
NEGATIVE_RATE_RTOL = 1e-12
PROBABILITY_ATOL = 1e-12
# the largest CSR operand a dense-only consumer densifies (512 MB per copy)
DENSE_MAX_STATES = 8192


@dataclass(frozen=True, eq=False)
class GeneratorMatrix:
    """Validated transition-rate matrix in column convention.

    ``q`` is a dense array or a CSR array.  Instances are immutable: the
    array (a CSR array's values) is marked read-only after construction.
    Because ``q`` cannot change, the stationary distribution and the flow
    split are computed once per instance: :func:`stationary_solve` and
    :func:`decompose` store their result on it (``_pi``, ``_decomposition``)
    and return that same object on every later call; a refusal is not
    stored.  An instance is safe to share between threads; two threads
    that solve it at once both compute and store identical values.  Build
    instances through :func:`validate_generator` or
    :func:`from_offdiagonal_rates`; direct construction skips validation.
    """

    q: np.ndarray
    # not fields: set by stationary_solve and decompose on their first success
    _pi = None
    _decomposition = None

    def __post_init__(self):
        object.__setattr__(self, "q", _frozen(self.q))

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


def _frozen(m):
    """``m`` as a float array, or a canonical CSR array, marked read-only."""
    if issparse(m):
        m = csr_array(m, dtype=float, copy=True)
        m.sum_duplicates()
        m.data.flags.writeable = False
    else:
        m = np.asarray(m, dtype=float)
        m.flags.writeable = False
    return m


def as_dense(m) -> np.ndarray:
    """``m`` as a dense array, for the consumers that need one.

    A dense ``m`` is returned as it is; a CSR ``m`` is densified, and one
    with more than ``DENSE_MAX_STATES`` rows raises :class:`TooLarge`.
    """
    if not issparse(m):
        return m
    if m.shape[0] > DENSE_MAX_STATES:
        raise TooLarge(
            f"size invariant violated: a dense method needs the {m.shape[0]}-state "
            f"sparse operand as an n x n array, capped at {DENSE_MAX_STATES} states"
        )
    return m.toarray()


def _finite_scale(m, what: str, error=MarkovFlowError) -> float:
    """``max|m|`` of a dense or CSR ``m``, or ``error`` if an entry is not finite."""
    scale = abs(m).max()
    if not np.isfinite(scale):
        raise error(
            f"finiteness invariant violated: {what} has an entry of magnitude "
            f"{float(scale)!r}"
        )
    return scale


def _check_positive(pi: np.ndarray):
    """Raise :class:`PositivityViolation` unless every ``pi_i > 0``."""
    if not pi.min() > 0.0:  # also true for a NaN
        i = int(np.argmin(pi))
        raise PositivityViolation(
            f"positivity invariant violated: pi[{i}] = {pi[i]:.3g} <= 0"
        )


def probability_vector(values) -> ProbabilityVector:
    """Validate and normalize a probability vector.

    A NaN or infinite entry, one below ``-PROBABILITY_ATOL`` or a mass off by
    more than ``PROBABILITY_ATOL`` raises :class:`InvalidProbability`.
    Round-off negatives are clipped to zero and the vector renormalized.
    """
    p = np.array(values, dtype=float).reshape(-1)
    if p.size < 1:
        raise InvalidProbability("probability vector is empty")
    _finite_scale(p, "the probability vector", InvalidProbability)
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


def _support_classes(adjacency):
    """Communicating classes of the directed support graph, plus the closed
    ones.  ``adjacency`` is dense or sparse, with an entry at ``[u, v]`` iff
    the rate u->v is positive; a class is closed when no edge leaves it."""
    n_comp, labels = connected_components(
        adjacency, directed=True, connection="strong"
    )
    classes = [sorted(np.flatnonzero(labels == c).tolist()) for c in range(n_comp)]
    if n_comp == 1:
        return classes, []
    src, dst = adjacency.nonzero()
    leaving = set(labels[src[labels[src] != labels[dst]]].tolist())
    closed = [members for c, members in enumerate(classes) if c not in leaving]
    return classes, closed


def _strongly_connected(q) -> bool:
    """Whether the positive entries of a dense or CSR ``q`` form a strongly
    connected graph.

    The graph is handed to csgraph as a CSR array built from the support
    directly, which skips the masked-array pass csgraph makes over a dense
    input.  Its edge ``i -> j`` is the rate ``j -> i``: reversing every edge
    keeps the strong components, so no transpose is needed.
    """
    n = q.shape[0]
    if issparse(q):
        positive = q.data > 0.0
        rows = np.repeat(np.arange(n), np.diff(q.indptr))[positive]
        cols = q.indices[positive]
    else:
        rows, cols = np.nonzero(q > 0.0)
    # csgraph walks C-contiguous int32 indices; np.nonzero's are strided
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    support = csr_array((np.ones(rows.size), cols.astype(np.int32), indptr),
                        shape=(n, n))
    return connected_components(
        support, directed=True, connection="strong", return_labels=False
    ) == 1


def _offdiagonal(q):
    """The off-diagonal entries of a CSR ``q`` as ``(rows, cols, values)``."""
    c = coo_array(q)
    keep = c.row != c.col
    return c.row[keep], c.col[keep], c.data[keep]


def _least_offdiagonal(m):
    """``(value, i, j)`` of the least off-diagonal entry of ``m``, dense or
    CSR; the entries a CSR ``m`` does not store count as zeros."""
    if issparse(m):
        rows, cols, vals = _offdiagonal(m)
        k = int(np.argmin(vals)) if vals.size else None
        if k is None or vals[k] > 0.0:
            return 0.0, 0, 0
        return float(vals[k]), int(rows[k]), int(cols[k])
    off = m.copy()
    np.fill_diagonal(off, 0.0)
    k = int(off.argmin())
    i, j = divmod(k, off.shape[1])
    return float(off.flat[k]), i, j


def validate_generator(raw, convention: str = "column") -> GeneratorMatrix:
    """Validate a raw rate matrix and normalize it to column convention.

    Parameters
    ----------
    raw : array_like or CSR array, shape (n, n)
        Candidate generator.  With ``convention="row"`` the input is
        transposed before any check runs.  A CSR input gives a CSR generator.
    convention : {"column", "row"}

    Raises
    ------
    MarkovFlowError, NegativeRate, ColumnSumViolation, Reducible
        When an entry is not finite, or the corresponding invariant fails.
        Reducibility is decided exactly by strong connectivity of the
        positive-rate graph, so the accepted matrices always have a unique,
        strictly positive stationary distribution.
    """
    sparse = issparse(raw)
    if sparse:
        q = csr_array(raw, dtype=float, copy=True)
        q.sum_duplicates()
    else:
        q = np.array(raw, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValueError(f"generator must be square, got shape {q.shape}")
    n = q.shape[0]
    if n < 2:
        raise ValueError(f"generator needs at least 2 states, got n={n}")
    if convention == "row":
        q = q.T.tocsr() if sparse else np.ascontiguousarray(q.T)
    elif convention != "column":
        raise ValueError(f"unknown convention {convention!r}; use 'column' or 'row'")

    scale = _finite_scale(q, "the generator")
    least, i, j = _least_offdiagonal(q)
    if least < -NEGATIVE_RATE_RTOL * scale:
        raise NegativeRate(f"rate invariant violated: q[{i},{j}] = {least:.6g} < 0")
    col_sums = q.sum(axis=0)
    worst = int(np.argmax(np.abs(col_sums)))
    if abs(col_sums[worst]) > COLUMN_SUM_RTOL * scale:
        raise ColumnSumViolation(
            f"column-sum invariant violated: column {worst} sums to "
            f"{col_sums[worst]:.6g} (tolerance {COLUMN_SUM_RTOL * scale:.3g})"
        )
    if not _strongly_connected(q):
        classes, closed = _support_classes(q.T > 0.0)
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
    conserves probability exactly, then the full validation runs.  CSR
    ``rates`` give a CSR generator; each column sum adds the column's rates
    in ascending row order, as numpy's dense column sum does, so a CSR and
    a dense copy of the same rates give the same generator bit for bit.  A
    NaN or infinite rate raises :class:`MarkovFlowError`.
    """
    sparse = issparse(rates)
    if sparse:
        r = csr_array(rates, dtype=float, copy=True)
        r.sum_duplicates()
    else:
        r = np.array(rates, dtype=float)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValueError(f"rate matrix must be square, got shape {r.shape}")
    if sparse:
        rows, cols, vals = _offdiagonal(r)
        r = csr_array((vals, (rows, cols)), shape=r.shape)
    else:
        np.fill_diagonal(r, 0.0)
    scale = _finite_scale(r, "the rate matrix")
    least, i, j = _least_offdiagonal(r)
    if least < -NEGATIVE_RATE_RTOL * scale:
        raise NegativeRate(f"rate invariant violated: rate[{i},{j}] = {least:.6g} < 0")
    if sparse:
        r.data[r.data < 0.0] = 0.0
        r.eliminate_zeros()
        col_sums = np.zeros(r.shape[0])
        np.add.at(col_sums, r.indices, r.data)   # CSR order: ascending rows
        return validate_generator(r - diags_array(col_sums))
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
    return {"n": gen.n, "convention": "column", "q": as_dense(gen.q).tolist()}


def probability_from_json(obj) -> ProbabilityVector:
    """Load a probability vector from JSON: either a bare array or an
    object ``{"p": [...]}`` (also accepts the ``"pi"`` key)."""
    if isinstance(obj, dict):
        for key in ("p", "pi"):
            if key in obj:
                return probability_vector(obj[key])
        raise ValueError("probability JSON object needs a 'p' (or 'pi') field")
    return probability_vector(obj)
