"""Generator matrices and probability vectors, with a fixed orientation.

Everything in this package uses the column convention: for ``i != j`` the
entry ``q[i, j]`` is the transition rate from state ``j`` to state ``i``,
each diagonal entry equals minus the sum of the other entries in its
column, and distributions evolve as ``dp/dt = q @ p``.  Row-convention
input is accepted at the boundary and transposed once, so no other module
ever has to think about orientation.

A generator is a dense array or, on the continuum path, a CSR array
(``scipy.sparse.csr_array``).  Validation, the stationary solve, the flow
split and the entropies run on either; every other consumer takes its
operands through :func:`as_dense`, which densifies a CSR operand of at most
``DENSE_MAX_STATES`` states and refuses a larger one.

A CSR operand is canonical (sorted column indices, no duplicates).
:func:`from_offdiagonal_rates` hands the continuum stencil's rates and the
diagonal to scipy as ``(value, row, column)`` triples, and every check
reads ``.data``, ``.indices`` and ``.indptr`` directly.
:func:`validate_generator` always checks its own copy of the caller's
input, so no generator shares a caller's array; the builders check the
array they have just made in place, and :class:`GeneratorMatrix` freezes a
canonical CSR array without copying it again.  Validation derives each
entry's row once.  The stationary solve takes a reversible chain's ``pi``
from rate ratios on its arrays, and otherwise splices its anchor row into
them and hands SuperLU one CSC copy; the flow split computes ``F`` on
``q``'s pattern and its parts by one transpose and two sparse sums.

Irreducibility is decided by one labelling of the support's strong
components, which also names the classes of a refused generator.
``scipy.sparse`` and its graph and solver modules are imported where a CSR
array is built or read, and by the graph search a support with a missing
edge needs: a run that meets only dense generators with every off-diagonal
rate positive never loads them.  :func:`_issparse` answers without the
import, since no sparse array exists before it.

States are 0-indexed throughout.
"""

from __future__ import annotations

import operator
import reprlib
import sys
from dataclasses import dataclass

import numpy as np

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
# Flow invariants, relative to max|F|; also the one reversibility tolerance:
# decompose's checks and is_detailed_balance (max|A| <= FLOW_RTOL max|F|) and
# stationary_solve's spanning-tree pi (each edge's two flows within FLOW_RTOL
# of the larger) read it.  The per-edge test implies the global one, since
# |A_ij| = |F_ij - F_ji| / 2, so every tree pi is called balanced; it is
# stricter because the tree pi must be accurate on every entry.
FLOW_RTOL = 1e-12
# the largest CSR operand a dense-only consumer densifies (512 MB per copy)
DENSE_MAX_STATES = 8192


@dataclass(frozen=True, eq=False)
class GeneratorMatrix:
    """Validated transition-rate matrix in column convention.

    ``q`` is a dense array or a CSR array.  Instances are immutable: the
    array (a CSR array's values and index arrays) is marked read-only after
    construction.  Because ``q`` cannot change, the stationary distribution
    and the flow split are computed once per instance:
    :func:`stationary_solve`, :func:`stationary_tree` and :func:`decompose`
    store their result on it (``_pi``, ``_pi_tree``, ``_decomposition``) and
    return that same object on every later call; a refusal is not stored.
    An instance is safe to share between threads; two threads that solve
    it at once both compute and store identical values.  Build instances
    through :func:`validate_generator` or :func:`from_offdiagonal_rates`;
    direct construction skips validation.
    """

    q: np.ndarray
    # not fields: set by stationary_solve, stationary_tree and decompose on
    # their first success
    _pi = None
    _pi_tree = None
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
        object.__setattr__(self, "p", _frozen(self.p))

    @property
    def n(self) -> int:
        return self.p.shape[0]


def _issparse(m) -> bool:
    """Whether ``m`` is a scipy sparse array or matrix.

    No sparse array can exist before ``scipy.sparse`` is imported, so until
    then the answer is False and the module stays unloaded.  A dense array
    is answered first, for a third of ``scipy.sparse.issparse``'s cost: the
    checks of one small chain ask this dozens of times.
    """
    if isinstance(m, np.ndarray):
        return False
    sparse = sys.modules.get("scipy.sparse")
    return sparse is not None and sparse.issparse(m)


def _frozen(m):
    """``m`` as a float array, or a canonical CSR array, marked read-only.

    A float array or a canonical float CSR array is frozen as it is, a CSR
    array's values and index arrays alike; any other sparse ``m`` is copied
    into a canonical CSR array first.
    """
    if _issparse(m):
        if not _canonical_csr(m):
            m = _canonical_copy(m)
        for array in (m.data, m.indices, m.indptr):
            array.flags.writeable = False
    else:
        m = np.asarray(m, dtype=float)
        m.flags.writeable = False
    return m


def _canonical_csr(m) -> bool:
    """Whether the sparse ``m`` is a float CSR array in canonical form."""
    from scipy.sparse import csr_array

    return isinstance(m, csr_array) and m.dtype == float and m.has_canonical_format


def _canonical_copy(m):
    """A canonical float CSR copy of the sparse ``m``."""
    from scipy.sparse import csr_array

    m = csr_array(m, dtype=float, copy=True)
    m.sum_duplicates()
    return m


def as_dense(m) -> np.ndarray:
    """``m`` as a dense array, for the consumers that need one.

    A dense ``m`` is returned as it is; a CSR ``m`` is densified, and one
    with more than ``DENSE_MAX_STATES`` rows raises :class:`TooLarge`.
    """
    if not _issparse(m):
        return m
    if m.shape[0] > DENSE_MAX_STATES:
        raise TooLarge(
            f"size invariant violated: a dense method needs the {m.shape[0]}-state "
            f"sparse operand as an n x n array, capped at {DENSE_MAX_STATES} states"
        )
    return m.toarray()


def _max_abs(m) -> float:
    """``max|m|`` of a dense or CSR ``m``, 0 if it has no entries; a CSR
    ``m``'s stored values are read in place."""
    return abs(m.data if _issparse(m) else m).max(initial=0.0)


def _finite_scale(m, what: str, error=MarkovFlowError) -> float:
    """``max|m|`` of a dense or CSR ``m``, or ``error`` if an entry is not finite."""
    scale = _max_abs(m)
    if not np.isfinite(scale):
        raise error(
            f"finiteness invariant violated: {what} has an entry of magnitude "
            f"{float(scale)!r}"
        )
    return scale


def _read_numbers(values, what: str, form: str, finite: str | None = None) -> np.ndarray:
    """A new float array of ``values``, which must be numbers.

    A number is a Python or numpy int or float, never a bool, ``None`` or a
    string.  Anything else, or a ragged input or an integer beyond double
    range, raises ``ValueError`` saying that ``what`` must be ``form``.  A
    float or integer array is converted without a scan, a bool or string
    array is refused, and any other input is read once as an object array,
    whose item types are checked and which is then converted.  With
    ``finite`` set, an entry that is not finite raises ``ValueError`` naming
    ``finite`` (:func:`_finite_scale`).
    """
    kind = values.dtype.kind if isinstance(values, np.ndarray) else "O"
    try:
        if kind not in "fiuO":
            raise TypeError
        items = np.array(values, dtype=object) if kind == "O" else values
        arr = np.array(items, dtype=float)
        if kind == "O" and not all(
                issubclass(t, (int, float, np.integer, np.floating)) and t is not bool
                for t in set(map(type, items.flat))):
            raise TypeError
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{what} must be {form}, got {reprlib.repr(values)}") from None
    if finite is not None:
        _finite_scale(arr, finite, ValueError)
    return arr


def _check_positive(pi: np.ndarray):
    """Raise :class:`PositivityViolation` unless every ``pi_i > 0``."""
    if not pi.min() > 0.0:  # also true for a NaN
        i = int(np.argmin(pi))
        raise PositivityViolation(
            f"positivity invariant violated: pi[{i}] = {pi[i]:.3g} <= 0"
        )


def probability_vector(values) -> ProbabilityVector:
    """Validate and normalize a probability vector.

    Entries must be numbers: ints or floats, numpy scalars included, never a
    bool, ``None`` or a string; any other entry, or a ragged input, raises
    ``ValueError``.  A NaN or infinite entry, one below ``-PROBABILITY_ATOL``
    or a mass off by more than ``PROBABILITY_ATOL`` raises
    :class:`InvalidProbability`.
    Round-off negatives are clipped to zero and the vector renormalized.
    """
    p = _read_numbers(values, "the probability vector", "an array of numbers").reshape(-1)
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
            f"normalization invariant violated: entries sum to {float(total)!r}, not 1"
        )
    p = np.clip(p, 0.0, None)
    p /= p.sum()
    return ProbabilityVector(p)


def _reducible_classes(q, off=None):
    """None when the positive entries of a dense or CSR ``q`` form a strongly
    connected graph, else ``(classes, closed)``: the communicating classes
    and the closed ones, sorted by their least state.

    A support with every off-diagonal rate positive is the complete graph,
    so it is connected without a graph search; any other support is labelled
    by one csgraph call.  A CSR ``q`` whose stored off-diagonal entries are
    all positive is handed over as it is, since csgraph reads only its
    pattern and a stored diagonal entry is a self-loop, which joins no two
    states; ``off`` marks those off-diagonal entries when the caller has the
    mask.  Any other support is handed over as a CSR array built from it
    directly, which skips the masked-array pass csgraph makes over a dense
    input.  Its edge ``i -> j`` is the rate ``j -> i``: reversing every edge
    keeps the strong components, so no transpose is needed, and a class is
    closed (no rate leaves it) when no edge from another class enters it.
    """
    n = q.shape[0]
    sparse = _issparse(q)
    positive = (q.data if sparse else q) > 0.0
    count = np.count_nonzero(positive)
    # a diagonal entry positive within the column-sum tolerance is no edge
    if (count >= n * (n - 1)
            and count - np.count_nonzero(q.diagonal() > 0.0) == n * (n - 1)):
        return None
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import connected_components

    if sparse:
        if off is None:
            off = q.indices != _entry_rows(q)
        edges = None if (positive | ~off).all() else (_entry_rows(q)[positive],
                                                      q.indices[positive])
    else:
        edges = np.nonzero(positive)
    support = q
    if edges is not None:
        rows, cols = edges
        # csgraph walks C-contiguous int32 indices; np.nonzero's are strided
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        support = csr_array((np.ones(rows.size), cols.astype(np.int32), indptr),
                            shape=(n, n))
    n_comp, labels = connected_components(support, directed=True, connection="strong")
    if n_comp == 1:
        return None
    classes = {}
    for state, label in enumerate(labels.tolist()):
        classes.setdefault(label, []).append(state)
    src, dst = labels[_entry_rows(support)], labels[support.indices]
    entered = set(dst[src != dst].tolist())
    return list(classes.values()), [c for k, c in classes.items() if k not in entered]


def _entry_rows(m) -> np.ndarray:
    """The row of each stored entry of a CSR ``m``, in storage order."""
    return np.repeat(np.arange(m.shape[0], dtype=m.indices.dtype),
                     np.diff(m.indptr))


def _offdiagonal(m):
    """The mask of the off-diagonal stored entries of a CSR ``m``, and those
    entries as ``(rows, cols, values)`` in storage order."""
    rows = _entry_rows(m)
    off = m.indices != rows
    return off, (rows[off], m.indices[off], m.data[off])


def _least(rows, cols, values):
    """``(value, i, j)`` of the least of ``values``, at ``(rows, cols)``, or
    ``(0.0, 0, 0)`` when every value is positive: the entries they leave out
    count as zeros."""
    k = int(np.argmin(values)) if values.size else None
    if k is None or values[k] > 0.0:
        return 0.0, 0, 0
    return float(values[k]), int(rows[k]), int(cols[k])


def _least_offdiagonal(m):
    """``(value, i, j)`` of the least off-diagonal entry of ``m``, dense or
    CSR; the entries a CSR ``m`` does not store count as zeros."""
    if _issparse(m):
        return _least(*_offdiagonal(m)[1])
    off = m.copy()
    np.fill_diagonal(off, 0.0)
    k = int(off.argmin())
    i, j = divmod(k, off.shape[1])
    return float(off.flat[k]), i, j


def _sums(m, axis: int) -> np.ndarray:
    """Column (``axis=0``) or row (``axis=1``) sums of a dense or CSR ``m``;
    a CSR ``m``'s sums add its stored values in storage order."""
    if not _issparse(m):
        return m.sum(axis=axis)
    keys = m.indices if axis == 0 else _entry_rows(m)
    return np.bincount(keys, weights=m.data, minlength=m.shape[1 - axis])


def _check_square(m, what: str):
    """Raise ``ValueError`` unless ``m`` is square."""
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be square, got shape {m.shape}")


def _oriented(q, convention: str):
    """``q`` in column convention; ``"row"`` input is transposed."""
    if convention == "row":
        return q.T.tocsr() if _issparse(q) else np.ascontiguousarray(q.T)
    if convention != "column":
        raise ValueError(f"unknown convention {convention!r}; use 'column' or 'row'")
    return q


def validate_generator(raw, convention: str = "column") -> GeneratorMatrix:
    """Validate a raw rate matrix and normalize it to column convention.

    Parameters
    ----------
    raw : array_like or CSR array, shape (n, n)
        Candidate generator, of numbers: ints or floats, numpy scalars
        included, never a bool, ``None`` or a string.  With
        ``convention="row"`` the input is transposed before any check runs.
        A CSR input gives a CSR generator.  The generator keeps the copy of
        ``raw`` that was checked, never the caller's array.
    convention : {"column", "row"}

    Raises
    ------
    ValueError
        When ``raw`` is ragged, holds an entry that is not a number, or is
        not square with at least 2 rows.
    MarkovFlowError, NegativeRate, ColumnSumViolation, Reducible
        When an entry is not finite, or the corresponding invariant fails.
        Reducibility is decided exactly by strong connectivity of
        the positive-rate graph, so the accepted matrices always have a
        unique, strictly positive stationary distribution.
    """
    if _issparse(raw):
        q = _canonical_copy(raw)
    else:
        q = _read_numbers(raw, "the generator q", "a square array of numbers")
    _check_square(q, "generator")
    return _checked(_oriented(q, convention))


def _checked(q) -> GeneratorMatrix:
    """``GeneratorMatrix(q)`` once every generator invariant holds; ``q``, a
    square float or canonical CSR array that no caller holds, is kept."""
    if q.shape[0] < 2:
        raise ValueError(f"generator needs at least 2 states, got n={q.shape[0]}")
    scale = _finite_scale(q, "the generator")
    if _issparse(q):
        off, entries = _offdiagonal(q)
        least, i, j = _least(*entries)
    else:
        off = None
        least, i, j = _least_offdiagonal(q)
    if least < -NEGATIVE_RATE_RTOL * scale:
        raise NegativeRate(f"rate invariant violated: q[{i},{j}] = {least:.6g} < 0")
    col_sums = _sums(q, axis=0)
    worst = int(np.argmax(np.abs(col_sums)))
    if abs(col_sums[worst]) > COLUMN_SUM_RTOL * scale:
        raise ColumnSumViolation(
            f"column-sum invariant violated: column {worst} sums to "
            f"{col_sums[worst]:.6g} (tolerance {COLUMN_SUM_RTOL * scale:.3g})"
        )
    if (reducible := _reducible_classes(q, off)) is not None:
        classes, closed = reducible
        raise Reducible(
            "irreducibility invariant violated: "
            f"{len(classes)} communicating classes {reprlib.repr(classes)}; "
            f"closed classes {reprlib.repr(closed)} (stationary distribution "
            "would not be strictly positive)"
        )
    return GeneratorMatrix(q)


def from_offdiagonal_rates(rates) -> GeneratorMatrix:
    """Build a generator from off-diagonal rates, ignoring the diagonal.

    The diagonal is overwritten with minus the column sums, so the result
    conserves probability exactly, then the built array is checked.  CSR
    ``rates`` give a CSR generator, built by scipy from triples: rates at
    or below zero are dropped and the diagonal entries added.  Each column
    sum adds the column's rates in ascending row order, as numpy's dense
    column sum does, so a CSR and a dense copy of the same rates give the
    same generator bit for bit.  A rate that is not a number
    raises ``ValueError``, a NaN or infinite one :class:`MarkovFlowError`.
    """
    sparse = _issparse(rates)
    if sparse:
        # the arrays are only read; a non-canonical input is summed on a copy
        r = rates if _canonical_csr(rates) else _canonical_copy(rates)
    else:
        r = _read_numbers(rates, "the rates", "a square array of numbers")
    _check_square(r, "rate matrix")
    if sparse:
        _, (rows, cols, values) = _offdiagonal(r)
        scale = _finite_scale(values, "the rate matrix")
        least, i, j = _least(rows, cols, values)
    else:
        np.fill_diagonal(r, 0.0)
        scale = _finite_scale(r, "the rate matrix")
        least, i, j = _least_offdiagonal(r) if r.size else (0.0, 0, 0)
    if least < -NEGATIVE_RATE_RTOL * scale:
        raise NegativeRate(f"rate invariant violated: rate[{i},{j}] = {least:.6g} < 0")
    if sparse:
        positive = values > 0.0
        return _checked(_csr_generator(
            rows[positive], cols[positive], values[positive], r.shape[0]))
    r = np.clip(r, 0.0, None)
    np.fill_diagonal(r, -r.sum(axis=0))
    return _checked(r)


def _csr_generator(rows, cols, rates, n: int):
    """The CSR generator of off-diagonal ``rates`` at ``(rows, cols)``, given
    in canonical CSR order, with the diagonal entries added by scipy.

    The diagonal is minus the column sums: ``bincount`` adds each column's
    rates in storage order, which is ascending row order.
    """
    from scipy.sparse import csr_array

    states = np.arange(n, dtype=cols.dtype)
    data = np.concatenate((rates, -np.bincount(cols, weights=rates, minlength=n)))
    q = csr_array((data, (np.concatenate((rows, states)), np.concatenate((cols, states)))),
                  shape=(n, n))
    q.sum_duplicates()
    return q


def generator_from_json(obj: dict) -> GeneratorMatrix:
    """Load a generator from its JSON object form.

    Two schemas are accepted, each with an optional ``"convention"``:
    ``{"n": 3, "q": [[...]]}`` with an explicit diagonal, and the
    off-diagonal-only ``{"n": 3, "rates": [[...]]}``, diagonal recomputed.
    """
    if not isinstance(obj, dict):
        raise ValueError("generator JSON must be an object")
    convention = obj.get("convention", "column")
    if "q" in obj:
        gen = validate_generator(obj["q"], convention)
    elif "rates" in obj:
        rates = _read_numbers(obj["rates"], "the rates", "a square array of numbers")
        gen = from_offdiagonal_rates(_oriented(rates, convention))
    else:
        raise ValueError("generator JSON needs a 'q' or 'rates' field")
    if "n" in obj:
        try:
            if isinstance(obj["n"], bool):
                raise TypeError
            n = operator.index(obj["n"])
        except TypeError:
            raise ValueError(
                f"declared n must be an integer, got {reprlib.repr(obj['n'])}"
            ) from None
        if n != gen.n:
            raise ValueError(f"declared n={n} does not match matrix size {gen.n}")
    return gen


def generator_to_json(gen: GeneratorMatrix) -> dict:
    return {"n": gen.n, "convention": "column", "q": as_dense(gen.q).tolist()}


def probability_from_json(obj) -> ProbabilityVector:
    """Load a probability vector from JSON: either a bare array or an
    object ``{"p": [...]}`` (also accepts the ``"pi"`` key)."""
    return probability_vector(_json_field(obj, "p", "pi"))


def _json_field(obj, *keys):
    """A bare JSON value as it is, or the first of ``keys`` present in a
    JSON object."""
    if not isinstance(obj, dict):
        return obj
    for key in keys:
        if key in obj:
            return obj[key]
    raise ValueError(f"JSON object needs one of the fields {keys}")
