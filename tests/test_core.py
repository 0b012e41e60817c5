import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components

from markov_flow import (
    compose,
    cycle_decompose,
    decompose,
    evolve,
    fpe_problem,
    from_offdiagonal_rates,
    generator_from_json,
    generator_to_json,
    kl_divergence,
    probability_from_json,
    probability_vector,
    spectral_bound,
    symmetric_eigensolve,
    validate_generator,
    verify_bound,
)
from markov_flow.errors import (
    ColumnSumViolation,
    InvalidProbability,
    MarkovFlowError,
    NegativeRate,
    Reducible,
    TooLarge,
)
from markov_flow.core import (
    DENSE_MAX_STATES,
    GeneratorMatrix,
    _reducible_classes,
    as_dense,
)

from helpers import count_calls, random_generator


def test_minimal_two_state_generator():
    gen = validate_generator([[-1.0, 2.0], [1.0, -2.0]])
    assert gen.n == 2
    # column convention: q[1, 0] is the rate 0 -> 1
    assert gen.q[1, 0] == 1.0
    assert gen.q[0, 1] == 2.0


def test_row_convention_is_transposed():
    col = validate_generator([[-1.0, 2.0], [1.0, -2.0]], convention="column")
    row = validate_generator([[-1.0, 1.0], [2.0, -2.0]], convention="row")
    np.testing.assert_array_equal(col.q, row.q)


def test_unknown_convention_rejected():
    with pytest.raises(ValueError):
        validate_generator([[-1.0, 2.0], [1.0, -2.0]], convention="diag")


def test_absorbing_chain_is_reducible():
    with pytest.raises(Reducible) as exc:
        validate_generator([[-1.0, 0.0], [1.0, 0.0]])
    assert "communicating classes" in str(exc.value)
    assert "[1]" in str(exc.value)  # the absorbing closed class


def test_negative_offdiagonal_rejected():
    with pytest.raises(NegativeRate):
        validate_generator([[-1.0, -0.5], [1.0, 0.5]])


def test_column_sum_violation_rejected():
    with pytest.raises(ColumnSumViolation):
        validate_generator([[-1.0, 2.0], [1.5, -2.0]])


def test_non_square_rejected():
    with pytest.raises(ValueError):
        validate_generator([[1.0, 2.0, 3.0]])
    with pytest.raises(ValueError):
        validate_generator([[0.0]])


@pytest.mark.parametrize("build, n", [
    (lambda: validate_generator([[0.0]]), 1),
    (lambda: validate_generator(csr_array([[0.0]])), 1),
    (lambda: from_offdiagonal_rates([[0.0]]), 1),
    (lambda: from_offdiagonal_rates(csr_array([[0.0]])), 1),
    (lambda: compose([1.0], [[0.0]], [[0.0]]), 1),
    (lambda: from_offdiagonal_rates(np.zeros((0, 0))), 0),
    (lambda: from_offdiagonal_rates(csr_array((0, 0))), 0),
], ids=["q", "csr-q", "rates", "csr-rates", "compose", "rates-0x0", "csr-rates-0x0"])
def test_every_builder_refuses_a_one_state_generator(build, n):
    with pytest.raises(ValueError, match=f"generator needs at least 2 states, got n={n}"):
        build()


def test_from_offdiagonal_three_cycle():
    gen = from_offdiagonal_rates([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    np.testing.assert_array_equal(np.diag(gen.q), [-1.0, -1.0, -1.0])
    assert np.abs(gen.q.sum(axis=0)).max() == 0.0


def test_from_offdiagonal_two_state():
    gen = from_offdiagonal_rates([[7.0, 2.0], [1.0, -0.0]])  # diagonal ignored
    np.testing.assert_array_equal(gen.q, [[-1.0, 2.0], [1.0, -2.0]])


def test_from_offdiagonal_negative_rate():
    with pytest.raises(NegativeRate):
        from_offdiagonal_rates([[0.0, -0.5], [1.0, 0.0]])


def test_validation_is_idempotent():
    rng = np.random.default_rng(7)
    gen = random_generator(rng, 6)
    again = validate_generator(gen.q)
    np.testing.assert_array_equal(gen.q, again.q)


def test_generator_arrays_are_readonly():
    gen = validate_generator([[-1.0, 2.0], [1.0, -2.0]])
    with pytest.raises(ValueError):
        gen.q[0, 0] = 5.0


def test_every_result_array_is_readonly():
    gen = from_offdiagonal_rates([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    d = decompose(gen)
    traj = evolve(gen, probability_vector([1.0, 0.0, 0.0]), np.linspace(0.0, 1.0, 5))
    sb = spectral_bound(d)
    problem = fpe_problem(((-3, 3), (-3, 3)), 4, 4, "quadratic", gamma=0.5)
    results = [gen, d.pi, d, traj, sb, verify_bound(traj, sb), problem]
    for result in results:
        arrays = {f.name: getattr(result, f.name) for f in dataclasses.fields(result)}
        arrays = {k: v for k, v in arrays.items() if isinstance(v, np.ndarray)}
        assert arrays, type(result).__name__
        for name, arr in arrays.items():
            assert not arr.flags.writeable, (type(result).__name__, name)


def test_generator_json_roundtrip():
    rng = np.random.default_rng(11)
    gen = random_generator(rng, 5)
    obj = generator_to_json(gen)
    assert obj["convention"] == "column"
    back = generator_from_json(obj)
    np.testing.assert_allclose(back.q, gen.q, rtol=0, atol=0)


def test_generator_json_rates_variant():
    gen = generator_from_json({"n": 3, "rates": [[9, 0, 1], [1, 9, 0], [0, 1, 9]]})
    np.testing.assert_array_equal(np.diag(gen.q), [-1.0, -1.0, -1.0])


def test_generator_json_errors():
    with pytest.raises(ValueError):
        generator_from_json({"n": 2})
    with pytest.raises(ValueError):
        generator_from_json({"n": 5, "q": [[-1.0, 2.0], [1.0, -2.0]]})
    with pytest.raises(ValueError):
        generator_from_json([[-1.0, 2.0], [1.0, -2.0]])


def test_probability_vector_validates():
    p = probability_vector([0.5, 0.25, 0.25])
    assert p.n == 3
    with pytest.raises(InvalidProbability):
        probability_vector([0.7, 0.4])
    with pytest.raises(InvalidProbability):
        probability_vector([1.2, -0.2])
    with pytest.raises(InvalidProbability, match="probability vector is empty"):
        probability_vector([])


def test_probability_vector_clips_roundoff():
    p = probability_vector([1.0 + 4e-13, -4e-13])
    assert p.p[1] == 0.0
    assert p.p.sum() == 1.0


def test_probability_json_forms():
    np.testing.assert_array_equal(probability_from_json([1.0, 0.0]).p, [1.0, 0.0])
    np.testing.assert_array_equal(probability_from_json({"p": [0.5, 0.5]}).p, [0.5, 0.5])
    np.testing.assert_array_equal(probability_from_json({"pi": [0.5, 0.5]}).p, [0.5, 0.5])
    with pytest.raises(ValueError, match=r"JSON object needs one of the fields \('p', 'pi'\)"):
        probability_from_json({"weights": [1.0]})


def test_all_zero_matrix_is_reducible():
    with pytest.raises(Reducible):
        validate_generator(np.zeros((3, 3)))


# rates j -> i at [i, j]: {0, 1} and {3, 4} are closed, 2 leaks into both
REDUCIBLE_RATES = np.array([
    [0.0, 1.0, 1.0, 0.0, 0.0],
    [1.0, 0.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 1.0, 0.0, 2.0],
    [0.0, 0.0, 0.0, 3.0, 0.0],
])
REDUCIBLE_Q = REDUCIBLE_RATES - np.diag(REDUCIBLE_RATES.sum(axis=0))


@pytest.mark.parametrize("build, raw, error", [
    (validate_generator, [[-1.0, -0.5, 0.0], [1.0, 0.5, 1.0], [0.0, 0.0, -1.0]],
     NegativeRate),
    (validate_generator, [[-1.0, 2.0], [1.5, -2.0]], ColumnSumViolation),
    (validate_generator, REDUCIBLE_Q, Reducible),
    (from_offdiagonal_rates, [[0.0, -0.5, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
     NegativeRate),
    (from_offdiagonal_rates, REDUCIBLE_RATES, Reducible),
], ids=["negative", "column-sum", "reducible", "rates-negative", "rates-reducible"])
def test_csr_input_fails_like_dense(build, raw, error):
    messages = []
    for form in (np.array(raw), csr_array(raw)):
        with pytest.raises(error) as exc:
            build(form)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert "invariant violated" in messages[0]


@pytest.mark.parametrize("build, raw", [
    (validate_generator, [[np.nan, 1.0], [1.0, -1.0]]),
    (validate_generator, [[-np.inf, 1.0], [np.inf, -1.0]]),
    (from_offdiagonal_rates, [[0.0, np.inf], [1.0, 0.0]]),
    (from_offdiagonal_rates, [[0.0, 1.0, np.nan], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]),
], ids=["nan", "inf", "rates-inf", "rates-nan"])
def test_non_finite_generator_is_rejected(build, raw):
    # the check runs before any reduction that would warn on inf - inf
    messages = []
    for form in (np.array(raw), csr_array(raw)):
        with pytest.raises(MarkovFlowError, match="finiteness invariant violated") as exc:
            build(form)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("values", [[np.nan, 1.0], [0.5, 0.5, np.inf], [-np.inf, 1.0]])
def test_non_finite_probability_is_rejected(values):
    with pytest.raises(InvalidProbability, match="finiteness invariant violated"):
        probability_vector(values)


def test_reducible_names_closed_classes():
    with pytest.raises(Reducible) as exc:
        validate_generator(csr_array(REDUCIBLE_Q))
    assert "3 communicating classes" in str(exc.value)
    assert "closed classes [[0, 1], [3, 4]]" in str(exc.value)


@pytest.mark.parametrize("raw, convention", [
    (REDUCIBLE_Q, "column"),
    (csr_array(REDUCIBLE_Q), "column"),
    (REDUCIBLE_Q.T, "row"),
    (csr_array(REDUCIBLE_Q.T), "row"),
], ids=["dense", "csr", "dense-row", "csr-row"])
def test_reducible_lists_the_same_classes_for_every_input_form(raw, convention):
    with pytest.raises(Reducible) as exc:
        validate_generator(raw, convention)
    assert str(exc.value) == (
        "irreducibility invariant violated: 3 communicating classes "
        "[[0, 1], [2], [3, 4]]; closed classes [[0, 1], [3, 4]] (stationary "
        "distribution would not be strictly positive)"
    )


def test_reducible_message_of_a_long_path_chain_stays_short():
    # a 4096-state birth-death chain whose state 2048 cannot step back
    n = 4096
    states = np.arange(n - 1)
    back = states[states != 2047]
    rows = np.concatenate((states + 1, back))
    cols = np.concatenate((states, back + 1))
    rates = csr_array((np.ones(rows.size), (rows, cols)), shape=(n, n))
    with pytest.raises(Reducible) as exc:
        from_offdiagonal_rates(rates)
    assert "2 communicating classes" in str(exc.value)
    assert len(str(exc.value)) < 1000


@st.composite
def supports(draw):
    """Boolean rate supports (``[i, j]``: a rate j -> i) that are often
    strongly connected and often not: a birth-death chain, a ring with
    extra edges, or a block-triangular pair of blocks, each with some edges
    dropped, or an arbitrary pattern."""
    n = draw(st.integers(2, 12))
    family = draw(st.sampled_from(["birth_death", "ring", "block", "any"]))
    extra = draw(arrays(np.bool_, (n, n)))
    # about one edge in four of the structured families is dropped
    kept = draw(arrays(np.bool_, (n, n), elements=st.sampled_from([True] * 3 + [False])))
    if family == "birth_death":
        edges = (np.eye(n, k=1, dtype=bool) | np.eye(n, k=-1, dtype=bool)) & kept
    elif family == "ring":
        edges = (np.roll(np.eye(n, dtype=bool), 1, axis=0) | extra) & kept
    elif family == "block":
        cut = draw(st.integers(1, n - 1))
        edges = extra.copy()
        edges[:cut, cut:] = False      # the first block never hears from the second
    else:
        edges = extra
    np.fill_diagonal(edges, False)
    return edges


@settings(derandomize=True, deadline=None, max_examples=200)
@given(edges=supports())
def test_strong_connectivity_agrees_with_support_classes(edges):
    rates = edges.astype(float)
    q = rates - np.diag(rates.sum(axis=0))
    n_comp, labels = connected_components(q.T > 0.0, connection="strong")
    # scipy's classes, ordered by their least state; closed: no rate leaves
    classes = sorted(np.flatnonzero(labels == c).tolist() for c in range(n_comp))
    src, dst = np.nonzero(q.T > 0.0)
    leaving = set(labels[src[labels[src] != labels[dst]]].tolist())
    closed = [c for c in classes if labels[c[0]] not in leaving]
    expected = None if n_comp == 1 else (classes, closed)
    n = q.shape[0]
    rows, cols = np.divmod(np.arange(n * n), n)
    stored_zeros = csr_array((q.ravel(), (rows, cols)), shape=(n, n))
    for form in (q, csr_array(q), stored_zeros):
        assert _reducible_classes(form) == expected


@pytest.mark.parametrize("form", [np.array, csr_array], ids=["dense", "csr"])
def test_complete_support_needs_no_graph_search(form, monkeypatch):
    search = count_calls(monkeypatch, "scipy.sparse.csgraph", "connected_components")
    rates = np.random.default_rng(7).uniform(0.2, 2.0, (6, 6))
    np.fill_diagonal(rates, 0.0)

    def generator():
        return form(rates - np.diag(rates.sum(axis=0)))

    validate_generator(generator())
    assert search.call_count == 0
    # one missing rate: csgraph decides, and the chain is still irreducible
    rates[2, 4] = 0.0
    validate_generator(generator())
    assert search.call_count == 1
    # no rate out of state 0: absorbing
    rates[:, 0] = 0.0
    with pytest.raises(Reducible):
        validate_generator(generator())


def test_csr_generator_matches_dense():
    rng = np.random.default_rng(5)
    rates = rng.uniform(0.0, 1.0, (6, 6)) * (rng.uniform(size=(6, 6)) < 0.5)
    rates += np.roll(np.eye(6), 1, axis=0)        # a ring keeps it irreducible
    dense = from_offdiagonal_rates(rates)
    sparse = from_offdiagonal_rates(csr_array(rates))
    np.testing.assert_array_equal(sparse.q.toarray(), dense.q)
    for convention, raw in (("column", dense.q), ("row", dense.q.T)):
        np.testing.assert_array_equal(
            validate_generator(csr_array(raw), convention).q.toarray(), dense.q
        )
    with pytest.raises(ValueError):
        sparse.q.data[0] = 1.0


# rows 0 and 3 lie wholly right of the diagonal, rows 2 and 4 wholly left;
# -1e-15 is a round-off negative, tolerated and dropped
AWKWARD_RATES = np.array([
    [0.0, 0.5, 0.0, 0.25, 1.5],
    [0.75, 0.0, 0.0, 0.0, 0.0],
    [0.0, 1.25, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0, 2.0],
    [0.0, 0.0, 1.0, 3.0, 0.0],
])
AWKWARD_RATES[1, 3] = -1e-15 * 3.0


def _awkward_csr(rates):
    """A CSR array of ``rates`` with every row's indices reversed, each value
    split into two stored halves, explicit zeros in the empty slots of the
    first two rows, and a stored diagonal that the builder must ignore."""
    n = rates.shape[0]
    data, indices, indptr = [], [], [0]
    for i in range(n):
        for j in reversed(range(n)):
            if rates[i, j] != 0.0:
                data += [rates[i, j] / 2.0, rates[i, j] / 2.0]
                indices += [j, j]
            elif i == j:
                data.append(7.0)
                indices.append(j)
            elif i < 2:
                data.append(0.0)
                indices.append(j)
        indptr.append(len(data))
    return csr_array((np.array(data), np.array(indices), np.array(indptr)),
                     shape=(n, n))


@pytest.mark.parametrize("form", [
    csr_array,
    _awkward_csr,
    lambda rates: csr_array(rates).tocoo(),
], ids=["canonical", "unsorted-duplicates-zeros", "coo"])
def test_csr_rates_build_the_dense_generator_bit_for_bit(form):
    dense = from_offdiagonal_rates(AWKWARD_RATES).q
    raw = form(AWKWARD_RATES)
    before = raw.copy()
    q = from_offdiagonal_rates(raw).q
    assert isinstance(q, csr_array) and q.has_canonical_format
    assert q.toarray().tobytes() == dense.tobytes()
    # stored: each row's positive rates and its diagonal, nothing else
    assert q.nnz == np.count_nonzero(dense)
    assert not q.data.flags.writeable
    with pytest.raises(ValueError):
        q.data[0] = 1.0
    # the input is read, not reordered or summed in place
    for name in ("data", "indices", "indptr") if raw.format == "csr" else ():
        assert getattr(raw, name).tobytes() == getattr(before, name).tobytes()


def test_canonical_csr_generator_is_frozen_without_a_copy():
    raw = csr_array(from_offdiagonal_rates(AWKWARD_RATES).q)
    q = validate_generator(raw).q
    assert raw.data.flags.writeable        # validation copies the caller's array
    assert GeneratorMatrix(q).q is q       # and nothing copies it again


def test_built_csr_generator_is_validated_without_a_copy(monkeypatch):
    copies = count_calls(monkeypatch, "markov_flow.core", "_canonical_copy")
    from_offdiagonal_rates(csr_array(AWKWARD_RATES))
    assert copies.call_count == 0


def test_csr_generator_index_arrays_are_read_only():
    gen = from_offdiagonal_rates(csr_array([[0, 1, 2], [1, 0, 1], [3, 1, 0]]))
    indices = gen.q.indices
    # swapping two column indices would silently move two rates
    with pytest.raises(ValueError, match="read-only"):
        indices[0], indices[1] = indices[1], indices[0]
    with pytest.raises(ValueError, match="read-only"):
        gen.q.indptr[1] = 0


def test_csr_input_is_copied_whatever_its_flags():
    parts = ("data", "indices", "indptr")
    for frozen in ((), ("data",), ("indices",), parts):
        raw = csr_array(from_offdiagonal_rates(AWKWARD_RATES).q)
        for name in frozen:
            getattr(raw, name).flags.writeable = False
        q = validate_generator(raw).q
        for name in parts:
            assert not np.shares_memory(getattr(q, name), getattr(raw, name)), (frozen, name)
            # the caller's arrays are left as they were
            assert getattr(raw, name).flags.writeable == (name not in frozen)
    # a generator's own frozen q is copied too
    gen = from_offdiagonal_rates(csr_array(AWKWARD_RATES))
    assert validate_generator(gen.q).q is not gen.q


def test_validated_generator_keeps_its_bytes_when_the_caller_writes_its_array():
    raw = csr_array(from_offdiagonal_rates(AWKWARD_RATES).q)
    for part in (raw.data, raw.indices, raw.indptr):
        part.flags.writeable = False
    gen = validate_generator(raw)
    q_bytes, pi_bytes = gen.q.toarray().tobytes(), decompose(gen).pi.p.tobytes()
    raw.data.flags.writeable = True
    raw.data[0] = 7.0
    assert gen.q.toarray().tobytes() == q_bytes
    assert decompose(gen).pi.p.tobytes() == pi_bytes
    assert np.abs(gen.q @ decompose(gen).pi.p).max() < 1e-12


def test_numpy_scalars_read_as_the_numbers_they_hold():
    rates = [[0, 2, 0.5], [1, 0, 3], [2.25, 1, 0]]
    as_numpy = [[np.int64(v) if isinstance(v, int) else np.float64(v) for v in row]
                for row in rates]
    assert (from_offdiagonal_rates(as_numpy).q.tobytes()
            == from_offdiagonal_rates(rates).q.tobytes())
    q = from_offdiagonal_rates(rates).q.tolist()
    assert (validate_generator([[np.float64(v) for v in row] for row in q]).q.tobytes()
            == validate_generator(q).q.tobytes())
    assert (probability_vector([np.float64(0.25), np.int64(0), np.float64(0.75)]).p.tobytes()
            == probability_vector([0.25, 0, 0.75]).p.tobytes())
    # an array-like is read through its array, whatever iterating it yields
    assert (from_offdiagonal_rates(_Labelled(rates)).q.tobytes()
            == from_offdiagonal_rates(rates).q.tobytes())


class _Labelled:
    """An array-like that iterates its column labels, as a data frame does."""

    def __init__(self, values):
        self.values = values

    def __array__(self, dtype=None, copy=None):
        return np.array(self.values, dtype=dtype)

    def __iter__(self):
        return iter("abc")


@pytest.mark.parametrize("read", [
    lambda: validate_generator([[-1.0, True], [1.0, -1.0]]),
    lambda: from_offdiagonal_rates([[0, "1"], [1, 0]]),
    lambda: probability_vector([True, 0]),
    lambda: compose([0.5, 0.5], [[-1.0, 1.0], [1.0, None]], np.zeros((2, 2))),
    lambda: cycle_decompose([[0, True], [-1, 0]]),
    lambda: symmetric_eigensolve(np.array([[1.0, 0.0], [0.0, 1.0]]).astype(bool)),
    lambda: kl_divergence([0.5, np.bool_(True)], [0.5, 0.5]),
    lambda: evolve(validate_generator([[-1.0, 1.0], [1.0, -1.0]]),
                   probability_vector([1.0, 0.0]), ["0", "1"]),
    lambda: fpe_problem(((-1, 1), (-1, 1)), 4, 4, "quadratic", gamma="0.5"),
], ids=["generator", "rates", "p", "compose", "cycles", "eigensolve", "kl", "times",
        "continuum"])
def test_an_entry_that_is_not_a_number_raises_value_error(read):
    # the class the float conversion raised before any type check existed
    with pytest.raises(ValueError, match="must be") as refusal:
        read()
    assert type(refusal.value) is ValueError


@pytest.mark.parametrize("link", [0.0, -1e-15], ids=["explicit-zero", "tiny-negative"])
def test_csr_link_that_is_not_a_rate_leaves_the_chain_reducible(link):
    # classes {0, 1} and {2, 3}: the rate 0 -> 2 is positive, and the
    # stored entry for 2 -> 0 carries no rate
    q = np.array([
        [-2.0, 1.0, link, 0.0],
        [1.0, -1.0, 0.0, 0.0],
        [1.0, 0.0, -1.0 - link, 1.0],
        [0.0, 0.0, 1.0, -1.0],
    ])
    stored = q != 0.0
    stored[0, 2] = True
    raw = csr_array((q[stored], np.nonzero(stored)), shape=(4, 4))
    assert raw.nnz == 10
    with pytest.raises(Reducible, match=r"closed classes \[\[2, 3\]\]"):
        validate_generator(raw)


def test_as_dense_caps_sparse_operands():
    small = csr_array(np.eye(3))
    np.testing.assert_array_equal(as_dense(small), np.eye(3))
    dense = np.eye(3)
    assert as_dense(dense) is dense
    big = csr_array((DENSE_MAX_STATES + 1, DENSE_MAX_STATES + 1))
    with pytest.raises(TooLarge):
        as_dense(big)
