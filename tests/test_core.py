import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.sparse import csr_array

from markov_flow import (
    from_offdiagonal_rates,
    generator_from_json,
    generator_to_json,
    probability_from_json,
    probability_vector,
    validate_generator,
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
    _strongly_connected,
    _support_classes,
    as_dense,
)

from helpers import random_generator


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


def test_probability_vector_clips_roundoff():
    p = probability_vector([1.0 + 4e-13, -4e-13])
    assert p.p[1] == 0.0
    assert p.p.sum() == 1.0


def test_probability_json_forms():
    np.testing.assert_array_equal(probability_from_json([1.0, 0.0]).p, [1.0, 0.0])
    np.testing.assert_array_equal(probability_from_json({"p": [0.5, 0.5]}).p, [0.5, 0.5])
    np.testing.assert_array_equal(probability_from_json({"pi": [0.5, 0.5]}).p, [0.5, 0.5])
    with pytest.raises(ValueError):
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
        "[[0, 1], [3, 4], [2]]; closed classes [[0, 1], [3, 4]] (stationary "
        "distribution would not be strictly positive)"
    )


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
    expected = len(_support_classes(q.T > 0.0)[0]) == 1
    n = q.shape[0]
    rows, cols = np.divmod(np.arange(n * n), n)
    stored_zeros = csr_array((q.ravel(), (rows, cols)), shape=(n, n))
    for form in (q, csr_array(q), stored_zeros):
        assert _strongly_connected(form) == expected


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


def test_as_dense_caps_sparse_operands():
    small = csr_array(np.eye(3))
    np.testing.assert_array_equal(as_dense(small), np.eye(3))
    dense = np.eye(3)
    assert as_dense(dense) is dense
    big = csr_array((DENSE_MAX_STATES + 1, DENSE_MAX_STATES + 1))
    with pytest.raises(TooLarge):
        as_dense(big)
