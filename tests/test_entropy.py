import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from markov_flow import (
    FlowDecomposition,
    ProbabilityVector,
    decompose,
    evolve,
    from_offdiagonal_rates,
    gini_divergence,
    gini_production,
    kl_divergence,
    probability_vector,
    production_split,
    relative_f_entropy,
    relative_f_kind,
    shannon_entropy,
    shannon_production_split,
)
from markov_flow.errors import InvalidProbability, NotAntisymmetric, PositivityViolation

from helpers import (
    random_birth_death,
    random_generator,
    random_probability,
    wide_rate_generators,
)


def three_cycle():
    return from_offdiagonal_rates([[0, 0, 1], [1, 0, 0], [0, 1, 0]])


def test_shannon_values():
    assert shannon_entropy([1.0, 0.0, 0.0]) == 0.0
    np.testing.assert_allclose(shannon_entropy(np.full(5, 0.2)), np.log(5), atol=1e-15)
    np.testing.assert_allclose(
        shannon_entropy([0.5, 0.25, 0.25]), 1.5 * np.log(2), atol=1e-15
    )


def test_shannon_bounds():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        h = shannon_entropy(random_probability(rng, n))
        assert -1e-15 <= h <= np.log(n) + 1e-12


def test_relative_f_zero_at_reference():
    pi = np.array([0.3, 0.45, 0.25])
    for f in (lambda x: x * np.log(np.where(x > 0, x, 1.0)),
              lambda x: x * x - 1.0,
              lambda x: (x - 1.0) ** 2):
        assert abs(relative_f_entropy(pi, pi, f)) <= 1e-14


def test_relative_f_kl_case():
    f = lambda x: np.where(x > 0, x, 1.0) * np.log(np.where(x > 0, x, 1.0))
    value = relative_f_entropy([1.0, 0.0], [0.5, 0.5], f)
    np.testing.assert_allclose(value, -np.log(2), atol=1e-14)


def test_relative_f_shifted_quadratic_case():
    value = relative_f_entropy([1.0, 0.0], [2 / 3, 1 / 3], lambda x: x * x - 1.0)
    np.testing.assert_allclose(value, -0.5, atol=1e-14)
    # and it is exactly the negated quadratic divergence
    np.testing.assert_allclose(
        value, -gini_divergence([1.0, 0.0], [2 / 3, 1 / 3]), atol=1e-15
    )


def test_relative_f_is_nonpositive():
    rng = np.random.default_rng(5)
    handles = [
        lambda x: x * x - 1.0,
        lambda x: (x - 1.0) ** 2,
        lambda x: np.abs(x - 1.0),
    ]
    for _ in range(100):
        n = int(rng.integers(2, 10))
        p = random_probability(rng, n)
        pi = random_probability(rng, n)
        if pi.p.min() <= 0:
            continue
        for f in handles:
            assert relative_f_entropy(p, pi, f) <= 1e-12


def test_relative_f_requires_normalized_handle():
    with pytest.raises(ValueError):
        relative_f_entropy([0.5, 0.5], [0.5, 0.5], lambda x: x * x)


def test_relative_f_spots_concave_handle():
    with pytest.raises(ValueError):
        relative_f_entropy([0.9, 0.1], [0.5, 0.5], lambda x: 1.0 - x * x)


def test_relative_f_rejects_nonpositive_reference():
    with pytest.raises(PositivityViolation):
        relative_f_entropy([0.5, 0.5], [1.0, 0.0], lambda x: x * x - 1.0)


def test_divergences_reject_size_mismatch():
    p, pi = [1.0, 0.0], np.full(3, 1 / 3)
    for divergence in (kl_divergence, gini_divergence,
                       lambda p, pi: relative_f_entropy(p, pi, lambda x: x * x - 1.0)):
        with pytest.raises(ValueError, match="size invariant violated: p has 2 entries"):
            divergence(p, pi)


def test_gini_divergence_values():
    pi = np.array([0.3, 0.45, 0.25])
    assert abs(gini_divergence(pi, pi)) <= 1e-15
    np.testing.assert_allclose(gini_divergence([1.0, 0.0], [0.5, 0.5]), 1.0, atol=1e-15)


def test_gini_divergence_is_nonnegative_at_the_fixed_point():
    # the expanded sum(p^2/pi) - 1 read below zero at pi on some of these
    for seed in range(200):
        pi = decompose(random_generator(np.random.default_rng(seed), 8)).pi
        assert gini_divergence(pi, pi) >= 0.0
        assert (gini_divergence(np.stack([pi.p, pi.p]), pi) >= 0.0).all()


def test_gini_chi_square_identity():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = int(rng.integers(2, 12))
        p = random_probability(rng, n).p
        pi = random_probability(rng, n).p
        if pi.min() <= 1e-6:
            continue
        direct = gini_divergence(p, pi)
        chi2 = ((p - pi) ** 2 / pi).sum()
        assert abs(direct - chi2) <= 1e-14 * max(1.0, chi2)


def test_kl_divergence_basics():
    np.testing.assert_allclose(kl_divergence([1.0, 0.0], [0.5, 0.5]), np.log(2), atol=1e-14)
    assert kl_divergence([0.5, 0.5], [0.5, 0.5]) == 0.0
    with pytest.raises(ValueError, match="p must be an array of numbers"):
        kl_divergence([0.5, True], [0.5, 0.5])


def test_gini_production_zero_at_stationarity():
    d = decompose(three_cycle())
    assert abs(gini_production(d.pi, d)) <= 1e-14


def test_gini_production_three_cycle_at_vertex():
    d = decompose(three_cycle())
    np.testing.assert_allclose(
        gini_production([1.0, 0.0, 0.0], d), -6.0, atol=1e-12
    )


def test_gini_production_matches_finite_difference():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(3, 8))
        gen = random_generator(rng, n)
        d = decompose(gen)
        p0 = random_probability(rng, n)
        t0 = 0.3 / np.abs(np.diag(gen.q)).max()
        h = t0 / 64.0
        traj = evolve(gen, p0, np.array([t0 - h, t0, t0 + h]))
        d_minus = gini_divergence(traj.states[0], d.pi.p)
        d_plus = gini_divergence(traj.states[2], d.pi.p)
        measured = (d_plus - d_minus) / (2.0 * h)
        predicted = gini_production(traj.states[1], d)
        # central difference carries an O(h^2) truncation term
        assert abs(measured - predicted) <= 1e-4 * max(1.0, abs(predicted))


def test_gini_production_is_nonpositive():
    rng = np.random.default_rng(13)
    for _ in range(200):
        n = int(rng.integers(2, 10))
        d = decompose(random_generator(rng, n))
        p = random_probability(rng, n)
        assert gini_production(p, d) <= 1e-12


def test_production_split_circulation_part_vanishes():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(2, 10))
        d = decompose(random_generator(rng, n))
        p = random_probability(rng, n)
        parts = production_split(p, d)
        r = p.p / d.pi.p
        scale = np.linalg.norm(d.A) * (r @ r)
        assert abs(parts["a_part"]) <= 1e-13 * max(scale, 1e-300)
        np.testing.assert_allclose(
            parts["s_part"] + parts["a_part"], gini_production(p, d), atol=1e-10
        )


@settings(derandomize=True, deadline=None)
@given(gen=wide_rate_generators(), data=st.data())
def test_production_split_on_wide_rates(gen, data):
    weights = data.draw(arrays(np.float64, gen.n, elements=st.floats(0.0, 1.0)))
    assume(weights.sum() > 0.0)
    p = probability_vector(weights / weights.sum())
    d = decompose(gen)
    r = p.p / d.pi.p
    scale = np.linalg.norm(d.A) * (r @ r)
    assert abs(production_split(p, d)["a_part"]) <= 1e-13 * max(scale, 1e-300)


def test_production_split_s_part_is_gini_production():
    rng = np.random.default_rng(37)
    for _ in range(100):
        n = int(rng.integers(2, 40))
        d = decompose(random_generator(rng, n, density=float(rng.uniform(0.2, 1.0))))
        weights = rng.random(n) * (rng.random(n) < 0.6)
        weights[int(rng.integers(n))] = 1.0
        p = probability_vector(weights / weights.sum())
        assert production_split(p, d)["s_part"] == gini_production(p, d)


@settings(derandomize=True, deadline=None)
@given(gen=wide_rate_generators(), data=st.data())
def test_stack_gives_the_values_of_its_rows(gen, data):
    m = data.draw(st.integers(1, 8))
    weights = data.draw(arrays(np.float64, (m, gen.n), elements=st.floats(0.0, 1.0)))
    weights += weights.sum(axis=1, keepdims=True) == 0.0  # an all-zero row -> uniform
    rows = weights / weights.sum(axis=1, keepdims=True)
    pi = decompose(gen).pi.p
    for divergence in (
        shannon_entropy,
        lambda p: kl_divergence(p, pi),
        lambda p: gini_divergence(p, pi),
        lambda p: relative_f_entropy(p, pi, lambda x: (x - 1.0) ** 2),
    ):
        stacked = divergence(rows)
        assert stacked.shape == (m,)
        assert (stacked == [divergence(row) for row in rows]).all()


def test_production_split_detailed_balance_chain():
    rng = np.random.default_rng(19)
    gen = random_birth_death(rng, 5)
    d = decompose(gen)
    p = random_probability(rng, 5)
    parts = production_split(p, d)
    np.testing.assert_allclose(parts["s_part"], gini_production(p, d), atol=1e-12)
    assert abs(parts["a_part"]) <= 1e-15


def test_production_split_rejects_nonantisymmetric_circulation():
    # hand-built, unchecked: the "circulation" is not antisymmetric, so
    # its quadratic form does not vanish
    s = np.array([[-1.0, 1.0], [1.0, -1.0]])
    a = np.array([[0.0, 0.5], [0.0, 0.0]])
    d = FlowDecomposition(pi=ProbabilityVector(np.array([0.5, 0.5])), F=s + a, S=s, A=a)
    with pytest.raises(NotAntisymmetric, match="quadratic-form invariant"):
        production_split([0.5, 0.5], d)


def test_shannon_split_circulation_part_generically_nonzero():
    rng = np.random.default_rng(23)
    found = 0.0
    for _ in range(100):
        gen = random_generator(rng, 3)
        d = decompose(gen)
        if np.abs(d.A).max() <= 1e-8 * np.abs(d.F).max():
            continue
        p = random_probability(rng, 3)
        if p.p.min() <= 0.0:
            continue
        found = max(found, abs(shannon_production_split(p, d)["a_part"]))
        if found > 1e-6:
            break
    assert found > 1e-6, found


def test_shannon_split_total_matches_kl_derivative():
    rng = np.random.default_rng(29)
    gen = random_generator(rng, 4)
    d = decompose(gen)
    p0 = probability_vector(rng.dirichlet(np.ones(4)))
    t0 = 0.2
    h = 1e-4
    traj = evolve(gen, p0, np.array([t0 - h, t0, t0 + h]))
    kl_minus = kl_divergence(traj.states[0], d.pi.p)
    kl_plus = kl_divergence(traj.states[2], d.pi.p)
    measured = -(kl_plus - kl_minus) / (2.0 * h)  # entropy orientation
    parts = shannon_production_split(traj.states[1], d)
    assert abs(parts["s_part"] + parts["a_part"] - measured) <= 1e-5


def test_shannon_split_requires_interior_point():
    d = decompose(three_cycle())
    with pytest.raises(PositivityViolation):
        shannon_production_split([1.0, 0.0, 0.0], d)


def test_shannon_split_rejects_size_mismatch():
    d = decompose(three_cycle())
    with pytest.raises(ValueError, match="size invariant violated: p has 2 entries"):
        shannon_production_split([0.5, 0.5], d)


def test_shannon_split_refuses_nan():
    d = decompose(three_cycle())
    with pytest.raises(InvalidProbability, match="finiteness invariant"):
        shannon_production_split([0.2, np.nan, 0.8], d)


def test_production_split_refuses_nan():
    d = decompose(three_cycle())
    with pytest.raises(InvalidProbability, match="finiteness invariant"):
        production_split([0.2, np.nan, 0.8], d)


# each entropy function that takes one distribution or a stack
per_row_quantities = pytest.mark.parametrize("quantity", [
    lambda p, d: shannon_entropy(p),
    lambda p, d: kl_divergence(p, d.pi),
    lambda p, d: relative_f_entropy(p, d.pi, lambda r: (r - 1.0) ** 2),
    lambda p, d: gini_divergence(p, d.pi),
    gini_production,
], ids=["shannon_entropy", "kl_divergence", "relative_f_entropy",
        "gini_divergence", "gini_production"])


@per_row_quantities
def test_entropy_refuses_a_scalar_p(quantity):
    d = decompose(three_cycle())
    with pytest.raises(ValueError, match="size invariant violated: .* scalar 0.5"):
        quantity(0.5, d)


@per_row_quantities
@pytest.mark.parametrize("p", [
    [0.2, np.nan, 0.8],
    [0.2, np.inf, 0.8],
    [[0.2, 0.3, 0.5], [0.2, np.inf, 0.8]],
], ids=["nan", "inf", "inf-in-stack"])
def test_entropy_refuses_nonfinite_p(quantity, p):
    d = decompose(three_cycle())
    with pytest.raises(InvalidProbability, match="finiteness invariant violated: p"):
        quantity(p, d)


@pytest.mark.parametrize("split", [production_split, shannon_production_split])
def test_production_splits_refuse_infinite_p(split):
    d = decompose(three_cycle())
    with pytest.raises(InvalidProbability, match="finiteness invariant violated: p"):
        split([0.2, np.inf, 0.8], d)


def test_production_split_refuses_a_stack():
    d = decompose(three_cycle())
    with pytest.raises(ValueError, match="size invariant violated: .* one distribution"):
        production_split([[0.2, 0.3, 0.5], [0.5, 0.3, 0.2]], d)


def test_shannon_split_refuses_a_stack():
    d = decompose(three_cycle())
    with pytest.raises(ValueError, match="size invariant violated: .* one distribution"):
        shannon_production_split([[0.2, 0.3, 0.5], [0.5, 0.3, 0.2]], d)


def test_entropy_kind_validation():
    with pytest.raises(ValueError):
        relative_f_kind(lambda x: x * x)  # f(1) != 0
    kind = relative_f_kind(lambda x: x * x - 1.0, name="quad")
    assert kind.trace_name == "quad"
    from markov_flow import EntropyKind

    with pytest.raises(ValueError):
        EntropyKind("tsallis")
    with pytest.raises(ValueError):
        EntropyKind("relative_f")
