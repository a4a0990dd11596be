"""Linear opinion model: generation, correlation, prediction, error laws."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrclass.opinions import (
    ModelConfig,
    Population,
    choose_k,
    empirical_error,
    gamma_factor,
    generate_population,
    opinion_matrix,
    predict,
    predict_matrix,
    reconstruction_thresholds,
    row_correlation,
    theoretical_error,
)


def pearson_oracle(x, y):
    """Textbook Pearson correlation, plain Python sums."""
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
    vx = sum((a - mx) ** 2 for a in x)
    vy = sum((b - my) ** 2 for b in y)
    return cov / math.sqrt(vx * vy)


def out_of_place_correlation(matrix):
    """``row_correlation``'s formula written out of place, on a C-ordered
    copy, still averaged with its transpose to force symmetry: its exact
    oracle."""
    data = np.ascontiguousarray(matrix, dtype=float)
    centered = data - data.mean(axis=1, keepdims=True)
    norms = np.sqrt(np.einsum("ij,ij->i", centered, centered))
    degenerate = (data.max(axis=1) == data.min(axis=1)) | (norms == 0.0)
    safe = np.where(degenerate, 1.0, norms)
    values = (centered @ centered.T) / np.outer(safe, safe)
    values += values.T
    values /= 2.0
    np.clip(values, -1.0, 1.0, out=values)
    np.fill_diagonal(values, 1.0)
    values[degenerate, :] = 0.0
    values[:, degenerate] = 0.0
    return values, tuple(int(i) for i in np.flatnonzero(degenerate))


class TestModelConfig:
    def test_defaults_fill_normalization(self):
        config = ModelConfig(n_individuals=4, n_products=3, n_components=5)
        assert config.normalization == pytest.approx(0.2)

    def test_rejects_nonpositive_counts(self):
        with pytest.raises(ValueError):
            ModelConfig(n_individuals=0, n_products=3, n_components=5)
        with pytest.raises(ValueError):
            ModelConfig(n_individuals=4, n_products=-1, n_components=5)
        with pytest.raises(ValueError):
            ModelConfig(n_individuals=4, n_products=3, n_components=0)

    def test_rejects_bad_scale_parameters(self):
        with pytest.raises(ValueError):
            ModelConfig(n_individuals=2, n_products=2, n_components=2, normalization=0.0)
        with pytest.raises(ValueError):
            ModelConfig(n_individuals=2, n_products=2, n_components=2, component_range=-1.0)

    @pytest.mark.parametrize("seed", [1.5, -1, 2**64])
    def test_rejects_seed_outside_u64(self, seed):
        with pytest.raises(ValueError, match="base_seed"):
            ModelConfig(2, 2, 2, base_seed=seed)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_accepts_u64_seed_bounds(self, seed):
        assert ModelConfig(2, 2, 2, base_seed=seed).base_seed == seed


class TestGeneratePopulation:
    def test_deterministic_under_fixed_seed(self):
        config = ModelConfig(n_individuals=6, n_products=5, n_components=3, base_seed=11)
        one = generate_population(config)
        two = generate_population(config)
        assert np.array_equal(one.tastes, two.tastes)
        assert np.array_equal(one.features, two.features)

    def test_shapes_and_bounds(self):
        config = ModelConfig(
            n_individuals=7, n_products=4, n_components=3, component_range=0.5, base_seed=2
        )
        pop = generate_population(config)
        assert pop.tastes.shape == (7, 3)
        assert pop.features.shape == (4, 3)
        assert np.all(np.abs(pop.tastes) <= 0.5)
        assert np.all(np.abs(pop.features) <= 0.5)

    def test_high_dimension_component_mean_near_zero(self):
        config = ModelConfig(n_individuals=50, n_products=50, n_components=1000, base_seed=3)
        pop = generate_population(config)
        assert abs(pop.tastes.mean()) < 0.05
        assert abs(pop.features.mean()) < 0.05

    def test_population_validates_shapes(self):
        with pytest.raises(ValueError):
            Population(tastes=np.ones((2, 3)), features=np.ones((2, 4)))
        with pytest.raises(ValueError):
            Population(tastes=np.ones(3), features=np.ones((2, 3)))


class TestOpinionMatrix:
    def test_all_ones_normalized(self):
        pop = Population(tastes=np.ones((3, 4)), features=np.ones((2, 4)))
        s = opinion_matrix(pop, 1.0 / 4)
        assert np.allclose(s, 1.0)

    def test_zero_feature_gives_zero_column(self):
        features = np.ones((3, 2))
        features[1] = 0.0
        pop = Population(tastes=np.arange(8.0).reshape(4, 2), features=features)
        s = opinion_matrix(pop, 0.5)
        assert np.all(s[:, 1] == 0.0)

    def test_matches_per_entry_scalar_products(self):
        rng = np.random.default_rng(5)
        tastes = rng.uniform(-1, 1, size=(3, 2))
        features = rng.uniform(-1, 1, size=(4, 2))
        s = opinion_matrix(Population(tastes=tastes, features=features), 0.7)
        for m in range(3):
            for n in range(4):
                expected = 0.7 * sum(tastes[m, c] * features[n, c] for c in range(2))
                assert s[m, n] == pytest.approx(expected, rel=1e-12)

    def test_scalar_product_bound(self):
        config = ModelConfig(
            n_individuals=20, n_products=30, n_components=6, component_range=2.0, base_seed=8
        )
        pop = generate_population(config)
        s = opinion_matrix(pop, config.normalization)
        bound = config.normalization * config.n_components * config.component_range**2
        assert np.all(np.abs(s) <= bound + 1e-12)

    def test_component_mismatch_rejected(self):
        class Raw:
            tastes = np.ones((2, 3))
            features = np.ones((2, 4))

        with pytest.raises(ValueError):
            opinion_matrix(Raw(), 1.0)

    @pytest.mark.parametrize("tastes, features", [((0, 3), (2, 3)), ((2, 3), (0, 3))])
    def test_empty_population_rejected(self, tastes, features):
        class Raw:
            pass

        Raw.tastes, Raw.features = np.ones(tastes), np.ones(features)
        with pytest.raises(ValueError, match="at least one"):
            opinion_matrix(Raw(), 1.0)


@st.composite
def correlation_input(draw):
    """1-40 rows by 2-80 columns: float or integer, C-ordered, F-ordered or a
    strided slice, some rows made constant."""
    rows, cols = draw(st.integers(1, 40)), draw(st.integers(2, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    shape = (2 * rows, 3 * cols) if layout == "strided" else (rows, cols)
    if draw(st.booleans()):
        data = rng.integers(-9, 10, size=shape)
    else:
        data = rng.normal(scale=draw(st.sampled_from([1e-3, 1.0, 1e6])), size=shape)
    data = np.asfortranarray(data) if layout == "F" else data
    data = data[::2, 1::3] if layout == "strided" else data
    for row in draw(st.lists(st.integers(0, rows - 1), max_size=3)):
        data[row] = data[row, -1]
    return data


class TestRowCorrelation:
    def test_perfect_linear_dependence(self):
        c = np.asarray(row_correlation([[1, 2, 3], [2, 4, 6]]))
        assert c[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_perfect_anticorrelation(self):
        c = np.asarray(row_correlation([[1, 2, 3], [3, 2, 1]]))
        assert c[0, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_orthogonal_after_centering(self):
        c = np.asarray(row_correlation([[1, 0, 1, 0], [1, 1, 0, 0]]))
        assert c[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_matches_pairwise_pearson_oracle(self):
        rng = np.random.default_rng(17)
        data = rng.normal(size=(6, 9))
        c = np.asarray(row_correlation(data))
        for i in range(6):
            for j in range(i + 1, 6):
                assert c[i, j] == pytest.approx(
                    pearson_oracle(data[i], data[j]), abs=1e-12
                )

    def test_invariants_on_random_matrices(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            rows = int(rng.integers(2, 12))
            cols = int(rng.integers(2, 20))
            data = rng.normal(scale=rng.uniform(0.1, 50), size=(rows, cols))
            result = row_correlation(data)
            c = np.asarray(result)
            assert np.array_equal(c, c.T)
            assert np.all(np.abs(c) <= 1.0 + 1e-12)
            assert np.all(np.diag(c) == 1.0)
            assert result.degenerate_rows == ()

    def test_affine_invariance_per_row(self):
        rng = np.random.default_rng(29)
        data = rng.normal(size=(5, 12))
        scales = rng.uniform(0.5, 3.0, size=(5, 1))
        shifts = rng.uniform(-10, 10, size=(5, 1))
        base = np.asarray(row_correlation(data))
        mapped = np.asarray(row_correlation(scales * data + shifts))
        assert np.allclose(base, mapped, atol=1e-9)

    def test_zero_variance_row_flagged_and_zeroed(self):
        data = np.array([[1.0, 2.0, 3.0], [5.0, 5.0, 5.0], [3.0, 1.0, 2.0]])
        result = row_correlation(data)
        c = np.asarray(result)
        assert result.degenerate_rows == (1,)
        assert np.all(c[1, :] == 0.0)
        assert np.all(c[:, 1] == 0.0)
        assert c[0, 0] == 1.0 and c[2, 2] == 1.0
        assert c[0, 2] == pytest.approx(pearson_oracle(data[0], data[2]), abs=1e-12)
        # a centered norm that underflows to zero has no computable correlation
        tiny = row_correlation(np.vstack([data[0] * 1e-200, data[0], data[2]]))
        assert tiny.degenerate_rows == (0,)
        assert np.isfinite(tiny.values).all()

    def test_constant_float_rows_are_degenerate(self):
        # centering by the rounded means leaves these rows a tiny nonzero norm
        data = [[0.1] * 3, [0.7] * 3, [1.0, 2.0, 3.0], [0.3] * 3]
        result = row_correlation(data)
        c = np.asarray(result)
        assert result.degenerate_rows == (0, 1, 3)
        assert np.all(np.delete(np.delete(c, 2, axis=0), 2, axis=1) == 0.0)
        assert c[2, 2] == 1.0

    def test_rejects_single_column(self):
        with pytest.raises(ValueError):
            row_correlation([[1.0], [2.0]])

    @pytest.mark.parametrize("shape", [(8, 4), (8, 1000), (300, 50), (513, 7), (600, 600)])
    @pytest.mark.parametrize("integer", [False, True])
    def test_equals_out_of_place_formula_exactly(self, shape, integer):
        rng = np.random.default_rng(shape[0] * shape[1])
        data = rng.integers(-9, 10, size=shape) if integer else rng.normal(size=shape)
        data[1] = 3
        data[shape[0] // 2] = data[shape[0] // 2, 0]
        values, degenerate = out_of_place_correlation(data)
        # C-ordered, Fortran-ordered and a transposed view: the layout of the
        # input changes no bit of the result
        for given in (data, np.asfortranarray(data), np.ascontiguousarray(data.T).T):
            result = row_correlation(given)
            assert np.array_equal(result.values, values)
            assert result.degenerate_rows == degenerate
        assert {1, shape[0] // 2} <= set(degenerate)

    @settings(deadline=None)
    @given(correlation_input())
    def test_property_exactly_symmetric_without_averaging(self, data):
        result = row_correlation(data)
        values, degenerate = out_of_place_correlation(data)
        assert result.values.tobytes() == np.ascontiguousarray(result.values.T).tobytes()
        assert result.values.tobytes() == values.tobytes()
        assert result.degenerate_rows == degenerate

    def test_scratch_memory_is_bounded(self):
        # the out-of-place formula peaked at 3.05 tables beyond the input here
        data = np.random.default_rng(41).normal(size=(600, 600))
        tracemalloc.start()
        try:
            row_correlation(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * data.nbytes

    def test_array_copy_leaves_the_frozen_values_alone(self):
        result = row_correlation(np.random.default_rng(37).normal(size=(3, 6)))
        before = result.values.copy()
        copied = np.array(result)
        copied[0, 1] = 99.0
        assert np.array_equal(result.values, before)
        # asarray still shares memory, so predict_matrix copies nothing
        assert np.shares_memory(np.asarray(result), result.values)
        assert np.shares_memory(np.asarray(result, dtype=float), result.values)
        # numpy 1.x calls __array__ without a copy argument
        assert np.shares_memory(result.__array__(), result.values)
        assert np.shares_memory(result.__array__(float), result.values)


class TestPredict:
    def test_single_individual_identity(self):
        s = np.array([[3.0, -1.0, 2.0]])
        c = np.array([[1.0]])
        for n in range(3):
            assert predict(c, s, 0, n, k=1.0) == pytest.approx(s[0, n])

    def test_zero_gain(self):
        rng = np.random.default_rng(31)
        s = rng.normal(size=(4, 5))
        c = np.asarray(row_correlation(s))
        assert predict(c, s, 2, 3, k=0.0) == 0.0

    def test_matches_brute_force_sum(self):
        config = ModelConfig(n_individuals=3, n_products=4, n_components=1, base_seed=13)
        pop = generate_population(config)
        s = opinion_matrix(pop, config.normalization)
        c = np.asarray(row_correlation(s))
        k = 1.0
        for m in range(3):
            for n in range(4):
                expected = (k / 3) * sum(c[m, i] * s[i, n] for i in range(3))
                assert predict(c, s, m, n, k) == pytest.approx(expected, rel=1e-12)

    def test_identity_correlation_with_k_equal_m_is_exact(self):
        rng = np.random.default_rng(37)
        s = rng.normal(size=(6, 7))
        pred = predict_matrix(np.eye(6), s, k=6.0)
        assert np.array_equal(pred, s)

    def test_index_errors(self):
        s = np.zeros((2, 3))
        c = np.eye(2)
        with pytest.raises(IndexError):
            predict(c, s, 2, 0, 1.0)
        with pytest.raises(IndexError):
            predict(c, s, 0, 3, 1.0)

    def test_predict_matrix_agrees_with_predict(self):
        rng = np.random.default_rng(41)
        s = rng.normal(size=(5, 4))
        c = np.asarray(row_correlation(s))
        full = predict_matrix(c, s, k=2.5)
        for m in range(5):
            for n in range(4):
                assert full[m, n] == pytest.approx(predict(c, s, m, n, 2.5), rel=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            predict_matrix(np.eye(3), np.zeros((4, 2)), k=1.0)

    def test_one_dimensional_opinions_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            predict(np.eye(3), np.ones(3), 0, 0, 2.0)
        with pytest.raises(ValueError, match="does not match"):
            predict_matrix(np.eye(3), np.ones(3), 2.0)


class TestChooseK:
    def test_default_policy_returns_dimension(self):
        assert choose_k(ModelConfig(2, 2, 5)) == 5.0
        assert choose_k(ModelConfig(2, 2, 1)) == 1.0


class TestErrors:
    def test_perfect_prediction_is_exactly_zero(self):
        rng = np.random.default_rng(43)
        s = rng.normal(size=(5, 6))
        assert empirical_error(s, s) == 0.0

    def test_constant_offset(self):
        rng = np.random.default_rng(47)
        s = rng.normal(size=(4, 4))
        assert empirical_error(s, s + 0.25) == pytest.approx(0.25, rel=1e-12)

    def test_two_by_two_direct(self):
        assert empirical_error(np.zeros((2, 2)), np.ones((2, 2))) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            empirical_error(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_theoretical_direct_substitution(self):
        assert theoretical_error(1, 4, 4, gamma=1.0) == pytest.approx(1.0, rel=1e-12)
        assert theoretical_error(4, 100, 100, gamma=0.5) == pytest.approx(0.8, rel=1e-12)

    def test_theoretical_scaling_ratio_exactly_eight(self):
        for length in (1, 2, 3, 5, 7):
            ratio = theoretical_error(4 * length, 50, 60, 1.3) / theoretical_error(
                length, 50, 60, 1.3
            )
            assert ratio == 8.0

    def test_theoretical_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            theoretical_error(0, 4, 4, 1.0)
        with pytest.raises(ValueError):
            theoretical_error(2, 4, 4, 0.0)

    def test_gamma_factor_uniform_moments(self):
        config = ModelConfig(2, 2, 4, component_range=3.0)
        # <x^2> = r^2/3 for uniform [-r, r]; both moments equal so sqrt drops out
        assert gamma_factor(config) == pytest.approx((1 / 4) * 9.0 / 3.0, rel=1e-12)

    def test_monte_carlo_ratio_order_of_magnitude(self):
        config = ModelConfig(n_individuals=200, n_products=200, n_components=2, base_seed=19)
        pop = generate_population(config)
        s = opinion_matrix(pop, config.normalization)
        c = row_correlation(s)
        predicted = predict_matrix(c, s, choose_k(config))
        ratio = empirical_error(s, predicted) / theoretical_error(
            2, 200, 200, gamma_factor(config)
        )
        assert 0.5 <= ratio <= 2.0


class TestReconstructionThresholds:
    def test_direct_substitution(self):
        p1, p2 = reconstruction_thresholds(101, 10)
        assert p1 == pytest.approx(0.01, rel=1e-12)
        assert p2 == pytest.approx(20 / 101, rel=1e-12)

    def test_degenerate_small_population(self):
        assert reconstruction_thresholds(2, 1) == (1.0, 1.0)

    def test_large_population(self):
        _, p2 = reconstruction_thresholds(1000, 50)
        assert p2 == pytest.approx(0.1, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            reconstruction_thresholds(1, 5)
        with pytest.raises(ValueError):
            reconstruction_thresholds(10, 0)
