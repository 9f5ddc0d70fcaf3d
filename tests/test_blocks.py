import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from crossblock import DataBlock, fit_cca, fit_pls, inverse_sqrt_sym
from crossblock.blocks import _zscore_values, _zscored
from crossblock.errors import ConstantColumn, NotPositiveDefinite, ObservationMismatch

from oracles import brute_pearson, inverse_sqrt_reference, random_spd


def block(*columns, labels=None):
    values = np.column_stack(columns)
    labels = labels or tuple(f"c{i + 1}" for i in range(values.shape[1]))
    return DataBlock(values, labels)


class TestDataBlock:
    def test_basic_shape(self):
        b = block([1.0, 2.0, 3.0], [4.0, 5.0, 7.0])
        assert b.n == 3 and b.k == 2

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            block([1.0, np.nan, 3.0])

    def test_rejects_single_row(self):
        with pytest.raises(ValueError):
            DataBlock(np.ones((1, 2)), ("a", "b"))

    def test_rejects_label_mismatch(self):
        with pytest.raises(ValueError):
            DataBlock(np.ones((3, 2)), ("a",))

    def test_values_read_only(self):
        b = block([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            b.values[0, 0] = 9.0


class TestZscore:
    def test_unit_sd_column_unchanged(self):
        b = block([1.0, 2.0, 3.0])
        z = _zscored(b.values, b.labels)
        assert_allclose(z[:, 0], [-1.0, 0.0, 1.0], atol=1e-14)

    def test_constant_column_rejected(self):
        b = block([10.0, 10.0, 10.0], labels=("flat",))
        with pytest.raises(ConstantColumn) as err:
            _zscored(b.values, b.labels)
        assert err.value.label == "flat"

    def test_mean_four_sd_two(self):
        # hand computation: mean 4, sample sd 2
        b = block([2.0, 4.0, 6.0])
        z = _zscored(b.values, b.labels)
        assert_allclose(z[:, 0], [-1.0, 0.0, 1.0], atol=1e-14)

    def test_moments_and_original_untouched(self):
        rng = np.random.default_rng(3)
        b = block(rng.normal(5, 3, 40), rng.uniform(0, 9, 40))
        before = b.values.copy()
        z = _zscored(b.values, b.labels)
        assert np.abs(z.mean(0)).max() < 1e-10
        assert np.abs(z.std(0, ddof=1) - 1).max() < 1e-10
        assert_allclose(b.values, before)


def reference_zscore(v):
    """Z-scores and constant-column mask by numpy's one-pass mean and std."""
    sd = v.std(axis=0, ddof=1)
    constant = sd < 1e-12
    return (v - v.mean(axis=0)) / np.where(constant, 1.0, sd), constant


# small blocks, and blocks as long as the benchmark's
ROW_COUNTS = st.one_of(st.integers(2, 800), st.sampled_from([4096, 10000]))


class TestZscoreInPlace:
    """The in-place z-score equals the one-pass formula bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(n=ROW_COUNTS, k=st.sampled_from([1, 2, 5]),
           seed=st.integers(0, 2**32 - 1), offset=st.sampled_from([0.0, -3.0, 1e8]),
           scale=st.sampled_from([1e-4, 1.0, 1e3]), flat=st.lists(st.booleans(), max_size=5))
    def test_matches_one_pass_formula(self, n, k, seed, offset, scale, flat):
        v = offset + scale * np.random.default_rng(seed).normal(size=(n, k))
        for j, is_flat in enumerate(flat[:k]):
            if is_flat:
                v[..., j] = offset + 0.5
        expected, expected_constant = reference_zscore(v)
        z, constant = _zscore_values(v.copy())
        assert z.tobytes() == expected.tobytes()
        assert np.array_equal(constant, expected_constant)
        pair_data = np.ones((n, 1 + k))  # prepare_pair z-scores a strided view like this one
        pair_data[:, 1:] = v
        _zscore_values(pair_data[:, 1:])
        assert pair_data[:, 1:].tobytes() == expected.tobytes()
        b = DataBlock(v, tuple(f"c{j}" for j in range(k)))
        before = b.values.tobytes()
        if constant.any():
            with pytest.raises(ConstantColumn):
                _zscored(b.values, b.labels)
        else:
            assert _zscored(b.values, b.labels).tobytes() == expected.tobytes()
        assert b.values.tobytes() == before and not b.values.flags.writeable


def correlations(x, y):
    """Correlations of X's columns with Y's, as U diag(s) V' of the PLS fit."""
    m = fit_pls(x, y)
    return (m.u * m.s) @ m.v.T


class TestFitCorrelations:
    """The within- and cross-block correlations the fits decompose."""

    def test_self_correlation(self):
        x = block([1.0, 2.0, 4.0])
        assert_allclose(correlations(x, x), [[1.0]], atol=1e-12)

    def test_perfect_anticorrelation(self):
        r = correlations(block([1.0, 2.0, 3.0]), block([3.0, 2.0, 1.0]))
        assert_allclose(r, [[-1.0]], atol=1e-12)

    def test_hand_pearson_three_points(self):
        x = block([1.0, 2.0, 3.0], [1.0, 3.0, 2.0])
        rxx = correlations(x, x)
        assert_allclose(rxx[0, 1], 0.5, atol=1e-12)
        assert_allclose(
            rxx[0, 1], brute_pearson([1, 2, 3], [1, 3, 2]), atol=1e-12
        )

    def test_observation_mismatch(self):
        for fit in (fit_pls, fit_cca):
            with pytest.raises(ObservationMismatch):
                fit(block([1.0, 2.0, 3.0]), block([1.0, 2.0]))

    def test_correlation_invariants(self):
        rng = np.random.default_rng(7)
        x = block(*rng.normal(size=(4, 60)))
        y = block(*rng.normal(size=(3, 60)))
        for m in (correlations(x, x), correlations(y, y)):
            assert np.abs(m - m.T).max() < 1e-10
            assert np.abs(np.diag(m) - 1).max() < 1e-10
        assert np.abs(correlations(x, y)).max() <= 1 + 1e-10
        assert fit_cca(x, y).r == 3

    def test_omega_equals_rxy_for_identity_within_block(self):
        from crossblock import component_scores, fit_pca

        rng = np.random.default_rng(5)
        x = block(*rng.normal(size=(4, 200)))
        y = block(*rng.normal(size=(3, 200)))
        sx = component_scores(x, fit_pca(x), 4)
        sy = component_scores(y, fit_pca(y), 3)
        cca = fit_cca(sx, sy)
        assert np.abs((cca.u * cca.s) @ cca.v.T - correlations(sx, sy)).max() < 1e-10

    def test_correlation_equals_covariance_of_zscored(self):
        rng = np.random.default_rng(11)
        x = block(*rng.normal(size=(5, 80)))
        y = block(*rng.uniform(size=(2, 80)))
        xz = _zscored(x.values, x.labels)
        yz = _zscored(y.values, y.labels)
        assert np.abs(correlations(x, y) - xz.T @ yz / 79).max() < 1e-12

    def test_affine_invariance(self):
        rng = np.random.default_rng(13)
        base = rng.normal(size=(50, 3))
        y = block(*rng.normal(size=(2, 50)))
        ref = correlations(block(*base.T), y)
        for seed in range(5):
            r = np.random.default_rng(seed)
            scale = r.uniform(0.1, 10, 3)
            shift = r.normal(0, 100, 3)
            moved = correlations(block(*(base * scale + shift).T), y)
            assert np.abs(moved - ref).max() < 1e-10


class TestInverseSqrt:
    def test_identity(self):
        assert_allclose(inverse_sqrt_sym(np.eye(3)), np.eye(3), atol=1e-12)

    def test_diagonal(self):
        out = inverse_sqrt_sym(np.diag([4.0, 9.0]))
        assert_allclose(out, np.diag([0.5, 1.0 / 3.0]), atol=1e-12)

    def test_against_reference_oracle(self):
        m = np.array([[1.0, 0.6], [0.6, 1.0]])
        w = np.linalg.eigvalsh(m)
        assert_allclose(sorted(w), [0.4, 1.6], atol=1e-12)
        a = inverse_sqrt_sym(m)
        assert_allclose(a @ m @ a, np.eye(2), atol=1e-10)
        assert_allclose(a, inverse_sqrt_reference(m), atol=1e-10)

    def test_symmetry_of_result(self):
        rng = np.random.default_rng(2)
        m = random_spd(rng, 5, 100.0)
        a = inverse_sqrt_sym(m)
        assert np.array_equal(a, a.T)

    def test_rejects_singular(self):
        v = np.array([1.0, 2.0, 2.0])
        with pytest.raises(NotPositiveDefinite):
            inverse_sqrt_sym(np.outer(v, v))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            inverse_sqrt_sym(np.array([[1.0, 0.2], [0.0, 1.0]]))

    def test_reconstruction_property(self):
        # applying the result twice and inverting recovers the input
        rng = np.random.default_rng(17)
        for i in range(30):
            m = random_spd(rng, int(rng.integers(2, 8)), float(rng.uniform(1, 1e6)))
            a = inverse_sqrt_sym(m)
            assert np.abs(np.linalg.inv(a @ a) - m).max() < 1e-8 * max(
                1.0, np.abs(m).max()
            )
