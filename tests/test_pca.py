import numpy as np
import pytest
from numpy.testing import assert_allclose

from crossblock import (
    DataBlock,
    ExperimentConfig,
    SimulationSpec,
    align_to_reference,
    component_scores,
    fit_cca,
    fit_pca,
    fit_pls,
    generate_null,
    generate_relevant_subspace,
    pca_stability,
)
from crossblock.errors import ConstantColumn, ShapeMismatch
from crossblock.pca import VARIANCE_TARGET, fit_reduction


def steep_spectrum_block(n, seed, p=50, gamma=0.6):
    spec = SimulationSpec(
        n=n, p=p, q_per_component=(15, 10), relpos=((1, 2), (3, 4, 6)), gamma=gamma,
        m=4, ypos=((1, 3), (2, 4)), eta=0.0, r2=(0.2, 0.1), seed=seed,
    )
    return generate_relevant_subspace(spec).x


def flat_spectrum_block(n, seed, p=15, gamma=0.1):
    spec = SimulationSpec(
        n=n, p=p, q_per_component=(5,), relpos=((1, 2),), gamma=gamma,
        m=2, ypos=((1, 2),), eta=0.0, r2=(0.3,), seed=seed,
    )
    return generate_relevant_subspace(spec).x


class TestFitPca:
    def test_two_perfectly_correlated_columns(self):
        col = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        col = (col - col.mean()) / col.std(ddof=1)
        b = DataBlock(np.column_stack([col, col]), ("a", "b"))
        model = fit_pca(b)
        assert_allclose(model.eigenvalues, [2.0, 0.0], atol=1e-12)

    def test_uncorrelated_unit_columns_near_identity(self):
        ds = generate_null(20000, 6, 2, seed=1)
        model = fit_pca(ds.x)
        assert np.abs(model.eigenvalues - 1.0).max() < 0.06

    def test_declared_spectrum_recovered(self):
        # single designated-predictor group covering every variable, so the
        # population covariance spectrum is exactly the declared decay
        spec = SimulationSpec(
            n=10000, p=20, q_per_component=(20,), relpos=((1,),), gamma=0.6,
            m=2, ypos=((1,),), eta=0.0, r2=(0.3,), seed=5,
        )
        ds = generate_relevant_subspace(spec)
        model = fit_pca(ds.x)
        expected = np.exp(-0.6 * np.arange(20))
        ratio = model.eigenvalues[:5] / model.eigenvalues[0]
        assert np.abs(ratio - expected[:5] / expected[0]).max() < 0.1 * expected[0]

    def test_variance_fraction_monotone_ends_at_one(self):
        ds = generate_null(200, 8, 2, seed=2)
        model = fit_pca(ds.x)
        assert np.all(np.diff(model.variance_fraction) >= -1e-15)
        assert abs(model.variance_fraction[-1] - 1.0) < 1e-10

    def test_constant_column_rejected(self):
        b = DataBlock(np.column_stack([np.arange(5.0), np.full(5, 2.0)]), ("a", "b"))
        with pytest.raises(ConstantColumn):
            fit_pca(b)

    def test_reconstruction(self):
        ds = generate_null(300, 5, 2, seed=3)
        model = fit_pca(ds.x)
        centered = ds.x.values - ds.x.values.mean(0)
        cov = centered.T @ centered / (ds.x.n - 1)
        rebuilt = model.eigenvectors @ np.diag(model.eigenvalues) @ model.eigenvectors.T
        assert np.abs(rebuilt - cov).max() < 1e-8


class TestComponentScores:
    def test_full_rank_scores_have_identity_correlation(self):
        ds = generate_null(500, 6, 2, seed=4)
        scores = component_scores(ds.x, fit_pca(ds.x), 6)
        assert np.abs(np.corrcoef(scores.values, rowvar=False) - np.eye(6)).max() < 1e-8

    def test_single_component_unit_variance(self):
        ds = generate_null(300, 4, 2, seed=5)
        scores = component_scores(ds.x, fit_pca(ds.x), 1)
        assert scores.k == 1
        assert abs(scores.values[:, 0].std(ddof=1) - 1.0) < 1e-10

    def test_steep_spectrum_seven_components_reach_98_percent(self):
        x = steep_spectrum_block(4000, seed=6)
        model = fit_pca(x)
        assert model.variance_fraction[6] >= 0.98
        assert model.n_kept == 7

    def test_reduction_count_by_pca_pre(self):
        x = steep_spectrum_block(4000, seed=6)
        model, n_keep = fit_reduction(x, None)
        assert n_keep == model.n_kept == fit_reduction(x, VARIANCE_TARGET)[1] == 7
        assert fit_reduction(x, 3)[1] == 3
        assert fit_reduction(x, 80)[1] == x.k
        half = fit_reduction(x, 0.5)[1]
        assert model.variance_fraction[half - 2] < 0.5 <= model.variance_fraction[half - 1]

    def test_total_variance_preserved(self):
        ds = generate_null(400, 5, 2, seed=7)
        scores = component_scores(ds.x, fit_pca(ds.x), 5)
        assert abs(scores.values.var(axis=0, ddof=1).sum() - 5.0) < 1e-8

    def test_out_of_range_count(self):
        ds = generate_null(100, 4, 2, seed=8)
        model = fit_pca(ds.x)
        with pytest.raises(ValueError):
            component_scores(ds.x, model, 5)
        with pytest.raises(ValueError):
            component_scores(ds.x, model, 0)

    def test_cca_equals_pls_on_scores(self):
        ds = generate_null(600, 5, 3, seed=9)
        sx = component_scores(ds.x, fit_pca(ds.x), 5)
        sy = component_scores(ds.y, fit_pca(ds.y), 3)
        assert np.abs(fit_cca(sx, sy).s - fit_pls(sx, sy).s).max() < 1e-8


class TestAlignToReference:
    def test_identical_models_unchanged(self):
        ds = generate_null(200, 4, 2, seed=10)
        model = fit_pca(ds.x)
        aligned = align_to_reference(model, model)
        assert np.array_equal(aligned.eigenvectors, model.eigenvectors)

    def test_negated_component_flipped_back(self):
        ds = generate_null(200, 4, 2, seed=11)
        model = fit_pca(ds.x)
        vecs = model.eigenvectors.copy()
        vecs[:, 0] *= -1
        from crossblock.pca import PcaModel

        flipped = PcaModel(
            eigenvectors=vecs, eigenvalues=model.eigenvalues,
            variance_fraction=model.variance_fraction, n_kept=model.n_kept,
        )
        back = align_to_reference(flipped, model)
        assert_allclose(back.eigenvectors, model.eigenvectors)

    def test_alignment_preserves_absolute_cosines(self):
        ds = generate_null(300, 5, 2, seed=12)
        ref = fit_pca(ds.x)
        sub = fit_pca(DataBlock(ds.x.values[:150], ds.x.labels))
        aligned = align_to_reference(sub, ref)
        before = np.abs(np.einsum("ij,ij->j", ref.eigenvectors, sub.eigenvectors))
        after = np.abs(np.einsum("ij,ij->j", ref.eigenvectors, aligned.eigenvectors))
        assert_allclose(before, after, atol=1e-12)

    def test_shape_mismatch(self):
        a = fit_pca(generate_null(100, 4, 2, seed=13).x)
        b = fit_pca(generate_null(100, 5, 2, seed=13).x)
        with pytest.raises(ShapeMismatch):
            align_to_reference(a, b)

    def test_subsample_alignment_recovers_leading_component(self):
        x = steep_spectrum_block(5000, seed=14)
        pop = fit_pca(x)
        rng = np.random.default_rng(0)
        sub = fit_pca(DataBlock(x.values[rng.choice(5000, 500, replace=False)], x.labels))
        aligned = align_to_reference(sub, pop)
        cos = pop.eigenvectors[:, 0] @ aligned.eigenvectors[:, 0]
        assert cos > 0.99


class TestPcaStability:
    def test_steep_spectrum_aligned_strong_unaligned_flat(self):
        x = steep_spectrum_block(5000, seed=15)
        aligned = pca_stability(x, sample_sizes=(500,), n_iter=150, n_pc=2,
                                with_alignment=True, seed=3, threads=2)
        unaligned = pca_stability(x, sample_sizes=(500,), n_iter=150, n_pc=2,
                                  with_alignment=False, seed=3, threads=2)
        assert aligned.z[0, 0] > 20
        assert abs(unaligned.z[0, 1]) < 0.5

    def test_flat_spectrum_small_samples_unstable(self):
        x = flat_spectrum_block(5000, seed=16)
        res = pca_stability(x, sample_sizes=(20,), n_iter=150, n_pc=2,
                            with_alignment=True, seed=4, threads=2)
        assert res.z[0, 1] < 2.0

    def test_deterministic_across_threads(self):
        x = flat_spectrum_block(1000, seed=17)
        a = pca_stability(x, sample_sizes=(100, 50), n_iter=40, n_pc=2,
                          with_alignment=True, seed=5, threads=1)
        b = pca_stability(x, sample_sizes=(100, 50), n_iter=40, n_pc=2,
                          with_alignment=True, seed=5, threads=4)
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.z, b.z)

    @pytest.mark.parametrize("n_iter", [0, 1])
    def test_refuses_fewer_than_two_iterations(self, n_iter):
        x = flat_spectrum_block(100, seed=18)
        with pytest.raises(ValueError, match=r"n_iter \(--iterations\) must be at least 2"):
            pca_stability(x, sample_sizes=(50,), n_iter=n_iter, n_pc=2, seed=1)

    def test_whole_population_subsamples_are_degenerate(self):
        # a subsample of every row fits the population's components up to
        # rounding: the cosines' sd is roundoff, so z is NaN, not ~1e15
        pop = DataBlock(np.random.default_rng(1).normal(size=(40, 3)), ("a", "b", "c"))
        res = pca_stability(pop, sample_sizes=(40, 20), n_iter=20, seed=0)
        assert np.isnan(res.z[0]).all()
        assert np.isfinite(res.z[1]).all()

    def test_validates_sizes(self):
        x = flat_spectrum_block(100, seed=18)
        with pytest.raises(ValueError):
            pca_stability(x, sample_sizes=(500,), n_iter=10, n_pc=2, seed=1)

    def test_refuses_an_empty_size_list_as_the_sweeps_do(self):
        x = flat_spectrum_block(100, seed=18)
        with pytest.raises(ValueError, match="sample_sizes") as refused:
            pca_stability(x, sample_sizes=(), n_iter=10, n_pc=2, seed=1)
        with pytest.raises(ValueError) as sweep_refused:
            ExperimentConfig(sample_sizes=())
        assert str(refused.value) == str(sweep_refused.value)
