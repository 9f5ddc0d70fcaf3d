import warnings

import numpy as np
import pytest

import crossblock.parallel as parallel
from crossblock import (
    DataBlock,
    ExperimentConfig,
    SimulationSpec,
    generate_relevant_subspace,
    run_detectability,
    run_full_sample,
    run_reproducibility_by_n,
    split_half_lv_z,
)
from crossblock.decomposition import CCA, PLS
from crossblock.harness import NOT_RUN, OK


def small_structured(seed=0, n=2000):
    spec = SimulationSpec(
        n=n, p=6, q_per_component=(3,), relpos=((1,),), gamma=0.3,
        m=3, ypos=((1, 2),), eta=0.0, r2=(0.4,), seed=seed,
    )
    return generate_relevant_subspace(spec)


class TestConfig:
    def test_defaults_match_protocol(self):
        cfg = ExperimentConfig()
        assert cfg.sample_sizes == (500, 250, 100, 50, 20)
        assert cfg.n_iterations == 500
        assert (cfg.n_perm, cfg.n_boot, cfg.n_split) == (1000, 1000, 500)
        assert cfg.methods == (PLS, CCA)
        assert cfg.alpha == 0.05

    @pytest.mark.parametrize("n_boot", [0, 50, 99])
    def test_rejects_fewer_bootstraps_than_bootstrap_ci_accepts(self, n_boot):
        with pytest.raises(ValueError, match="n_boot must be at least 100"):
            ExperimentConfig(n_boot=n_boot)
        assert ExperimentConfig(n_boot=100).n_boot == 100

    @pytest.mark.parametrize("n_split", [0, 1])
    def test_rejects_fewer_than_two_splits(self, n_split):
        with pytest.raises(ValueError, match=r"n_split \(--splits\) must be at least 2"):
            ExperimentConfig(n_split=n_split)
        assert ExperimentConfig(n_split=2).n_split == 2

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            ExperimentConfig(alpha=1.5)

    @pytest.mark.parametrize("sizes", [(), (50, 1)])
    def test_rejects_empty_or_too_small_sample_sizes(self, sizes):
        with pytest.raises(ValueError, match="sample_sizes"):
            ExperimentConfig(sample_sizes=sizes)

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            ExperimentConfig(methods=("ridge",))

    def test_rejects_bad_pca_pre(self):
        with pytest.raises(ValueError):
            ExperimentConfig(pca_pre=1.5)

    @pytest.mark.parametrize("bad", [True, False, "5", 0, -2, 0.0, 1.0, np.int64(3), [3]])
    def test_pca_pre_rejected_at_construction(self, bad):
        with pytest.raises(ValueError, match="pca_pre"):
            ExperimentConfig(pca_pre=bad)

    @pytest.mark.parametrize("good", [None, 1, 3, 0.5, 0.98])
    def test_pca_pre_accepted(self, good):
        assert ExperimentConfig(pca_pre=good).pca_pre == good


class TestGuards:
    def test_cca_not_run_when_sample_size_at_or_below_p(self):
        ds = small_structured()
        cfg = ExperimentConfig(sample_sizes=(6, 5), n_iterations=5, n_perm=20,
                               seed=3)
        rep = run_detectability(ds.x, ds.y, cfg)
        for size in (6, 5):
            cell = rep.cell(CCA, size, 1)
            assert cell.status == NOT_RUN
            assert cell.detectability is None
            assert cell.n_skipped == 5
            assert rep.cell(PLS, size, 1).status == OK

    def test_reproducibility_guard_uses_half_size(self):
        ds = small_structured()
        # halves of 12 rows are 6 = p, so CCA cannot run its splits
        cfg = ExperimentConfig(sample_sizes=(12,), n_iterations=4, n_split=6, seed=4)
        rep = run_reproducibility_by_n(ds.x, ds.y, cfg)
        assert rep.cell(CCA, 12, 1).status == NOT_RUN
        assert "half-sample" in rep.cell(CCA, 12, 1).skip_reason
        assert rep.cell(PLS, 12, 1).status == OK

    def test_a_size_at_which_every_method_is_blocked_draws_nothing(self, monkeypatch):
        ds = small_structured()
        keyed = []
        monkeypatch.setattr(parallel, "substream",
                            lambda *key, real=parallel.substream: keyed.append(key) or real(*key))
        cfg = ExperimentConfig(sample_sizes=(20, 6), n_iterations=3, n_perm=10, methods=(CCA,),
                               seed=3)
        rep = run_detectability(ds.x, ds.y, cfg)
        assert keyed == [(3, "subsample", 20)]
        assert rep.cell(CCA, 6, 1).status == NOT_RUN and rep.cell(CCA, 6, 1).n_completed == 0
        assert rep.cell(CCA, 20, 1).status == OK

    def test_reproducibility_lv_degenerate_everywhere_is_null_without_warning(self):
        # 4-row subsamples split into 2-row halves of single columns, whose
        # split-half z is degenerate (NaN) in every subsample; the cell mean stays
        # NaN, silently
        rng = np.random.default_rng(1)
        x = DataBlock(rng.normal(size=(30, 1)), ("x1",))
        y = DataBlock(rng.normal(size=(30, 1)), ("y1",))
        cfg = ExperimentConfig(sample_sizes=(4,), n_iterations=3, n_split=2, methods=(PLS,),
                               seed=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = run_reproducibility_by_n(x, y, cfg)
        cell = rep.cell(PLS, 4, 1)
        assert cell.status == OK and cell.n_completed == 3
        assert np.isnan(cell.split_half_z_u) and np.isnan(cell.split_half_z_v)

    def test_full_sample_cca_not_run_when_underdetermined(self):
        rng = np.random.default_rng(5)
        x = DataBlock(rng.normal(size=(8, 10)), tuple(f"x{i}" for i in range(10)))
        y = DataBlock(rng.normal(size=(8, 2)), ("y1", "y2"))
        cfg = ExperimentConfig(n_perm=20, n_boot=100, n_split=3, seed=5)
        res = run_full_sample(x, y, cfg)
        assert res.method(CCA).status == NOT_RUN
        assert res.method(PLS).status == OK
        assert res.method(PLS).permutation is not None

    def test_full_sample_cca_not_run_when_halves_do_not_exceed_p(self):
        # 6 rows clear the full-size guard for 3 X variables, but each split
        # half of 3 rows does not, so CCA is not-run and PLS stands
        rng = np.random.default_rng(0)
        x = DataBlock(rng.normal(size=(6, 3)), ("x1", "x2", "x3"))
        y = DataBlock(rng.normal(size=(6, 2)), ("y1", "y2"))
        cfg = ExperimentConfig(n_perm=20, n_boot=100, n_split=2, seed=5)
        res = run_full_sample(x, y, cfg)
        assert res.method(CCA).status == NOT_RUN
        assert res.method(CCA).reason == (
            "half-sample rank guard: sample size 3 does not exceed the 3 X variables")
        assert res.method(PLS).status == OK
        assert res.method(PLS).split_half is not None


class TestFullSample:
    def test_sections_present(self):
        ds = small_structured()
        cfg = ExperimentConfig(n_perm=50, n_boot=100, n_split=40, seed=6)
        res = run_full_sample(ds.x, ds.y, cfg)
        for method in (PLS, CCA):
            entry = res.method(method)
            assert entry.status == OK
            assert entry.permutation.p_values.shape == (3,)
            assert entry.bootstrap.x.stable.shape == (6, 3)
            assert entry.train_test.z.shape == (3,)
            assert entry.split_half.z_u.shape == (3,)
        assert res.method(CCA).bartlett is not None
        assert res.method(PLS).bartlett is None

    def test_signal_detected_and_reproducible(self):
        ds = small_structured(seed=1)
        cfg = ExperimentConfig(n_perm=100, n_boot=100, n_split=60, seed=7)
        res = run_full_sample(ds.x, ds.y, cfg)
        pls = res.method(PLS)
        assert pls.permutation.p_values[0] == 0.0
        assert split_half_lv_z(pls.split_half)[0] > 3.0

    def test_pca_pre_reduces_block(self):
        ds = small_structured(seed=2)
        cfg = ExperimentConfig(n_perm=30, n_boot=100, n_split=20, pca_pre=3, seed=8)
        res = run_full_sample(ds.x, ds.y, cfg)
        assert res.n_components_used == 3
        assert res.pca_model is not None
        assert len(res.x_labels) == 3
        pls = res.method(PLS)
        cca = res.method(CCA)
        # only X is reduced, so agreement is limited by the sample noise in
        # the Y within-block correlations
        gap = pls.permutation.singular_values - cca.permutation.singular_values
        assert np.abs(gap).max() < 0.01

    def test_pca_pre_labels_the_bootstrap_rows_by_component(self):
        # the bootstrap's X rows are the components the methods were fitted on
        ds = small_structured(seed=2)
        cfg = ExperimentConfig(n_perm=10, n_boot=100, n_split=4, pca_pre=3, seed=8)
        res = run_full_sample(ds.x, ds.y, cfg)
        for method in (PLS, CCA):
            boot = res.method(method).bootstrap
            assert boot.x.labels == res.x_labels == ("pc1", "pc2", "pc3")
            assert boot.x.lower.shape[0] == 3
            assert boot.y.labels == ds.y.labels


class TestDeterminism:
    def test_detectability_pure_function_of_inputs(self):
        ds = small_structured(seed=3)
        cfg1 = ExperimentConfig(sample_sizes=(60, 20), n_iterations=8, n_perm=40,
                                seed=9, threads=1)
        cfg4 = ExperimentConfig(sample_sizes=(60, 20), n_iterations=8, n_perm=40,
                                seed=9, threads=4)
        a = run_detectability(ds.x, ds.y, cfg1)
        b = run_detectability(ds.x, ds.y, cfg4)
        assert a.cells == b.cells
        assert a.any_lv == b.any_lv

    def test_reproducibility_by_n_deterministic(self):
        ds = small_structured(seed=4)
        cfg = ExperimentConfig(sample_sizes=(40,), n_iterations=4, n_split=10, seed=10)
        a = run_reproducibility_by_n(ds.x, ds.y, cfg)
        b = run_reproducibility_by_n(ds.x, ds.y, cfg)
        assert a.cells == b.cells


class TestNullSelfCheck:
    def test_permuted_input_detectability_within_alpha_envelope(self):
        ds = small_structured(seed=5, n=3000)
        rng = np.random.default_rng(0)
        y_perm = DataBlock(ds.y.values[rng.permutation(ds.y.n)], ds.y.labels)
        cfg = ExperimentConfig(sample_sizes=(200, 50), n_iterations=300, n_perm=200,
                               seed=11, threads=4)
        rep = run_detectability(ds.x, y_perm, cfg)
        for cell in rep.cells:
            if cell.status == OK:
                assert 0.0 <= cell.detectability <= cfg.alpha + 0.04


def test_skipped_subsamples_do_not_pin_memory():
    """A skip keeps its exception, not the traceback whose frames hold the
    subsample's blocks and permutation matrix, so the sweep's peak traced
    memory stays flat as the number of skipped CCA subsamples grows."""
    import tracemalloc

    rng = np.random.default_rng(6)
    xv = rng.normal(size=(2000, 3))
    xv[10:, 1] = xv[10:, 0]  # a subsample missing rows 0-9 fails the CCA rank guard
    x = DataBlock(xv, ("a", "b", "c"))
    y = DataBlock(rng.normal(size=(2000, 2)), ("p", "q"))

    def sweep(n_iterations):
        config = ExperimentConfig(sample_sizes=(100,), n_iterations=n_iterations, n_perm=200,
                                  methods=(CCA,), seed=3)
        tracemalloc.start()
        try:
            report = run_detectability(x, y, config)
            return tracemalloc.get_traced_memory()[1], report.cell(CCA, 100, 1).n_skipped
        finally:
            tracemalloc.stop()

    (small, small_skips), (large, large_skips) = sweep(8), sweep(40)
    assert large_skips - small_skips >= 15
    # each pinned skip would hold its 200 x 100 permutation matrix, 160 kB
    assert large - small < 400_000
