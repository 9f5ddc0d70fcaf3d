import numpy as np
import pytest
from numpy.testing import assert_allclose

from crossblock import (
    DataBlock,
    ExperimentConfig,
    SimulationSpec,
    generate_null,
    generate_relevant_subspace,
    null_calibration,
    reproducibility,
    split_half,
    train_test,
)
from crossblock.blocks import prepare_pair
from crossblock.decomposition import CCA, PLS
from crossblock.errors import ConstantColumn, RankDeficient
from crossblock.harness import run_reproducibility_by_n
from crossblock.reproducibility import (
    TrainTestReport,
    _distribution_z,
    _half_indices,
    _split_stack,
)


def gaussian_blocks(seed, n, p, q):
    rng = np.random.default_rng(seed)
    x = DataBlock(rng.normal(size=(n, p)), tuple(f"x{i}" for i in range(p)))
    y = DataBlock(rng.normal(size=(n, q)), tuple(f"y{i}" for i in range(q)))
    return x, y


class TestPartition:
    def test_halves_disjoint_and_cover(self):
        rng = np.random.default_rng(0)
        for n in (4, 7, 10, 501):
            a, b = _half_indices(rng.permutation(n))
            assert len(a) == (n + 1) // 2
            assert len(a) + len(b) == n
            assert len(set(a) | set(b)) == n
            assert not set(a) & set(b)

    def test_larger_half_trains(self):
        a, b = _half_indices(np.random.default_rng(1).permutation(9))
        assert len(a) == 5 and len(b) == 4


class TestTrainTest:
    def test_identical_halves_reproduce_training_values(self):
        rng = np.random.default_rng(2)
        base_x = rng.normal(size=(40, 3))
        base_y = rng.normal(size=(40, 2))
        xv = np.vstack([base_x, base_x])
        yv = np.vstack([base_y, base_y])
        # the identity partition: the first copy trains, the second tests
        pair = prepare_pair(DataBlock(xv, ("a", "b", "c")), DataBlock(yv, ("p", "q")))
        out = np.empty((1, 1, 2))
        assert _split_stack(pair, pair.sums(), 0, np.arange(80)[None], (TrainTestReport,),
                            out) == [None]
        diag = out[0, 0]
        from crossblock import fit_pls

        s = fit_pls(DataBlock(base_x, ("a", "b", "c")), DataBlock(base_y, ("p", "q"))).s
        assert_allclose(diag, s, atol=1e-10)

    def test_null_z_near_zero(self):
        inside = 0
        for seed in range(5, 15):
            ds = generate_null(10000, 10, 5, seed=seed)
            rep = train_test(ds.x, ds.y, PLS, n_split=200, seed=seed + 50, threads=2)
            inside += bool(np.all(np.abs(rep.z) < 1.0))
        assert inside >= 9

    def test_signal_z_large(self):
        spec = SimulationSpec(
            n=2000, p=4, q_per_component=(2,), relpos=((1,),), gamma=0.0,
            m=3, ypos=((1, 2),), eta=0.0, r2=(0.25,), seed=3,
        )
        ds = generate_relevant_subspace(spec)
        rep = train_test(ds.x, ds.y, PLS, n_split=150, seed=9)
        assert rep.z[0] > 5.0

    def test_draw_sign_is_kept(self):
        ds = generate_null(400, 5, 3, seed=4)
        rep = train_test(ds.x, ds.y, PLS, n_split=100, seed=5)
        assert (rep.draws < 0).any()

    def test_rank_guard_failure_recorded(self):
        # CCA halves of 30 rows cannot support 20 X variables
        x, y = gaussian_blocks(6, 30, 20, 2)
        with pytest.raises(RankDeficient):
            train_test(x, y, CCA, n_split=10, seed=1)

    def test_deterministic_across_threads(self):
        x, y = gaussian_blocks(7, 120, 4, 3)
        a = train_test(x, y, CCA, n_split=60, seed=2, threads=1)
        b = train_test(x, y, CCA, n_split=60, seed=2, threads=4)
        assert np.array_equal(a.draws, b.draws)


@pytest.mark.parametrize("fn", [train_test, split_half, null_calibration])
@pytest.mark.parametrize("n_split", [0, 1])
def test_fewer_than_two_splits_refused(fn, n_split):
    x, y = gaussian_blocks(22, 40, 3, 2)
    with pytest.raises(ValueError, match=r"n_split \(--splits\) must be at least 2"):
        fn(x, y, PLS, n_split=n_split, seed=1)


class TestAllSplitsFailed:
    """When every split fails, the first split's own error is raised."""

    @pytest.mark.parametrize("fn", [train_test, split_half, null_calibration])
    def test_collinear_y_names_y(self, fn):
        x, y = gaussian_blocks(20, 80, 3, 2)
        yv = np.column_stack([y.values[:, 0], 2.0 * y.values[:, 0] + 1.0, y.values[:, 1]])
        with pytest.raises(RankDeficient) as err:
            fn(x, DataBlock(yv, ("a", "b", "c")), CCA, n_split=5, seed=1)
        assert err.value.block == "y"
        assert "'y'" in str(err.value)

    @pytest.mark.parametrize("fn", [train_test, split_half, null_calibration])
    def test_constant_column_named(self, fn):
        x, y = gaussian_blocks(21, 40, 3, 2)
        yv = np.column_stack([y.values[:, 0], np.full(40, 3.0)])
        with pytest.raises(ConstantColumn, match="'flat'"):
            fn(x, DataBlock(yv, ("a", "flat")), PLS, n_split=5, seed=1)


class TestTestHalfFailures:
    """A split whose test half alone fails still fails. The halves are fixed
    here: the identity partition trains on rows 0-39 and tests on 40-79,
    where the broken columns are; a shuffled partition mixes the rows."""

    @staticmethod
    def blocks(x_broken, y_broken, collinear=False):
        """80-row blocks; a broken column is constant on the rows it names
        or, under ``collinear``, Y's column y1 is 2 y0 + 1 there."""
        x, y = gaussian_blocks(22, 80, 3, 3)
        xv, yv = x.values.copy(), y.values.copy()
        if x_broken is not None:
            xv[x_broken, 2] = 3.0
        if y_broken is not None:
            yv[y_broken, 1] = 2.0 * yv[y_broken, 0] + 1.0 if collinear else 3.0
        return DataBlock(xv, x.labels), DataBlock(yv, y.labels)

    @staticmethod
    def rig(monkeypatch, shuffled):
        """Make the split batch draw the identity partition, except at the
        indices in ``shuffled``, which draw one fixed shuffled partition."""
        mixed = np.random.default_rng(0).permutation(80)
        taken = []

        def draws(_, shape):
            rows = [mixed if len(taken) + j in shuffled else np.arange(80)
                    for j in range(shape[0])]
            taken.extend(rows)
            return np.stack([np.stack([np.arange(80), r]) if len(shape) == 3 else r
                             for r in rows])

        monkeypatch.setattr(reproducibility, "permutation_rows", draws)

    TEST, TRAIN = slice(40, 80), slice(0, 40)
    CASES = {
        "test y constant": (PLS, None, TEST, False, ConstantColumn, "y1"),
        "test y collinear": (CCA, None, TEST, True, RankDeficient, "y"),
        "test x before test y": (PLS, TEST, TEST, False, ConstantColumn, "x2"),
        "train y before test x": (PLS, TEST, TRAIN, False, ConstantColumn, "y1"),
    }

    @pytest.mark.parametrize("fn", [train_test, split_half, null_calibration])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_counted_in_n_failed(self, monkeypatch, fn, case):
        method, x_broken, y_broken, collinear, _, _ = self.CASES[case]
        self.rig(monkeypatch, shuffled={1, 2})
        reports = fn(*self.blocks(x_broken, y_broken, collinear), method, n_split=4, seed=1)
        for report in reports if isinstance(reports, tuple) else (reports,):
            draws = (report.draws if isinstance(report, TrainTestReport)
                     else report.u_draws)
            assert (report.n_split, report.n_failed, len(draws)) == (4, 2, 2)

    @pytest.mark.parametrize("fn", [train_test, split_half, null_calibration])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_every_split_failing_raises_in_order(self, monkeypatch, fn, case):
        method, x_broken, y_broken, collinear, error, name = self.CASES[case]
        self.rig(monkeypatch, shuffled=set())
        with pytest.raises(error) as err:
            fn(*self.blocks(x_broken, y_broken, collinear), method, n_split=3, seed=1)
        assert (err.value.block if error is RankDeficient else err.value.label) == name


class TestRoundingLevelSpread:
    # draws that agree up to rounding have an sd of roundoff, which is no spread
    def test_roundoff_spread_is_degenerate(self):
        draws = np.column_stack([1.0 + 1e-16 * np.arange(5), np.arange(5.0)])
        z, degenerate = _distribution_z(draws)
        assert degenerate.tolist() == [True, False]
        assert np.isnan(z[0]) and np.isfinite(z[1])

    def test_two_row_halves_report_no_astronomical_z(self):
        # 1x1 blocks on 2-row halves correlate +-1 exactly up to rounding, so
        # some subsamples' train/test draws are all equal
        rng = np.random.default_rng(1)
        x = DataBlock(rng.normal(size=(30, 1)), ("x0",))
        y = DataBlock(rng.normal(size=(30, 1)), ("y0",))
        config = ExperimentConfig(sample_sizes=(4,), n_iterations=3, n_split=2, seed=2)
        cells = run_reproducibility_by_n(x, y, config).cells
        assert {c.method for c in cells} == {PLS, CCA}
        for c in cells:
            assert c.status == "ok"
            assert np.isnan(c.train_test_z) or abs(c.train_test_z) < 1e3


class TestSplitHalf:
    def test_one_dimensional_y_degenerate_cosine(self):
        x, y = gaussian_blocks(8, 200, 4, 1)
        rep = split_half(x, y, PLS, n_split=40, seed=3)
        assert_allclose(rep.v_draws, 1.0, atol=1e-12)
        assert rep.degenerate_v[0]
        assert np.isnan(rep.z_v[0])

    def test_cosines_within_unit_interval(self):
        x, y = gaussian_blocks(9, 150, 5, 3)
        rep = split_half(x, y, CCA, n_split=50, seed=4)
        assert np.all(rep.u_draws >= 0)
        assert np.all(rep.u_draws <= 1 + 1e-10)

    def test_null_z_range(self):
        ds = generate_null(10000, 10, 5, seed=12)
        rep = split_half(ds.x, ds.y, PLS, n_split=300, seed=21)
        assert np.all(rep.z_u >= 1.2) and np.all(rep.z_u <= 1.7)
        assert np.all(rep.z_v >= 1.2) and np.all(rep.z_v <= 1.7)

    def test_scale_free_z(self):
        x, y = gaussian_blocks(10, 300, 4, 3)
        rep = split_half(x, y, PLS, n_split=50, seed=6)
        x2 = DataBlock(x.values * 100.0 - 3.0, x.labels)
        rep2 = split_half(x2, y, PLS, n_split=50, seed=6)
        assert_allclose(rep.z_u, rep2.z_u, atol=1e-10)


class TestNullCalibration:
    def test_null_z_below_threshold(self):
        spec = SimulationSpec(
            n=800, p=6, q_per_component=(3,), relpos=((1,),), gamma=0.2,
            m=4, ypos=((1, 2),), eta=0.0, r2=(0.3,), seed=7,
        )
        ds = generate_relevant_subspace(spec)
        tt, sh = null_calibration(ds.x, ds.y, PLS, n_split=200, seed=11)
        assert abs(tt.z[0]) < 1.96

    def test_strong_signal_dwarfs_null(self):
        spec = SimulationSpec(
            n=2000, p=6, q_per_component=(3,), relpos=((1,),), gamma=0.2,
            m=4, ypos=((1, 2),), eta=0.0, r2=(0.5,), seed=8,
        )
        ds = generate_relevant_subspace(spec)
        observed = split_half(ds.x, ds.y, PLS, n_split=200, seed=13)
        _, null_sh = null_calibration(ds.x, ds.y, PLS, n_split=200, seed=13)
        assert observed.z_u[0] / null_sh.z_u[0] >= 10.0

    def test_trailing_lvs_match_null_level(self):
        spec = SimulationSpec(
            n=2000, p=6, q_per_component=(3,), relpos=((1,),), gamma=0.2,
            m=4, ypos=((1, 2),), eta=0.0, r2=(0.5,), seed=9,
        )
        ds = generate_relevant_subspace(spec)
        observed = split_half(ds.x, ds.y, PLS, n_split=200, seed=17)
        _, null_sh = null_calibration(ds.x, ds.y, PLS, n_split=200, seed=17)
        # trailing LVs carry no signal: observed and null z sit at the same
        # dimensionality-driven level
        for lv in (2, 3):
            assert 1.0 <= observed.z_u[lv] <= 2.2
            assert 1.0 <= null_sh.z_u[lv] <= 2.2

    def test_deterministic(self):
        x, y = gaussian_blocks(11, 100, 3, 2)
        a = null_calibration(x, y, PLS, n_split=30, seed=19)
        b = null_calibration(x, y, PLS, n_split=30, seed=19, threads=3)
        assert np.array_equal(a[0].draws, b[0].draws)
        assert np.array_equal(a[1].u_draws, b[1].u_draws)
