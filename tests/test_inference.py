import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from crossblock import (
    DataBlock,
    SimulationSpec,
    bartlett_test,
    bootstrap_ci,
    fit_cca,
    generate_null,
    generate_relevant_subspace,
    permutation_test,
)
from crossblock.blocks import _SUM_ROWS
from crossblock.decomposition import CCA, PLS, CrossBlockModel
from crossblock.errors import MethodMismatch
from crossblock.inference import _chi2_sf, _singular_values

from oracles import even_chi2_sf


def gaussian_blocks(seed, n, p, q):
    rng = np.random.default_rng(seed)
    x = DataBlock(rng.normal(size=(n, p)), tuple(f"x{i}" for i in range(p)))
    y = DataBlock(rng.normal(size=(n, q)), tuple(f"y{i}" for i in range(q)))
    return x, y


def cca_model_with_s(s, p, q):
    s = np.asarray(s, dtype=float)
    r = len(s)
    return CrossBlockModel(method=CCA, u=np.eye(p)[:, :r], s=s, v=np.eye(q)[:, :r])


class TestPermutationTest:
    def test_strong_signal_p_zero(self):
        rng = np.random.default_rng(0)
        xv = rng.normal(size=(200, 3))
        y = DataBlock(xv[:, :2] + 0.05 * rng.normal(size=(200, 2)), ("a", "b"))
        res = permutation_test(DataBlock(xv, ("x1", "x2", "x3")), y, PLS,
                               n_perm=200, seed=1)
        assert res.p_values[0] == 0.0

    def test_identity_permutations_give_p_one(self):
        x, y = gaussian_blocks(5, 50, 4, 3)
        forced = np.tile(np.arange(50), (25, 1))
        res = permutation_test(x, y, PLS, n_perm=25, seed=0, permutations=forced)
        assert_allclose(res.p_values, 1.0)
        res = permutation_test(x, y, CCA, n_perm=25, seed=0, permutations=forced)
        assert_allclose(res.p_values, 1.0)

    @pytest.mark.parametrize("dtype", [bool, np.float64])
    def test_explicit_permutations_must_be_integers(self, dtype):
        # a take would read a bool array as rows 0 and 1
        x, y = gaussian_blocks(5, 50, 4, 3)
        perms = np.tile(np.arange(50), (5, 1)).astype(dtype)
        with pytest.raises(ValueError, match=np.dtype(dtype).name):
            permutation_test(x, y, PLS, n_perm=5, seed=0, permutations=perms)

    @pytest.mark.parametrize("method", [PLS, CCA])
    def test_out_of_range_permutation_raises_index_error(self, method):
        x, y = gaussian_blocks(5, 50, 4, 3)
        perms = np.tile(np.arange(50), (5, 1))
        perms[3, 7] = 50
        with pytest.raises(IndexError):
            permutation_test(x, y, method, n_perm=5, seed=0, permutations=perms)

    def test_p_value_counting_convention(self):
        x, y = gaussian_blocks(6, 60, 3, 2)
        res = permutation_test(x, y, PLS, n_perm=40, seed=2)
        counts = (res.null_singular_values >= res.singular_values).sum(axis=0)
        assert_allclose(res.p_values, counts / 40)

    def test_deterministic_given_seed(self):
        x, y = gaussian_blocks(7, 80, 4, 2)
        a = permutation_test(x, y, CCA, n_perm=30, seed=9)
        b = permutation_test(x, y, CCA, n_perm=30, seed=9)
        assert np.array_equal(a.null_singular_values, b.null_singular_values)
        assert np.array_equal(a.p_values, b.p_values)

    def test_null_blocks_rarely_significant(self):
        # large null blocks: all five p-values clear 0.05 in most seeded runs
        hits = 0
        for seed in range(10):
            ds = generate_null(10000, 10, 5, seed=seed)
            res = permutation_test(ds.x, ds.y, PLS, n_perm=100, seed=seed + 100)
            hits += bool(np.all(res.p_values > 0.05))
        assert hits >= 7

    def test_methods_see_same_permutations(self):
        x, y = gaussian_blocks(8, 50, 3, 3)
        a = permutation_test(x, y, PLS, n_perm=10, seed=4)
        b = permutation_test(x, y, CCA, n_perm=10, seed=4)
        # same permutation indices feed both; the null draws differ only by
        # the within-block adjustment
        assert a.null_singular_values.shape == b.null_singular_values.shape
        assert not np.array_equal(a.null_singular_values, b.null_singular_values)


class TestNullSingularValues:
    """The permutation null's singular values come from eigenvalues of each
    draw's smaller Gram; the observed values it is compared with come from
    the same arithmetic, so an unpermuted draw ties with them exactly."""

    @pytest.mark.parametrize("method", [PLS, CCA])
    @pytest.mark.parametrize("p, q", [(5, 3), (3, 5), (4, 1)])
    def test_identity_permutations_give_p_one(self, method, p, q):
        for n in (60, _SUM_ROWS + 300):  # one row chunk of the products; two
            x, y = gaussian_blocks(11, n, p, q)
            forced = np.tile(np.arange(n), (7, 1))
            res = permutation_test(x, y, method, n_perm=7, seed=0, permutations=forced)
            assert np.array_equal(res.p_values, np.ones(min(p, q)))

    def test_identity_permutations_give_p_one_for_a_rank_deficient_cross_matrix(self):
        x, y = gaussian_blocks(12, 60, 3, 4)
        x = DataBlock(np.column_stack([x.values, x.values[:, 0]]), (*x.labels, "x0 again"))
        forced = np.tile(np.arange(60), (7, 1))
        res = permutation_test(x, y, PLS, n_perm=7, seed=0, permutations=forced)
        assert res.singular_values[-1] < 1e-12 * res.singular_values[0]
        assert np.array_equal(res.p_values, np.ones(4))

    @settings(max_examples=60, deadline=None)
    @given(c=st.integers(1, 4), p=st.integers(1, 8), q=st.integers(1, 8),
           scale=st.floats(1e-3, 1e3), seed=st.integers(0, 2**32 - 1))
    def test_match_the_svd_on_well_conditioned_stacks(self, c, p, q, scale, seed):
        rng = np.random.default_rng(seed)
        r = min(p, q)
        u = np.linalg.qr(rng.normal(size=(c, p, r)))[0]
        v = np.linalg.qr(rng.normal(size=(c, q, r)))[0]
        s = scale * rng.uniform(0.5, 1.0, size=(c, 1, r))  # condition number at most 2
        m = (u * s) @ v.swapaxes(-1, -2)
        expected = np.linalg.svd(m, compute_uv=False)
        got = _singular_values(m)
        assert got.shape == expected.shape
        assert np.all(np.abs(got - expected) <= 1e-12 * expected[:, :1])


class TestBootstrap:
    def test_collinear_pair_fully_stable(self):
        rng = np.random.default_rng(3)
        xv = rng.normal(size=120)
        x = DataBlock(xv[:, None], ("x",))
        y = DataBlock(xv[:, None].copy(), ("y",))
        res = bootstrap_ci(x, y, PLS, n_boot=100, seed=7)
        assert_allclose(res.x.observed[0, 0], 1.0, atol=1e-12)
        assert res.x.lower[0, 0] > 0.999
        assert res.x.stable[0, 0] and res.y.stable[0, 0]

    def test_null_blocks_mostly_unstable(self):
        x, y = gaussian_blocks(11, 50, 4, 3)
        res = bootstrap_ci(x, y, PLS, n_boot=200, seed=5)
        frac = (res.x.stable.mean() + res.y.stable.mean()) / 2
        assert frac <= 0.15

    def test_interval_ordering_and_mask(self):
        x, y = gaussian_blocks(13, 80, 3, 2)
        res = bootstrap_ci(x, y, CCA, n_boot=120, seed=8)
        assert np.all(res.x.lower <= res.x.upper)
        assert np.all(res.y.lower <= res.y.upper)
        expected = (res.x.lower > 0) | (res.x.upper < 0)
        assert np.array_equal(res.x.stable, expected)

    def test_stable_mask_invariant_to_column_rescaling(self):
        x, y = gaussian_blocks(17, 70, 3, 2)
        res = bootstrap_ci(x, y, PLS, n_boot=100, seed=2)
        x2 = DataBlock(x.values * np.array([3.0, 0.25, 10.0]) + 7.0, x.labels)
        res2 = bootstrap_ci(x2, y, PLS, n_boot=100, seed=2)
        assert np.array_equal(res.x.stable, res2.x.stable)
        assert np.array_equal(res.y.stable, res2.y.stable)

    def test_deterministic_across_threads(self):
        x, y = gaussian_blocks(19, 60, 3, 2)
        a = bootstrap_ci(x, y, PLS, n_boot=100, seed=3, threads=1)
        b = bootstrap_ci(x, y, PLS, n_boot=100, seed=3, threads=4)
        assert np.array_equal(a.x.lower, b.x.lower)
        assert np.array_equal(a.y.upper, b.y.upper)

    def test_stable_weights_concentrate_on_designated_predictors(self):
        spec = SimulationSpec(
            n=3000, p=50, q_per_component=(15, 10), relpos=((1, 2), (3, 4, 6)),
            gamma=0.6, m=4, ypos=((1, 3), (2, 4)), eta=0.0, r2=(0.2, 0.1), seed=18,
        )
        ds = generate_relevant_subspace(spec)
        res = bootstrap_ci(ds.x, ds.y, PLS, n_boot=150, seed=4)
        stable_lv1 = set(np.flatnonzero(res.x.stable[:, 0]) + 1)
        designated = set(ds.truth.relevant_predictors[0])
        assert len(stable_lv1) >= 5
        assert len(stable_lv1 & designated) / len(stable_lv1) >= 0.8


class TestBartlett:
    def test_all_zero_singular_values(self):
        model = cca_model_with_s([0.0, 0.0], p=4, q=2)
        res = bartlett_test(model, n=100)
        for t in res.tests:
            assert t.chi_square == 0.0
            assert t.p_value > 0.999

    def test_published_null_table_values(self):
        model = cca_model_with_s([0.045, 0.039, 0.022, 0.021, 0.009], p=10, q=5)
        res = bartlett_test(model, n=10000)
        first = res.tests[0]
        assert first.df == 50
        assert abs(first.chi_square - 46.5) <= 1.0
        assert 0.55 <= first.p_value <= 0.70

    @pytest.mark.parametrize(
        "p,q,expected",
        [
            (10, 5, [50, 36, 24, 14, 6]),
            (6, 3, [18, 10, 4]),
            (6, 4, [24, 15, 8, 3]),
            (50, 4, [200, 147, 96, 47]),
        ],
    )
    def test_df_sequences(self, p, q, expected):
        r = min(p, q)
        model = cca_model_with_s(np.linspace(0.5, 0.1, r), p=p, q=q)
        res = bartlett_test(model, n=20000)
        assert [t.df for t in res.tests] == expected

    def test_chi_square_monotone(self):
        model = cca_model_with_s([0.6, 0.4, 0.2], p=5, q=3)
        res = bartlett_test(model, n=500)
        stats = [t.chi_square for t in res.tests]
        assert all(a >= b for a, b in zip(stats, stats[1:]))
        assert all(t.chi_square >= 0 for t in res.tests)

    def test_p_values_match_scipy_chi2_sf(self):
        # the tail is a finite sum, not scipy's chdtrc (numerics contract 5): it agrees
        # with chi2.sf to 1e-11 relative on this grid (4.2e-12 measured) and is 0 exactly
        # where chi2.sf is 0
        from scipy.stats import chi2

        checked = []
        for p, q in [(2, 1), (4, 2), (10, 5), (50, 4), (300, 40)]:
            r = min(p, q)
            for s in ([0.0] * r, np.linspace(0.05, 0.01, r), np.linspace(0.6, 0.1, r),
                      np.linspace(0.999999, 0.5, r)):
                for n in (p + q + 1, 100 + p + q, 10000):
                    model = cca_model_with_s(s, p=p, q=q)
                    for t in bartlett_test(model, n=n).tests:
                        expected = float(chi2.sf(t.chi_square, t.df))
                        if expected == 0.0:
                            assert t.p_value == 0.0
                        else:
                            assert abs(t.p_value - expected) <= 1e-11 * expected
                        checked.append((t.chi_square, t.p_value))
        assert any(stat == 0.0 and pv == 1.0 for stat, pv in checked)
        assert any(stat > 0 and pv == 0.0 for stat, pv in checked)
        assert any(0.0 < pv < 1.0 for _, pv in checked)

    def test_even_df_tail_matches_an_exact_poisson_sum(self):
        # independent of scipy: 60-digit decimal sums, 1.8e-13 relative at worst measured
        for df in range(2, 301, 2):
            for i in range(-60, 41, 4):
                stat = df * math.exp(i / 20)
                expected = even_chi2_sf(df, stat)
                if expected > 1e-300:
                    assert abs(_chi2_sf(df, stat) - expected) <= 1e-12 * expected, (df, stat)

    @pytest.mark.parametrize("df", [1, 2, 7, 50, 300])
    def test_tail_at_the_edge_statistics(self, df):
        # -0.0 is what all-zero correlations give (-mult * 0.0); +inf is what s >= 1 gives
        assert _chi2_sf(df, 0.0) == 1.0
        assert _chi2_sf(df, -0.0) == 1.0
        assert _chi2_sf(df, math.inf) == 0.0
        assert math.isnan(_chi2_sf(df, math.nan))

    @settings(max_examples=300, deadline=None)
    @given(df=st.integers(1, 400), a=st.floats(0.0, 4000.0), b=st.floats(0.0, 4000.0))
    def test_tail_is_a_probability_falling_in_stat_and_rising_in_df(self, df, a, b):
        lo, hi = sorted((a, b))
        q_lo, q_hi = _chi2_sf(df, lo), _chi2_sf(df, hi)
        assert 0.0 <= q_hi <= 1.0 and 0.0 <= q_lo <= 1.0
        # monotone up to the sum's rounding: at neighbouring floats this sum and
        # scipy's chdtrc alike can rise by about 2e-13 relative
        assert q_hi <= q_lo * (1 + 1e-12)
        assert _chi2_sf(df + 2, lo) >= q_lo

    def test_canonical_correlations_of_one_read_p_zero(self):
        # X against itself: every canonical correlation is 1, and can come out above it
        # by roundoff (the leading one does here); ``above`` holds such a value outright
        x = DataBlock(np.random.default_rng(0).normal(size=(60, 5)), tuple("abcde"))
        model = fit_cca(x, x)
        above = cca_model_with_s([1 + 4e-16, 0.5], p=3, q=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tests = bartlett_test(model, n=60).tests
            first = bartlett_test(above, n=60).tests[0]
        assert [t.p_value for t in tests] == [0.0] * 5
        assert first.p_value == 0.0

    def test_rejects_pls(self):
        u = np.eye(3)[:, :2]
        model = CrossBlockModel(method=PLS, u=u, s=np.array([0.5, 0.2]), v=np.eye(2))
        with pytest.raises(MethodMismatch):
            bartlett_test(model, n=100)

    def test_requires_enough_observations(self):
        model = cca_model_with_s([0.5], p=3, q=1)
        with pytest.raises(ValueError, match="n > p \\+ q"):
            bartlett_test(model, n=4)


def _env_with_src():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def test_importing_the_package_and_cli_leaves_scipy_unloaded():
    code = (
        "import sys, crossblock, crossblock.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=_env_with_src(), capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_fit_runs_both_methods_with_scipy_blocked(tmp_path):
    """``fit --method both``, Bartlett test included, with every scipy import failing."""
    rng = np.random.default_rng(0)
    for name, k in (("x", 4), ("y", 3)):
        header = ",".join(f"{name}{i}" for i in range(k))
        np.savetxt(tmp_path / f"{name}.csv", rng.normal(size=(60, k)), delimiter=",",
                   header=header, comments="")
    args = ["fit", "--x", "x.csv", "--y", "y.csv", "--method", "both", "--permutations", "10",
            "--bootstraps", "100", "--splits", "2", "--seed", "1", "--out-dir", "out"]
    code = ("import sys; sys.modules['scipy'] = None; from crossblock.cli import main; "
            f"sys.exit(main({args!r}))")
    done = subprocess.run([sys.executable, "-c", code], env=_env_with_src(), cwd=tmp_path,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    report = json.loads((tmp_path / "out" / "fit.json").read_text(encoding="utf-8"))
    bartlett = report["sections"]["full_sample"]["per_method"]["cca"]["bartlett"]
    assert [t["df"] for t in bartlett] == [12, 6, 2]
    assert all(0.0 < t["p_value"] < 1.0 for t in bartlett)
