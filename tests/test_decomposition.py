import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import hadamard

from crossblock import (
    DataBlock,
    align_reflections,
    fit_cca,
    fit_pls,
)
from crossblock.errors import RankDeficient, ShapeMismatch

from oracles import brute_pearson, grid_max_canonical_correlation, random_invertible


def blocks_with_correlations(rxy):
    """X and Y of 8 rows whose sample cross-correlations are rxy: X holds p
    columns of a Hadamard matrix (orthogonal, each summing to zero; the
    all-ones column is left out), and Y = X rxy plus, per column, a further
    Hadamard column scaled so that each Y column has X's norm."""
    rxy = np.asarray(rxy, dtype=float)
    p, q = rxy.shape
    h = hadamard(8).astype(float)[:, 1:]
    xv = h[:, :p]
    yv = xv @ rxy + h[:, p : p + q] * np.sqrt(1.0 - np.square(rxy).sum(axis=0))
    return (DataBlock(xv, tuple(f"x{i}" for i in range(p))),
            DataBlock(yv, tuple(f"y{i}" for i in range(q))))


def cross_correlations(x, y):
    """Pearson correlations of X's columns with Y's, by ``np.corrcoef``."""
    return np.corrcoef(x.values, y.values, rowvar=False)[: x.k, x.k :]


def gaussian_blocks(seed, n, p, q):
    rng = np.random.default_rng(seed)
    x = DataBlock(rng.normal(size=(n, p)), tuple(f"x{i}" for i in range(p)))
    y = DataBlock(rng.normal(size=(n, q)), tuple(f"y{i}" for i in range(q)))
    return x, y


class TestFitPls:
    def test_scalar(self):
        m = fit_pls(*blocks_with_correlations([[0.5]]))
        assert_allclose(m.s, [0.5])
        assert_allclose(np.abs(m.u), [[1.0]])
        assert_allclose(np.abs(m.v), [[1.0]])

    def test_zero_matrix(self):
        m = fit_pls(*blocks_with_correlations(np.zeros((3, 2))))
        assert_allclose(m.s, 0.0, atol=1e-15)

    def test_diagonal_by_inspection(self):
        m = fit_pls(*blocks_with_correlations([[0.3, 0.0], [0.0, 0.1]]))
        assert_allclose(m.s, [0.3, 0.1], atol=1e-15)
        assert_allclose(np.abs(m.u), np.eye(2), atol=1e-12)
        assert_allclose(np.abs(m.v), np.eye(2), atol=1e-12)

    def test_frobenius_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            x, y = gaussian_blocks(rng.integers(1 << 30), 40, 5, 3)
            m = fit_pls(x, y)
            assert abs(np.sum(m.s**2) - np.sum(cross_correlations(x, y)**2)) < 1e-10

    def test_orientation_deterministic(self):
        rng = np.random.default_rng(9)
        x, y = gaussian_blocks(rng.integers(1 << 30), 60, 4, 3)
        m = fit_pls(x, y)
        lead = np.argmax(np.abs(m.u), axis=0)
        assert np.all(m.u[lead, np.arange(m.r)] > 0)

    def test_reconstruction(self):
        x, y = gaussian_blocks(42, 50, 5, 4)
        m = fit_pls(x, y)
        assert np.abs(m.u @ np.diag(m.s) @ m.v.T - cross_correlations(x, y)).max() < 1e-8


class TestFitCca:
    def test_single_pair_is_pearson(self):
        rng = np.random.default_rng(8)
        xv = rng.normal(size=60)
        yv = 0.4 * xv + rng.normal(size=60)
        x = DataBlock(xv[:, None], ("x",))
        y = DataBlock(yv[:, None], ("y",))
        m = fit_cca(x, y)
        assert_allclose(m.s[0], abs(brute_pearson(xv, yv)), atol=1e-12)

    def test_rank_deficient_block_is_named(self):
        x, y = gaussian_blocks(3, 30, 3, 2)
        for name in ("x", "y"):
            collinear = {"x": x, "y": y}
            block = collinear[name]
            values = np.column_stack([block.values, block.values.sum(axis=1)])
            collinear[name] = DataBlock(values, block.labels + ("sum",))
            with pytest.raises(RankDeficient) as err:
                fit_cca(collinear["x"], collinear["y"])
            assert err.value.block == name
            fit_pls(collinear["x"], collinear["y"])  # PLS inverts no within-block matrix

    def test_identity_within_block_matches_pls(self):
        from crossblock import component_scores, fit_pca

        x, y = gaussian_blocks(10, 150, 4, 3)
        sx = component_scores(x, fit_pca(x), 4)
        sy = component_scores(y, fit_pca(y), 3)
        assert np.abs(fit_cca(sx, sy).s - fit_pls(sx, sy).s).max() < 1e-10

    def test_grid_search_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(8):
            x, y = gaussian_blocks(rng.integers(1 << 30), 120, 2, 2)
            m = fit_cca(x, y)
            oracle = grid_max_canonical_correlation(x.values, y.values)
            assert abs(m.s[0] - oracle) < 2e-3

    def test_invariance_under_invertible_transforms(self):
        rng = np.random.default_rng(33)
        x, y = gaussian_blocks(6, 200, 4, 3)
        s_ref = fit_cca(x, y).s
        for _ in range(5):
            tx = random_invertible(rng, 4, float(rng.uniform(2, 1e4)))
            ty = random_invertible(rng, 3, float(rng.uniform(2, 1e4)))
            xt = DataBlock(x.values @ tx, x.labels)
            yt = DataBlock(y.values @ ty, y.labels)
            s = fit_cca(xt, yt).s
            assert np.abs(s - s_ref).max() < 1e-8

    def test_pls_not_invariant_under_mixing(self):
        rng = np.random.default_rng(44)
        x, y = gaussian_blocks(5, 200, 4, 3)
        s_ref = fit_pls(x, y).s
        tx = random_invertible(rng, 4, 50.0)
        xt = DataBlock(x.values @ tx, x.labels)
        s = fit_pls(xt, y).s
        assert np.abs(s - s_ref).max() > 1e-4

    def test_unit_bound(self):
        rng = np.random.default_rng(55)
        xv = rng.normal(size=(40, 3))
        y = DataBlock(xv @ rng.normal(size=(3, 3)), ("a", "b", "c"))
        m = fit_cca(DataBlock(xv, ("p", "q", "r")), y)
        assert np.all(m.s <= 1.0 + 1e-10)


class TestScaleAndAlign:
    def test_align_no_flips(self):
        ref = np.linalg.qr(np.random.default_rng(0).normal(size=(5, 3)))[0]
        cand, paired, flips = align_reflections(ref, ref.copy(), np.eye(3))
        assert not flips.any()
        assert_allclose(cand, ref)

    def test_align_all_flipped(self):
        ref = np.linalg.qr(np.random.default_rng(1).normal(size=(5, 3)))[0]
        cand, paired, flips = align_reflections(ref, -ref, -np.eye(3))
        assert flips.all()
        assert_allclose(cand, ref)
        assert_allclose(paired, np.eye(3))

    def test_align_single_column(self):
        ref = np.linalg.qr(np.random.default_rng(2).normal(size=(5, 3)))[0]
        cand = ref.copy()
        cand[:, 1] *= -1
        paired = np.ones((2, 3))
        out, paired_out, flips = align_reflections(ref, cand, paired)
        assert list(flips) == [False, True, False]
        assert_allclose(out, ref)
        assert_allclose(paired_out[:, 1], -1.0)

    def test_align_idempotent(self):
        rng = np.random.default_rng(3)
        ref = np.linalg.qr(rng.normal(size=(6, 4)))[0]
        cand = np.linalg.qr(rng.normal(size=(6, 4)))[0]
        paired = rng.normal(size=(3, 4))
        once = align_reflections(ref, cand, paired)
        twice = align_reflections(ref, once[0], once[1])
        assert np.array_equal(once[0], twice[0])
        assert np.array_equal(once[1], twice[1])
        assert not twice[2].any()

    def test_align_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            align_reflections(np.eye(3), np.eye(4), np.eye(4))
