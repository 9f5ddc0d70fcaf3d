"""Stream contract 2: golden draws per purpose and invariance properties.

A batch of draws comes from one generator keyed by (seed, purpose,
context); draw i is the i-th draw taken from it in index order. The golden
values below pin each purpose's first draws for a fixed seed, so any change
to how streams are derived fails here and must come with a new
``STREAM_CONTRACT``.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import crossblock.parallel as parallel
from crossblock import (
    DataBlock,
    ExperimentConfig,
    bootstrap_ci,
    fit_pls,
    generate_null,
    null_calibration,
    pca_stability,
    permutation_test,
    run_detectability,
    run_full_sample,
    run_reproducibility_by_n,
    split_half,
    train_test,
)
from crossblock.decomposition import NUMERICS_CONTRACT, PLS
from crossblock.inference import permutation_matrix
from crossblock.io import (
    ReportDocument,
    full_sample_section,
    pca_stability_section,
    subsample_section,
)
from crossblock.parallel import _map_subsamples
from crossblock.rng import STREAM_CONTRACT, derive_seed, permutation_rows, substream


def assert_golden(actual, expected):
    assert_allclose(actual, expected, rtol=1e-9, atol=1e-12)


def subsample_rows(seed, size, n, k):
    """The rows of the sweeps' first k subsamples of one size, as the driver draws them."""
    [(_, rows)] = _map_subsamples(lambda _: lambda i, idx, signs: idx, n, (size,), seed,
                                  "subsample", 1, 0, k, 1)
    return rows


@pytest.fixture(scope="module")
def blocks():
    ds = generate_null(60, 3, 2, seed=5)
    return ds.x, ds.y


def degenerate_prone_blocks():
    # column "a" is non-zero in one row only, so about a third of all
    # bootstrap draws miss that row and must be redrawn
    rng = np.random.default_rng(3)
    xv = rng.normal(size=(12, 2))
    xv[:, 0] = 0.0
    xv[0, 0] = 1.0
    return DataBlock(xv, ("a", "b")), DataBlock(rng.normal(size=(12, 2)), ("p", "q"))


class TestGolden:
    def test_contract_version_in_report_metadata(self):
        doc = ReportDocument.build(kind="k", seed=1, config={}, sections={})
        assert STREAM_CONTRACT == 2
        assert doc.metadata["stream_contract"] == 2

    def test_numerics_contract_in_report_metadata(self):
        doc = ReportDocument.build(kind="k", seed=1, config={}, sections={})
        assert NUMERICS_CONTRACT == 5
        assert doc.metadata["numerics_contract"] == 5

    def test_permutation(self):
        assert permutation_matrix(11, 3, 8).tolist() == [
            [7, 4, 1, 0, 3, 6, 2, 5],
            [0, 6, 7, 5, 1, 2, 4, 3],
            [7, 0, 5, 1, 4, 6, 2, 3],
        ]

    def test_permutation_rows_are_sequential_draws(self):
        gen = substream(4, "permutation")
        reference = np.stack([gen.permutation(13) for _ in range(20)])
        assert np.array_equal(permutation_matrix(4, 20, 13), reference)

    def test_subsample(self):
        draws = subsample_rows(11, 4, 30, 2)
        assert [d.tolist() for d in draws] == [[8, 6, 27, 20], [11, 14, 1, 24]]

    def test_bootstrap(self, blocks):
        res = bootstrap_ci(*blocks, PLS, n_boot=100, seed=11)
        assert_golden(res.x.lower[:, 0], [-0.285902609787, -0.278690957889, -0.032197999724])

    def test_bootstrap_retry(self):
        res = bootstrap_ci(*degenerate_prone_blocks(), PLS, n_boot=100, seed=11)
        assert_golden(res.x.upper[:, 0], [0.222425993405, 0.579969724101])

    def test_train_test(self, blocks):
        rep = train_test(*blocks, PLS, n_split=5, seed=11)
        assert_golden(rep.draws[0], [0.036827265007, 0.07176334018])

    def test_split_half(self, blocks):
        rep = split_half(*blocks, PLS, n_split=5, seed=11)
        assert_golden(rep.u_draws[0], [0.73940663128, 0.582696882383])

    def test_null_calibration(self, blocks):
        tt, sh = null_calibration(*blocks, PLS, n_split=5, seed=11)
        assert_golden(tt.draws[0], [-0.412355656438, -0.081662105234])
        assert_golden(sh.u_draws[0], [0.897248704415, 0.423102764583])

    def test_pca_stability(self, blocks):
        res = pca_stability(blocks[0], sample_sizes=(20,), n_iter=5, n_pc=2, seed=11)
        assert_golden(res.mean[0], [0.724764303862, 0.548045243295])


def test_detectability_shares_one_permutation_matrix_per_subsample():
    # each subsample's p-values are those of permutation_test with the
    # derived seed, for every method: PLS and CCA see the same permutations
    ds = generate_null(400, 4, 3, seed=6)
    cfg = ExperimentConfig(sample_sizes=(40,), n_iterations=6, n_perm=30, seed=12)
    rep = run_detectability(ds.x, ds.y, cfg)
    for method in cfg.methods:
        hits = np.zeros(3)
        for i, idx in enumerate(subsample_rows(cfg.seed, 40, ds.x.n, 6)):
            res = permutation_test(
                DataBlock(ds.x.values[idx], ds.x.labels),
                DataBlock(ds.y.values[idx], ds.y.labels), method, n_perm=30,
                seed=derive_seed(cfg.seed, "detect-permutation", 40, i),
            )
            hits += res.p_values <= cfg.alpha
        for lv in (1, 2, 3):
            assert rep.cell(method, 40, lv).detectability == hits[lv - 1] / 6


def test_null_calibration_uses_one_partition_per_iteration(blocks):
    # reference loop: draw i is (Y permutation, partition); both metrics come
    # from fits on the two halves of that one partition
    x, y = blocks
    n, cut = x.n, (x.n + 1) // 2
    tt, sh = null_calibration(x, y, PLS, n_split=8, seed=19)
    pairs = permutation_rows(substream(19, "null-calibration"), (8, 2, n))
    for i, (y_order, part) in enumerate(pairs):
        yp = y.values[y_order]
        train, test = (fit_pls(DataBlock(x.values[rows], x.labels), DataBlock(yp[rows], y.labels))
                       for rows in (part[:cut], part[cut:]))
        test_rxy = np.corrcoef(x.values[part[cut:]], yp[part[cut:]], rowvar=False)[: x.k, x.k :]
        assert_allclose(tt.draws[i], np.diag(train.u.T @ test_rxy @ train.v), atol=1e-12)
        assert_allclose(sh.u_draws[i], np.abs(np.diag(train.u.T @ test.u)), atol=1e-12)
        assert_allclose(sh.v_draws[i], np.abs(np.diag(train.v.T @ test.v)), atol=1e-12)


class TestPrefix:
    def test_permutation_test(self, blocks):
        short = permutation_test(*blocks, PLS, n_perm=100, seed=3)
        long = permutation_test(*blocks, PLS, n_perm=250, seed=3)
        assert np.array_equal(short.null_singular_values, long.null_singular_values[:100])

    @pytest.mark.parametrize("fn", [train_test, split_half])
    def test_split_draws(self, blocks, fn):
        short = fn(*blocks, PLS, n_split=10, seed=3)
        long = fn(*blocks, PLS, n_split=25, seed=3)
        for name in ("draws", "u_draws", "v_draws"):
            if hasattr(short, name):
                assert np.array_equal(getattr(short, name), getattr(long, name)[:10])

    def test_null_calibration(self, blocks):
        short = null_calibration(*blocks, PLS, n_split=10, seed=3)
        long = null_calibration(*blocks, PLS, n_split=25, seed=3)
        assert np.array_equal(short[0].draws, long[0].draws[:10])
        assert np.array_equal(short[1].u_draws, long[1].u_draws[:10])


def test_permutation_chunk_size_invariance(blocks, monkeypatch):
    x, y = blocks
    monkeypatch.setattr(parallel, "_DRAW_CHUNK_ELEMENTS", 1)  # one row per chunk
    one_row = permutation_test(x, y, PLS, n_perm=50, seed=4)
    monkeypatch.setattr(parallel, "_DRAW_CHUNK_ELEMENTS", 10**9)  # all rows at once
    all_rows = permutation_test(x, y, PLS, n_perm=50, seed=4)
    assert one_row.null_singular_values.tobytes() == all_rows.null_singular_values.tobytes()
    assert one_row.p_values.tobytes() == all_rows.p_values.tobytes()


def _report_bytes(kind: str, threads: int) -> bytes:
    ds = generate_null(300, 4, 3, seed=21)
    cfg = ExperimentConfig(sample_sizes=(60, 30), n_iterations=5, n_perm=40, n_boot=100,
                           n_split=12, seed=23, threads=threads)
    if kind == "full":
        section = full_sample_section(run_full_sample(ds.x, ds.y, cfg))
    elif kind == "pca-stability":
        section = pca_stability_section(pca_stability(ds.x, sample_sizes=(60, 30), n_iter=5,
                                                      seed=23, threads=threads))
    elif kind == "detectability":
        section = subsample_section(run_detectability(ds.x, ds.y, cfg))
    else:
        section = subsample_section(run_reproducibility_by_n(ds.x, ds.y, cfg))
    doc = ReportDocument.build(kind=kind, seed=23, config={}, sections={"s": section})
    return doc.to_json().encode()


@pytest.mark.parametrize("kind", ["full", "detectability", "reproducibility", "pca-stability"])
def test_reports_identical_across_threads_and_chunk_sizes(kind, monkeypatch):
    reference = _report_bytes(kind, threads=1)
    for threads in (2, 8):
        assert _report_bytes(kind, threads) == reference
    # one draw (one permutation row) per stack, and each batch in one stack
    for elements in (1, 10**9):
        monkeypatch.setattr(parallel, "_DRAW_CHUNK_ELEMENTS", elements)
        assert _report_bytes(kind, threads=2) == reference
