"""Split-half reproducibility of singular values and singular vectors.

Two complementary assessments, both built on repeated random partitions of
the rows into disjoint halves:

* train/test: fit on one half, project the other half's cross-block matrix
  through the training singular vectors, and read the diagonal as the test
  singular values. The diagonal is kept signed; a pattern that fails to
  generalize can project negatively.
* split-half similarity: fit both halves independently and record the
  absolute diagonal cosines between their singular vectors (absolute,
  because the sign of a singular vector is arbitrary under resampling).

Each LV's distribution over splits is summarized as z = mean / sd. The z is
a heuristic: narrow distributions with a non-zero mean score high. Null
calibration repeats both assessments after permuting Y rows once per
iteration, which shows what z values to expect when no cross-block
structure exists.
"""

from dataclasses import dataclass

import numpy as np

from .blocks import DataBlock, _zscore_values
from .decomposition import _cross_matrix, _fit_zscored, check_method
from .errors import ConstantColumn, ObservationMismatch, RankDeficient
from .parallel import map_draws
from .rng import permutation_rows, substream


@dataclass(frozen=True)
class TrainTestReport:
    """Projected test singular values per split and their per-LV z scores.

    ``s_test_draws`` has one row per completed split (failed splits are
    counted in ``n_failed``). Where a distribution has zero spread the z is
    NaN and the LV is flagged degenerate instead of reporting infinity.
    """

    s_test_draws: np.ndarray
    z: np.ndarray
    degenerate: np.ndarray
    n_split: int
    n_failed: int


@dataclass(frozen=True)
class SplitHalfReport:
    """Absolute diagonal cosines between half-sample singular vectors."""

    u_cosine_draws: np.ndarray
    v_cosine_draws: np.ndarray
    z_u: np.ndarray
    z_v: np.ndarray
    degenerate_u: np.ndarray
    degenerate_v: np.ndarray
    n_split: int
    n_failed: int


def _distribution_z(draws: np.ndarray):
    mean = draws.mean(axis=0)
    sd = draws.std(axis=0, ddof=1)
    degenerate = sd == 0
    z = np.full(draws.shape[1], np.nan)
    ok = ~degenerate
    z[ok] = mean[ok] / sd[ok]
    return z, degenerate


def _train_test_report(s_test: np.ndarray, n_split: int, n_failed: int) -> TrainTestReport:
    z, degenerate = _distribution_z(s_test)
    return TrainTestReport(
        s_test_draws=s_test, z=z, degenerate=degenerate, n_split=n_split, n_failed=n_failed
    )


def _split_half_report(u, v, n_split: int, n_failed: int) -> SplitHalfReport:
    z_u, degenerate_u = _distribution_z(u)
    z_v, degenerate_v = _distribution_z(v)
    return SplitHalfReport(
        u_cosine_draws=u, v_cosine_draws=v, z_u=z_u, z_v=z_v,
        degenerate_u=degenerate_u, degenerate_v=degenerate_v,
        n_split=n_split, n_failed=n_failed,
    )


def _half_indices(perm: np.ndarray):
    """Split a row permutation into disjoint halves; the larger half trains."""
    cut = (perm.shape[0] + 1) // 2
    return perm[:cut], perm[cut:]


def _checked_blocks(x: DataBlock, y: DataBlock, n_split: int):
    if x.n != y.n:
        raise ObservationMismatch(f"x has {x.n} rows, y has {y.n}")
    if x.n < 4:
        raise ValueError("need at least 4 rows to form two halves of 2")
    if n_split < 1:
        raise ValueError("n_split must be at least 1")
    return x.values, y.values, (x.labels, y.labels)


def _zscored_rows(xv, yv, rows, labels):
    return _zscore_values(xv[rows], labels[0]), _zscore_values(yv[rows], labels[1])


def _split_train_test(xv, yv, method, perm, labels):
    train, test = _half_indices(perm)
    u, _, v, _ = _fit_zscored(*_zscored_rows(xv, yv, train, labels), method)
    m_test = _cross_matrix(*_zscored_rows(xv, yv, test, labels), method)
    return np.einsum("ij,ik,kj->j", u, m_test, v)


def _split_both(xv, yv, method, perm, labels):
    """Fit both halves of one partition; return the train/test diagonal (the
    first half trains) and the absolute diagonal cosines of U and of V."""
    half1, half2 = _half_indices(perm)
    u1, _, v1, _ = _fit_zscored(*_zscored_rows(xv, yv, half1, labels), method)
    u2, _, v2, m2 = _fit_zscored(*_zscored_rows(xv, yv, half2, labels), method)
    return (
        np.einsum("ij,ik,kj->j", u1, m2, v1),
        np.abs(np.einsum("ij,ij->j", u1, u2)),
        np.abs(np.einsum("ij,ij->j", v1, v2)),
    )


def _run_splits(split, seed: int, purpose: str, shape: tuple, n_split: int, threads: int):
    """Run split(d_i) for i in range(n_split).

    d_i is the i-th array of row permutations of the given shape drawn from
    the (seed, purpose) generator. Returns the outcomes of the splits that
    completed and the count of splits that failed the rank guard or hit a
    constant column. When every split fails, the first split's own error is
    raised, so the message names the block and the cause.
    """

    def one(i, d):
        try:
            return split(d)
        except (RankDeficient, ConstantColumn) as exc:
            return exc

    batch = substream(seed, purpose)
    results = map_draws(
        one, lambda k: permutation_rows(batch, (k, *shape)), n_split, int(np.prod(shape)), threads
    )
    done = [r for r in results if not isinstance(r, Exception)]
    if not done:
        raise results[0]
    return done, n_split - len(done)


def train_test(
    x: DataBlock,
    y: DataBlock,
    method: str,
    n_split: int = 500,
    seed: int = 0,
    threads: int = 1,
) -> TrainTestReport:
    """Train/test assessment of the singular values over random splits.

    Iteration i partitions the rows by the i-th permutation drawn from the
    (seed, "train-test") generator, fits on the training half, and projects
    the test half's cross-block matrix through the training vectors. For
    CCA both halves must pass the rank guard; a failing split is recorded
    and skipped, and only if every split fails does the call raise the
    first split's RankDeficient or ConstantColumn.
    """
    method = check_method(method)
    xv, yv, labels = _checked_blocks(x, y, n_split)
    draws, n_failed = _run_splits(
        lambda perm: _split_train_test(xv, yv, method, perm, labels),
        seed, "train-test", (x.n,), n_split, threads,
    )
    return _train_test_report(np.stack(draws), n_split, n_failed)


def split_half(
    x: DataBlock,
    y: DataBlock,
    method: str,
    n_split: int = 500,
    seed: int = 0,
    threads: int = 1,
) -> SplitHalfReport:
    """Similarity of singular vectors fitted on disjoint half-samples.

    Iteration i partitions the rows by the i-th permutation drawn from the
    (seed, "split-half") generator and records |diag(U1.T U2)| and
    |diag(V1.T V2)|. Failed splits are handled as in ``train_test``.
    """
    method = check_method(method)
    xv, yv, labels = _checked_blocks(x, y, n_split)
    draws, n_failed = _run_splits(
        lambda perm: _split_both(xv, yv, method, perm, labels),
        seed, "split-half", (x.n,), n_split, threads,
    )
    return _split_half_report(
        np.stack([d[1] for d in draws]), np.stack([d[2] for d in draws]), n_split, n_failed
    )


def null_calibration(
    x: DataBlock,
    y: DataBlock,
    method: str,
    n_split: int = 500,
    seed: int = 0,
    threads: int = 1,
) -> tuple[TrainTestReport, SplitHalfReport]:
    """Null distributions of both reproducibility metrics.

    Iteration i permutes the Y rows once (breaking the cross-block
    association) before splitting, then computes the train/test diagonal
    and the split-half cosines on the same permuted data and partition.
    Draw i is the i-th pair of permutations from the (seed,
    "null-calibration") generator: the first reorders Y, the second is the
    partition. Comparing these reports against the unpermuted ones shows
    how much of an observed z score mere dimensionality produces.
    """
    method = check_method(method)
    xv, yv, labels = _checked_blocks(x, y, n_split)
    results, n_failed = _run_splits(
        lambda pair: _split_both(xv, yv[pair[0]], method, pair[1], labels),
        seed, "null-calibration", (2, x.n), n_split, threads,
    )
    s_test, u_cos, v_cos = (np.stack(column) for column in zip(*results))
    return (
        _train_test_report(s_test, n_split, n_failed),
        _split_half_report(u_cos, v_cos, n_split, n_failed),
    )
