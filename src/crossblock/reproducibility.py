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
structure exists. A call evaluates its partitions in stacks from one
prepared block pair, its own or one its caller shares: the first halves'
moments are gathered at once, the second halves' are the whole sample's
minus the first halves' (Chan, Golub & LeVeque 1983). Every half is checked,
but only what a report reads is computed: train/test decomposes no test
half, and split-half forms no z-basis matrix.
"""

from dataclasses import dataclass

import numpy as np

from .blocks import DataBlock, PreparedPair
from .decomposition import _fit_zscored, _pair_for
from .parallel import map_draws
from .rng import permutation_rows, substream


@dataclass(frozen=True)
class TrainTestReport:
    """Projected test singular values per split and their per-LV z scores.

    ``draws`` has one row per completed split (failed splits are counted in
    ``n_failed``). Where a distribution has no spread beyond rounding the z
    is NaN and the LV is flagged degenerate.
    """

    draws: np.ndarray
    z: np.ndarray
    degenerate: np.ndarray
    n_split: int
    n_failed: int


@dataclass(frozen=True)
class SplitHalfReport:
    """Absolute diagonal cosines between half-sample singular vectors, one row
    of ``u_draws`` (X side) and ``v_draws`` (Y side) per completed split."""

    u_draws: np.ndarray
    v_draws: np.ndarray
    z_u: np.ndarray
    z_v: np.ndarray
    degenerate_u: np.ndarray
    degenerate_v: np.ndarray
    n_split: int
    n_failed: int


# A distribution is degenerate when its sd is at most this share of its largest
# |draw|: draws equal up to rounding (1e-16 relative per fit, a few orders more
# after the sums before it) keep an sd of roundoff, and mean / sd of that is an
# astronomically large z that reports noise. No real spread is this narrow.
_DEGENERATE_SD = 1e-12


def _distribution_z(draws: np.ndarray):
    """z = mean / sd (ddof 1) of each column of (draws, columns), NaN where the
    column is degenerate, and the mask of degenerate columns."""
    sd = draws.std(axis=0, ddof=1)
    degenerate = sd <= _DEGENERATE_SD * np.abs(draws).max(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(degenerate, np.nan, draws.mean(axis=0) / sd), degenerate


def _half_indices(perm: np.ndarray):
    """Split row permutations (last axis) into halves; the larger half trains."""
    cut = (perm.shape[-1] + 1) // 2
    return perm[..., :cut], perm[..., cut:]


def _split_stack(pair, full, start, draws, reports, out):
    """Fit the halves of a stack of draws for ``reports`` (report types);
    ``full`` is ``pair.sums()``.

    A draw is a partition, one row of a (b, n) stack, or, in a (b, 2, n)
    stack, a reordering of Y followed by the partition. Writes the columns
    of ``reports`` in order (TrainTestReport's train/test diagonal;
    SplitHalfReport's |diag(U1.T U2)|, |diag(V1.T V2)|), the first half
    training, into ``out[:, start:start + b]``. Returns, per draw, None or
    the error of the first failing step in the order train X, train Y, test
    X, test Y (constant columns before the rank guard within a half); a
    failed draw's entries of ``out`` are not meaningful.
    """
    null = draws.ndim == 3
    halves = _half_indices(draws[:, 1] if null else draws)
    if null:  # a reordered Y: the second half's cross sums are not the sample's
        sums = [pair.sums(rows, np.take_along_axis(draws[:, 0], rows, 1)) for rows in halves]
    else:
        first = pair.sums(halves[0])
        sums = [first, full - first]
    diagonal, cosines = TrainTestReport in reports, SplitHalfReport in reports
    u, _, v, m, errors = _fit_zscored(pair, np.stack(sums), fit=... if cosines else slice(1),
                                      basis=slice(1, 2) if diagonal else None)
    b = len(draws)
    columns = iter(out[:, start : start + b])
    if diagonal:
        np.einsum("...ij,...ik,...kj->...j", u[0], m[0], v[0], out=next(columns))
    if cosines:
        for w in (u, v):
            np.abs(np.einsum("...ij,...ij->...j", w[0], w[1]), out=next(columns))
    return [e1 or e2 for e1, e2 in zip(errors[:b], errors[b:])]


# The report types each purpose's splits give; null calibration reorders Y first.
_REPORTS = {"train-test": (TrainTestReport,), "split-half": (SplitHalfReport,),
            "null-calibration": (TrainTestReport, SplitHalfReport)}


def _split_reports(x: DataBlock, y: DataBlock, method: str, n_split: int, seed: int,
                   purpose: str, threads: int, pair):
    """The reports ``_REPORTS`` lists for ``purpose``, of one batch of partitions.

    Draw i is the i-th array of row permutations from the (seed, purpose)
    generator: the partition, preceded for null calibration by a reordering of Y.
    Each stack of draws is evaluated at once from the moments of the pair
    (``pair``, checked, or one prepared here); a split failing the rank
    guard or hitting a constant column counts in ``n_failed``. Returns the
    reports in that order; when every split fails, the first split's
    own error is raised, so the message names the block and the cause.
    """
    pair = _pair_for(x, y, method, pair)
    if x.n < 4:
        raise ValueError("need at least 4 rows to form two halves of 2")
    if n_split < 2:
        raise ValueError("n_split (--splits) must be at least 2 for a z score")
    reports, null = _REPORTS[purpose], purpose == "null-calibration"
    full = pair.sums()
    batch = substream(seed, purpose)
    shape = (2, x.n) if null else (x.n,)
    values = np.empty(((TrainTestReport in reports) + 2 * (SplitHalfReport in reports),
                       n_split, min(x.k, y.k)))
    errors = map_draws(lambda start, d: _split_stack(pair, full, start, d, reports, values),
                       lambda k: permutation_rows(batch, (k, *shape)), n_split,
                       x.n * pair.data.shape[1], threads)
    done = np.array([e is None for e in errors])
    if not done.any():
        raise errors[0]
    columns = iter(values[:, done])
    n_failed = n_split - int(done.sum())
    out = []
    if TrainTestReport in reports:
        s_test = next(columns)
        out.append(TrainTestReport(s_test, *_distribution_z(s_test), n_split, n_failed))
    if SplitHalfReport in reports:
        u_cos, v_cos = columns
        (z_u, degenerate_u), (z_v, degenerate_v) = map(_distribution_z, (u_cos, v_cos))
        out.append(SplitHalfReport(u_cos, v_cos, z_u, z_v, degenerate_u, degenerate_v,
                                   n_split, n_failed))
    return out


def train_test(
    x: DataBlock,
    y: DataBlock,
    method: str,
    n_split: int = 500,
    seed: int = 0,
    threads: int = 1,
    pair: PreparedPair | None = None,
) -> TrainTestReport:
    """Train/test assessment of the singular values over random splits.

    Iteration i partitions the rows by the i-th permutation drawn from the
    (seed, "train-test") generator, fits on the training half, and projects
    the test half's cross-block matrix through the training vectors. For
    CCA both halves must pass the rank guard; a failing split is recorded
    and skipped, and only if every split fails does the call raise the
    first split's RankDeficient or ConstantColumn. ``pair`` is an optional
    shared ``prepare_pair(x, y, whiten=method == CCA)``, checked, never changed.
    """
    return _split_reports(x, y, method, n_split, seed, "train-test", threads, pair)[0]


def split_half(
    x: DataBlock,
    y: DataBlock,
    method: str,
    n_split: int = 500,
    seed: int = 0,
    threads: int = 1,
    pair: PreparedPair | None = None,
) -> SplitHalfReport:
    """Similarity of singular vectors fitted on disjoint half-samples.

    Iteration i partitions the rows by the i-th permutation drawn from the
    (seed, "split-half") generator and records |diag(U1.T U2)| and
    |diag(V1.T V2)|. Failed splits and ``pair`` are handled as in
    ``train_test``.
    """
    return _split_reports(x, y, method, n_split, seed, "split-half", threads, pair)[0]


def null_calibration(
    x: DataBlock,
    y: DataBlock,
    method: str,
    n_split: int = 500,
    seed: int = 0,
    threads: int = 1,
    pair: PreparedPair | None = None,
) -> tuple[TrainTestReport, SplitHalfReport]:
    """Null distributions of both reproducibility metrics.

    Iteration i permutes the Y rows once (breaking the cross-block
    association) before splitting, then computes the train/test diagonal
    and the split-half cosines on the same permuted data and partition.
    Draw i is the i-th pair of permutations from the (seed,
    "null-calibration") generator: the first reorders Y, the second is the
    partition. Comparing these reports against the unpermuted ones shows
    how much of an observed z score mere dimensionality produces. ``pair``
    is as in ``train_test``.
    """
    return tuple(_split_reports(x, y, method, n_split, seed, "null-calibration", threads, pair))
