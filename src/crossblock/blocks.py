"""Data blocks, standardization, and the prepared pair every fit runs on.

A DataBlock is an n x k observation matrix with column labels; every
analysis in this package consumes pairs of them. ``prepare_pair`` z-scores
a pair once and, for canonical correlation, whitens each block, with the
eigendecomposition of its within-block correlation matrix as the rank
guard. This module also holds the spectral utilities those steps rest on.

Every fit, the whole sample's as well as each resampled draw's, is
evaluated from a PreparedPair: the pair's rows in a fixed basis, prepared
once, from which any draw's moments are weighted sums over rows. Sample
statistics use n - 1 denominators throughout.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstantColumn,
    NotPositiveDefinite,
    ObservationMismatch,
    RankDeficient,
    unwrap,
)

# Relative spectral cutoff: an eigenvalue below RANK_REL_TOL times the largest
# eigenvalue counts as zero. Exact singularity shows up as roundoff-scale
# eigenvalues (~1e-15 relative), while steep-but-genuine spectra (exponential
# eigenvalue decay over dozens of variables) reach ~1e-12 relative and must
# still be invertible, so the cutoff sits between the two.
RANK_REL_TOL = 1e-13

_CONSTANT_SD = 1e-12
# A draw's column is constant when its variance, in units of the full sample's
# variance, is at most this: its sd is at most 1e-6 of the full sample's.
_CONSTANT_DRAW_VAR = 1e-12
# Rows that moment sums and permutation products add at once.
_SUM_ROWS = 1024
_SYM_TOL = 1e-10


@dataclass(frozen=True)
class DataBlock:
    """An n x k matrix of observations (rows) on labeled variables (columns).

    Immutable after construction; the values array is marked read-only.
    """

    values: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64, order="C")
        if values.ndim != 2:
            raise ValueError(f"values must be 2-D, got {values.ndim}-D")
        n, k = values.shape
        if n < 2:
            raise ValueError(f"need at least 2 observations, got {n}")
        if k < 1:
            raise ValueError("need at least 1 variable")
        if not np.isfinite(values).all():
            raise ValueError("values contain non-finite entries")
        labels = tuple(str(x) for x in self.labels)
        if len(labels) != k:
            raise ValueError(f"{len(labels)} labels for {k} columns")
        if len(set(labels)) != k:
            j = next(j for j in range(k) if labels[j] in labels[:j])
            raise ValueError(f"label {labels[j]!r} names columns "
                             f"{labels.index(labels[j]) + 1} and {j + 1}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def k(self) -> int:
        return self.values.shape[1]


def _zscore_values(values: np.ndarray):
    """Center and scale, in place, the columns of an (n, k) block to unit
    sample sd; returns ``values`` and the (k,) mask of columns with sd below
    1e-12 (centred, not scaled)."""
    values -= values.mean(axis=0)
    sd = np.sqrt(np.square(values).sum(axis=0) / (len(values) - 1))
    constant = sd < _CONSTANT_SD
    values /= np.where(constant, 1.0, sd)
    return values, constant


def _constant_errors(constant: np.ndarray, labels: tuple[str, ...]) -> list:
    """Per draw of a constant-column mask: a ConstantColumn naming its first, or None."""
    constant = constant.reshape(-1, constant.shape[-1])
    return [ConstantColumn(labels[j]) if bad else None
            for bad, j in zip(constant.any(axis=-1), constant.argmax(axis=-1))]


def _zscored(values: np.ndarray, labels: tuple[str, ...]) -> np.ndarray:
    """Z-scores of one block; ConstantColumn names its first constant column."""
    z, constant = _zscore_values(np.array(values, dtype=np.float64))
    return unwrap(_constant_errors(constant, labels)[0] or z)


def _inverse_roots(m: np.ndarray, block: str = ""):
    """Symmetric inverse square root of a symmetric matrix and None, or, when
    the rank guard fails, the identity and the RankDeficient naming ``block``;
    both from one eigh (no root of a non-positive eigenvalue is taken)."""
    w, v = np.linalg.eigh(m)
    if w[-1] <= 0 or w[0] < RANK_REL_TOL * w[-1]:
        return np.eye(len(w)), RankDeficient(block, float(w[0]),
                                             RANK_REL_TOL * max(float(w[-1]), 0.0))
    a = (v / np.sqrt(w)) @ v.T
    return (a + a.T) / 2.0, None


def inverse_sqrt_sym(m: np.ndarray) -> np.ndarray:
    """Inverse square root of a symmetric positive-definite matrix.

    Computed from the symmetric eigendecomposition so the result A is itself
    symmetric and satisfies A @ m @ A = I. Raises NotPositiveDefinite when
    the smallest eigenvalue falls below the relative rank tolerance.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    if np.abs(m - m.T).max() > _SYM_TOL:
        raise ValueError("matrix is not symmetric within 1e-10")
    a, error = _inverse_roots(m)
    if error is not None:
        raise NotPositiveDefinite(error.eigenvalue)
    return a


def _within_correlation(z: np.ndarray) -> np.ndarray:
    r = z.T @ z / (len(z) - 1)
    return (r + r.T) / 2.0


def _adjustment_roots(rxx: np.ndarray, ryy: np.ndarray):
    """Inverse square roots of both within-block matrices, with rank guard:
    one eigh per block. Returns (ax, by, error), error being None or the
    RankDeficient of the first failing block."""
    ax, x_error = _inverse_roots(rxx, "x")
    by, y_error = _inverse_roots(ryy, "y")
    return ax, by, x_error or y_error


@dataclass(frozen=True)
class PreparedPair:
    """A block pair prepared once for every draw a resampler evaluates.

    ``data`` is (n, 1 + p + q): a column of ones, then X's basis, then Y's:
    the z-scores, or (CCA) the z-scores whitened so that each block's Gram
    is (n - 1) I, with ``roots`` holding each block's map B back (z = w B).
    A draw's moments come from ``sums``; PLS's hold no within-block products.
    ``x`` and ``y`` are the blocks it was prepared from; only those are fitted
    from it. ``data`` and ``roots`` are read-only, so resamplers may share a pair.
    """

    data: np.ndarray
    x: DataBlock
    y: DataBlock
    roots: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        for m in (self.data, *(self.roots or ())):
            m.setflags(write=False)

    @property
    def p(self) -> int:
        return self.x.k

    def sums(self, rows=slice(None), y_rows=None) -> np.ndarray:
        """``_row_sums`` over all rows or, a row weighted by how often its draw takes it, over
        each draw of a (..., m) stack of row draws; ``y_rows`` pairs other rows' Y with them."""
        if isinstance(rows, slice):
            return self._row_sums(self.data[rows])
        total = 0.0
        y = None if y_rows is None else np.ascontiguousarray(self.data[:, 1 + self.p :])
        for start in range(0, rows.shape[-1], _SUM_ROWS):  # a small gather at a time
            g = self.data.take(rows[..., start : start + _SUM_ROWS], axis=0)
            if y is not None:
                g[..., 1 + self.p :] = y.take(y_rows[..., start : start + _SUM_ROWS], axis=0)
            total = total + self._row_sums(g)
        return total

    def _row_sums(self, g: np.ndarray) -> np.ndarray:
        """Sums over the rows of (..., m, 1 + p + q) data g: CCA's g' g; PLS's column sums
        and squared column sums of g, each led by the total weight, then Zx' Zy."""
        if self.roots is not None:
            return g.swapaxes(-1, -2) @ g
        cross = g[..., 1 : 1 + self.p].swapaxes(-1, -2) @ g[..., 1 + self.p :]
        return np.concatenate([np.ones(g.shape[-2]) @ g, np.einsum("...ij,...ij->...j", g, g),
                               cross.reshape(*cross.shape[:-2], -1)], axis=-1)

    def moments(self, sums: np.ndarray):
        """Covariances in the basis (PLS: of X with Y only) for one draw's sums
        or a stack and, for PLS, ``_draw_sd`` of its z-basis variances. CCA's
        kernel takes those from the Gram factors it forms, so it gets None."""
        if self.roots is not None:
            count = sums[..., :1, :1]
            mean = sums[..., :1, 1:] / count
            cov = (sums[..., 1:, 1:] - count * mean.swapaxes(-1, -2) * mean) / (count - 1)
            return cov, None, None
        k = self.data.shape[1] - 1
        count = sums[..., :1]
        mean = sums[..., 1 : 1 + k] / count
        var = (sums[..., 2 + k : 2 + 2 * k] - count * mean * mean) / (count - 1)
        xy = count[..., None] * mean[..., : self.p, None] * mean[..., None, self.p :]
        cov = (sums[..., 2 + 2 * k :].reshape(xy.shape) - xy) / (count[..., None] - 1)
        return cov, *_draw_sd(var)


def _draw_sd(var: np.ndarray):
    """Each column's sd from a draw's z-basis variances, 1 standing in for the
    columns constant on the draw, and the mask of those columns."""
    constant = var <= _CONSTANT_DRAW_VAR
    return np.sqrt(np.where(constant, 1.0, var)), constant


def _parts(p: int):
    """The X and Y column ranges of a pair's basis."""
    return slice(0, p), slice(p, None)


def prepare_pair(x: DataBlock, y: DataBlock, whiten: bool = False) -> PreparedPair:
    """Z-score a pair of blocks once and, when ``whiten`` is set, whiten each
    block by CholeskyQR2: first by the symmetric inverse root of its
    correlation matrix, whose eigh is also the rank guard, then by the
    Cholesky factor of what that leaves, so the Gram is (n - 1) I to
    roundoff however ill-conditioned the block.

    Raises ObservationMismatch, ConstantColumn naming the first constant
    column (X before Y) and, when whitening, RankDeficient naming the block.
    """
    if x.n != y.n:
        raise ObservationMismatch(f"x has {x.n} rows, y has {y.n}")
    data = np.empty((x.n, 1 + x.k + y.k))
    data[:, 0] = 1.0
    data[:, 1 : 1 + x.k] = x.values
    data[:, 1 + x.k :] = y.values
    _, constant = _zscore_values(data[:, 1:])
    unwrap(_constant_errors(constant, x.labels + y.labels)[0])
    if not whiten:
        return PreparedPair(data, x, y)
    blocks = [data[:, 1:][:, part] for part in _parts(x.k)]
    r = [_within_correlation(z) for z in blocks]
    *first, error = _adjustment_roots(*r)
    unwrap(error)
    roots = []
    for z, rz, a in zip(blocks, r, first):
        z[:] = z @ a
        second = np.linalg.cholesky(_within_correlation(z)).T  # upper: second' second = Gram / (n - 1)
        z[:] = z @ np.linalg.inv(second)
        roots.append(second @ (rz @ a))  # z = w @ second @ R^(1/2), R^(1/2) = R @ R^(-1/2)
    return PreparedPair(data, x, y, tuple(roots))
