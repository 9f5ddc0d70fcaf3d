"""Data blocks, standardization, and correlation structure.

A DataBlock is an n x k observation matrix with column labels; every
analysis in this package consumes pairs of them. This module computes the
within- and cross-block correlation matrices, the adjusted cross-block
matrix used for canonical correlation (the cross-correlations pre- and
post-multiplied by the symmetric inverse square roots of the within-block
correlations), and the spectral utilities those computations rest on.

Sample statistics use n - 1 denominators throughout.
"""

from dataclasses import dataclass, field

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
_ZSCORE_ROWS = 256
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
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def k(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class CorrelationBundle:
    """Within- and cross-block correlation matrices for a block pair.

    ``omega`` is the cross-correlation matrix adjusted for the within-block
    correlations; it is present only when requested at construction (it
    requires both within-block matrices to be full rank).
    """

    rxx: np.ndarray
    ryy: np.ndarray
    rxy: np.ndarray
    ryx: np.ndarray
    omega: np.ndarray | None = field(default=None)

    def __post_init__(self):
        for name in ("rxx", "ryy", "rxy", "ryx", "omega"):
            m = getattr(self, name)
            if m is None:
                continue
            m = np.asarray(m, dtype=np.float64)
            m.setflags(write=False)
            object.__setattr__(self, name, m)
        p, q = self.rxy.shape
        if self.rxx.shape != (p, p) or self.ryy.shape != (q, q):
            raise ValueError("inconsistent block dimensions")
        for name in ("rxx", "ryy"):
            m = getattr(self, name)
            if np.abs(m - m.T).max() > _SYM_TOL:
                raise ValueError(f"{name} is not symmetric")
            if np.abs(np.diag(m) - 1.0).max() > _SYM_TOL:
                raise ValueError(f"{name} does not have a unit diagonal")
        for name in ("rxx", "ryy", "rxy"):
            if np.abs(getattr(self, name)).max() > 1.0 + _SYM_TOL:
                raise ValueError(f"{name} has entries outside [-1, 1]")
        if not np.array_equal(self.ryx, self.rxy.T):
            raise ValueError("ryx must equal the transpose of rxy exactly")

    @property
    def p(self) -> int:
        return self.rxy.shape[0]

    @property
    def q(self) -> int:
        return self.rxy.shape[1]


def _zscore_values(values: np.ndarray):
    """Center and scale, in place, the columns of a C-ordered (n, k) block or
    (b, n, k) stack of draws to unit sample sd; returns ``values`` and the
    (..., k) mask of columns with sd below 1e-12 (centred, not scaled). Rows
    are squared ``_ZSCORE_ROWS`` at a time, so temporaries stay small (heap,
    not mmap), and the sum is carried: numpy sums several columns row by row,
    so that is bit-identical to one pass (a lone column sums pairwise: one block)."""
    n, k = values.shape[-2:]
    values -= values.mean(axis=-2, keepdims=True)
    rows = n if k == 1 else _ZSCORE_ROWS
    ss = np.square(values[..., :rows, :]).sum(axis=-2)
    for start in range(rows, n, rows):
        block = np.square(values[..., start : start + rows, :])
        ss = np.concatenate([ss[..., None, :], block], axis=-2).sum(axis=-2)
    sd = np.sqrt(ss / (n - 1))
    constant = sd < _CONSTANT_SD
    values /= np.where(constant, 1.0, sd)[..., None, :]
    return values, constant


def _constant_errors(constant: np.ndarray, labels=None) -> list:
    """Per draw of a constant-column mask: a ConstantColumn naming its first, or None."""
    constant = constant.reshape(-1, constant.shape[-1])
    return [ConstantColumn(labels[j] if labels is not None else str(j)) if bad else None
            for bad, j in zip(constant.any(axis=-1), constant.argmax(axis=-1))]


def _zscored(values: np.ndarray, labels=None) -> np.ndarray:
    """Z-scores of one block; ConstantColumn names its first constant column."""
    z, constant = _zscore_values(np.array(values, dtype=np.float64))
    return unwrap(_constant_errors(constant, labels)[0] or z)


def _zscored_pair(x: DataBlock, y: DataBlock):
    """Z-scores of a pair of blocks, which must have matching rows."""
    if x.n != y.n:
        raise ObservationMismatch(f"x has {x.n} rows, y has {y.n}")
    return _zscored(x.values, x.labels), _zscored(y.values, y.labels)


def zscore_columns(block: DataBlock) -> DataBlock:
    """Return a copy of the block with zero-mean, unit-sd columns.

    Raises ConstantColumn if any column's sample sd is below 1e-12.
    """
    return DataBlock(_zscored(block.values, block.labels), block.labels)


def _inverse_roots(m: np.ndarray, block: str = ""):
    """Symmetric inverse square roots of one symmetric matrix or a stack and, per
    matrix, None or the RankDeficient naming ``block``, both from one eigh (a
    failed matrix's root is the identity: no root of a non-positive eigenvalue)."""
    w, v = np.linalg.eigh(m)
    failed = (w[..., -1] <= 0) | (w[..., 0] < RANK_REL_TOL * w[..., -1])
    a = (v / np.sqrt(np.where(failed[..., None], 1.0, w))[..., None, :]) @ v.swapaxes(-1, -2)
    errors = [RankDeficient(block, float(wi[0]), RANK_REL_TOL * max(float(wi[-1]), 0.0))
              if bad else None for bad, wi in zip(failed.reshape(-1), w.reshape(-1, w.shape[-1]))]
    return (a + a.swapaxes(-1, -2)) / 2.0, errors


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
    a, (error,) = _inverse_roots(m)
    if error is not None:
        raise NotPositiveDefinite(error.eigenvalue)
    return a


def effective_rank(m: np.ndarray) -> int:
    """Number of eigenvalues of a symmetric matrix above the relative tolerance."""
    w = np.linalg.eigvalsh(np.asarray(m, dtype=np.float64))
    largest = w[-1]
    if largest <= 0:
        return 0
    return int(np.count_nonzero(w > RANK_REL_TOL * largest))


def _within_correlation(z: np.ndarray) -> np.ndarray:
    r = z.swapaxes(-1, -2) @ z / (z.shape[-2] - 1)
    return (r + r.swapaxes(-1, -2)) / 2.0


def _cross_correlation(xz: np.ndarray, yz: np.ndarray) -> np.ndarray:
    return xz.swapaxes(-1, -2) @ yz / (xz.shape[-2] - 1)


def _adjustment_roots(rxx: np.ndarray, ryy: np.ndarray):
    """Inverse square roots of both within-block matrices (a pair, or a pair
    of stacks), with rank guard: one eigh per block. Returns (ax, by, errors),
    errors[i] being None or the RankDeficient of draw i's first failing block."""
    ax, x_errors = _inverse_roots(rxx, "x")
    by, y_errors = _inverse_roots(ryy, "y")
    return ax, by, [ex or ey for ex, ey in zip(x_errors, y_errors)]


def correlation_bundle(x: DataBlock, y: DataBlock, with_omega: bool = False) -> CorrelationBundle:
    """Correlation matrices for a pair of blocks with matching rows.

    Both blocks are standardized internally, so the result is invariant to
    per-column affine rescaling of the inputs. When ``with_omega`` is set the
    adjusted cross-block matrix is computed as well, which requires both
    within-block correlation matrices to be full rank.

    Raises
    ------
    ObservationMismatch
        If the blocks have different row counts.
    RankDeficient
        If ``with_omega`` is set and a within-block matrix has an eigenvalue
        below the rank tolerance.
    """
    xz, yz = _zscored_pair(x, y)
    rxx = _within_correlation(xz)
    ryy = _within_correlation(yz)
    rxy = _cross_correlation(xz, yz)
    omega = None
    if with_omega:
        ax, by, (error,) = _adjustment_roots(rxx, ryy)
        omega = unwrap(error or ax) @ rxy @ by
    return CorrelationBundle(rxx=rxx, ryy=ryy, rxy=rxy, ryx=rxy.T.copy(), omega=omega)
